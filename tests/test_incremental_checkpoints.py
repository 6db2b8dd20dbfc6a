"""Incremental MV checkpoints: deltas chained to a full base (§4.2 ext)."""

import pytest

from repro.errors import FilesystemError
from tests.conftest import make_ros


def wiped(ros):
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    return ros


def test_delta_requires_base():
    ros = make_ros()
    ros.write("/a", b"1")
    with pytest.raises(FilesystemError):
        ros.run(ros.recovery.burn_mv_snapshot(incremental=True))


def test_delta_checkpoint_burns_fewer_discs():
    ros = make_ros(data_discs=3, parity_discs=1, auto_burn=False)
    for index in range(600):
        ros.write(f"/big/d{index % 20:02d}/f{index:04d}", b".")
    full_tasks = ros.run(ros.recovery.burn_mv_snapshot())
    full_images = sum(len(t.data_records) for t in full_tasks)
    # A handful of late changes.
    ros.write("/big/late-1", b"x")
    ros.write("/big/late-2", b"y")
    delta_tasks = ros.run(ros.recovery.burn_mv_snapshot(incremental=True))
    delta_images = sum(len(t.data_records) for t in delta_tasks)
    assert delta_images < full_images
    assert delta_images == 1


def test_recovery_replays_delta_chain():
    ros = make_ros(auto_burn=False)
    ros.write("/base/a", b"alpha")
    ros.run(ros.recovery.burn_mv_snapshot())
    ros.write("/base/b", b"beta")
    ros.run(ros.recovery.burn_mv_snapshot(incremental=True))
    ros.write("/base/c", b"gamma")
    ros.unlink("/base/a")
    ros.run(ros.recovery.burn_mv_snapshot(incremental=True))
    expected = set(ros.mv.all_index_paths())

    wiped(ros)
    applied, discs = ros.recover_mv()
    assert applied == 3  # base + two deltas
    assert set(ros.mv.all_index_paths()) == expected
    assert ros.read("/base/b").data == b"beta"
    assert ros.read("/base/c").data == b"gamma"
    from repro.errors import FileNotFoundOLFSError

    with pytest.raises(FileNotFoundOLFSError):
        ros.read("/base/a")  # deletion replayed from the delta


def test_recovery_without_delta_still_uses_full():
    ros = make_ros(auto_burn=False)
    ros.write("/only/full", b"f")
    ros.run(ros.recovery.burn_mv_snapshot())
    wiped(ros)
    applied, _ = ros.recover_mv()
    assert applied == 1
    assert ros.read("/only/full").data == b"f"


def test_change_tracking_cleared_after_checkpoint():
    ros = make_ros(auto_burn=False)
    ros.write("/t/a", b"1")
    assert ros.mv.pending_changes > 0
    ros.run(ros.recovery.burn_mv_snapshot())
    assert ros.mv.pending_changes == 0
    ros.write("/t/b", b"2")
    assert ros.mv.pending_changes > 0


def test_delta_collects_only_changes():
    import json

    ros = make_ros(auto_burn=False)
    for index in range(10):
        ros.write(f"/many/f{index}", b"x")
    ros.run(ros.recovery.burn_mv_snapshot())
    ros.write("/many/f3", b"updated")
    delta = json.loads(ros.mv.collect_delta())
    index_entries = [e for e in delta["entries"] if e["type"] == "index"]
    assert [e["path"] for e in index_entries] == ["/many/f3"]


def test_delta_skips_vanished_entries_but_not_bugs(monkeypatch):
    """Best-effort covers exactly what the tree walk documents — a path
    that is gone, or whose parent became a file — never a bug in it."""
    import json

    ros = make_ros(auto_burn=False)
    ros.write("/v/kept", b"k")
    ros.write("/v/sub/gone", b"g")
    ros.run(ros.recovery.burn_mv_snapshot())
    ros.write("/v/kept", b"k2")
    ros.mv._dirty.update({"/v/sub/vanished", "/v/kept/under-a-file"})
    delta_blob = ros.mv.collect_delta()
    assert [e["path"] for e in json.loads(delta_blob)["entries"]] == ["/v/kept"]

    # Deleting under a parent that no longer exists is skipped the same way.
    delta = json.loads(delta_blob)
    delta["deleted"] = ["/nowhere/x", "/v/kept/x", "/v/sub/gone"]
    ros.mv.apply_delta(json.dumps(delta).encode())
    assert "/v/sub/gone" not in ros.mv.all_index_paths()
    assert "/v/kept" in ros.mv.all_index_paths()

    def broken(*_args, **_kwargs):
        raise RuntimeError("tree walk exploded")

    monkeypatch.setattr(ros.mv, "_find", broken)
    with pytest.raises(RuntimeError, match="tree walk exploded"):
        ros.mv.collect_delta()
    monkeypatch.setattr(ros.mv, "_walk_to", broken)
    with pytest.raises(RuntimeError, match="tree walk exploded"):
        ros.mv.apply_delta(json.dumps(delta).encode())
