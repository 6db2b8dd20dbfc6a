"""Tiered-storage behaviour: burning, fetching, caching, read policies."""

import pytest

from repro.olfs.forepart import FOREPART_BYTES
from repro.olfs.images import BURNED
from repro.olfs.mechanical import ArrayState
from tests.conftest import fill_and_burn, make_ros


# ----------------------------------------------------------------------
# Burning
# ----------------------------------------------------------------------
def test_auto_burn_triggers_on_full_array(ros):
    fill_and_burn(ros)
    assert len(ros.btm.completed_tasks) >= 1
    assert ros.status()["arrays"]["Used"] >= 1


def test_burned_array_has_parity_disc(ros):
    fill_and_burn(ros)
    (key, images) = next(iter(ros.mc.array_images.items()))
    assert sum(1 for image_id in images if image_id.startswith("par-")) == 1
    assert len(images) == 4  # 3 data + 1 parity


def test_raid6_schema_two_parity_discs():
    ros = make_ros(data_discs=3, parity_discs=2)
    fill_and_burn(ros)
    (key, images) = next(iter(ros.mc.array_images.items()))
    assert sum(1 for image_id in images if image_id.startswith("par-")) == 2


def test_burn_marks_daindex_used(ros):
    fill_and_burn(ros)
    counts = ros.mc.counts()
    assert counts["Used"] >= 1
    assert counts["Empty"] == 510 - counts["Used"]


def test_burned_discs_are_write_once(ros):
    fill_and_burn(ros)
    (roller, address) = next(iter(ros.mc.array_images))
    tray = ros.mech.rollers[roller].tray_at(address)
    from repro.media.disc import DiscStatus

    burned = [d for d in tray.discs() if d.status is DiscStatus.CLOSED]
    assert len(burned) == 4


def test_burn_time_reflects_disc_speed(ros):
    """Burning happens at optical speeds: a 64 KB image on a 25 GB-class
    curve is fast, but mechanical load/unload dominates (minutes)."""
    before = ros.now
    fill_and_burn(ros)
    elapsed = ros.now - before
    # load (~69) + burn + unload (~82) at minimum for one array
    assert elapsed > 150


def test_flush_burns_partial_array(ros):
    ros.write("/only/file.bin", b"x" * 10000)
    tasks = ros.flush()
    assert tasks == 1
    assert any(r.state == BURNED for r in ros.dim.records.values())


def test_no_auto_burn_when_disabled():
    ros = make_ros(auto_burn=False)
    for index in range(12):
        ros.write(f"/d/f{index}.bin", b"y" * 30000)
    assert not ros.btm.active_tasks
    assert not ros.btm.completed_tasks


# ----------------------------------------------------------------------
# Read tiers (Table 1 behaviour)
# ----------------------------------------------------------------------
def test_read_from_bucket_fast(ros):
    ros.write("/hot.bin", b"hot data")
    result = ros.read("/hot.bin")
    assert result.source == "bucket"
    assert result.total_seconds < 0.05


def test_read_from_buffer_after_burn(ros):
    payloads = fill_and_burn(ros)
    # Find a file whose burned image is still cached on the buffer.
    path = next(
        p
        for p in payloads
        if ros.dim.record(ros.stat(p)["locations"][0]).image is not None
    )
    result = ros.read(path)
    assert result.source in ("bucket", "buffer")
    assert result.data == payloads[path]


def test_cold_read_fetches_from_roller(ros):
    payloads = fill_and_burn(ros)
    path = next(
        p
        for p in payloads
        if ros.dim.record(ros.stat(p)["locations"][0]).state == "burned"
    )
    image_id = ros.stat(path)["locations"][0]
    ros.cache.evict(image_id)
    result = ros.read(path)
    assert result.source == "roller"
    assert result.data == payloads[path]
    assert 60 < result.total_seconds < 180


def test_cache_fill_makes_second_read_fast(ros):
    payloads = fill_and_burn(ros)
    path = "/data/f00.bin"
    image_id = ros.stat(path)["locations"][0]
    if ros.dim.record(image_id).state != "burned":
        pytest.skip("file landed in a bucket that never burned")
    ros.cache.evict(image_id)
    first = ros.read(path)
    ros.drain_background()  # let the cache fill finish
    second = ros.read(path)
    assert second.source in ("buffer", "drive")
    assert second.total_seconds < 1.0


def test_read_disc_still_in_drive(ros):
    """Second read of a sibling file while the array is still loaded."""
    payloads = fill_and_burn(ros)
    # Force a cold fetch of one image, then read another file in the
    # same image while the disc sits in the drive.
    path = "/data/f00.bin"
    image_id = ros.stat(path)["locations"][0]
    if ros.dim.record(image_id).state != "burned":
        pytest.skip("image not burned")
    ros.cache.evict(image_id)
    ros.read(path)
    ros.drain_background()
    ros.cache.evict(image_id)
    result = ros.read(path)
    assert result.source == "drive"
    assert result.total_seconds < 5.0


# ----------------------------------------------------------------------
# Read cache
# ----------------------------------------------------------------------
def test_read_cache_lru_eviction(ros):
    fill_and_burn(ros, files=16)
    assert len(ros.cache.cached_ids) <= ros.config.read_cache_images


def test_cache_stats_track_hits(ros):
    fill_and_burn(ros)
    stats_before = ros.cache.stats()
    # A burned image read served from cache counts a hit.
    for path in ("/data/f00.bin", "/data/f01.bin"):
        image_id = ros.stat(path)["locations"][0]
        if image_id in ros.cache:
            ros.read(path)
    stats_after = ros.cache.stats()
    assert stats_after["hits"] >= stats_before["hits"]


# ----------------------------------------------------------------------
# Forepart (§4.8)
# ----------------------------------------------------------------------
def test_forepart_first_byte_fast_on_cold_read(ros):
    payloads = fill_and_burn(ros)
    path = "/data/f02.bin"
    image_id = ros.stat(path)["locations"][0]
    if ros.dim.record(image_id).state != "burned":
        pytest.skip("image not burned")
    ros.cache.evict(image_id)
    result = ros.read(path)
    assert result.used_forepart
    assert result.first_byte_seconds < 0.01
    assert result.total_seconds > 60


def test_no_forepart_when_disabled():
    ros = make_ros(forepart_enabled=False)
    payloads = fill_and_burn(ros)
    path = "/data/f02.bin"
    image_id = ros.stat(path)["locations"][0]
    if ros.dim.record(image_id).state != "burned":
        pytest.skip("image not burned")
    ros.cache.evict(image_id)
    result = ros.read(path)
    assert not result.used_forepart
    assert result.first_byte_seconds > 60


def test_forepart_bridges_fetch_for_small_files(ros):
    """A 30 KB file fits in the forepart: the trickle covers the fetch."""
    plan = ros.foreparts.plan(
        forepart=b"x" * 30000,
        mv_lookup_seconds=0.0005,
        fetch_seconds=70.0,
    )
    # 30 KB at 128 KB/s drains in ~0.23 s < 70 s: does NOT bridge.
    assert not plan.bridges_fetch
    plan_big = ros.foreparts.plan(
        forepart=b"x" * FOREPART_BYTES,
        mv_lookup_seconds=0.0005,
        fetch_seconds=1.5,
    )
    assert plan_big.bridges_fetch


# ----------------------------------------------------------------------
# Busy-drive policies (§4.8)
# ----------------------------------------------------------------------
def _burning_setup(policy):
    """A rack whose only drive set is mid-burn when a read lands.

    The new files carry declared logical sizes (~12 MB) so each disc
    burns for a measurable stretch of simulated time.
    """
    ros = make_ros(
        data_discs=3,
        parity_discs=1,
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy=policy,
        forepart_enabled=False,
    )
    # One burned array to read back later.
    for index in range(4):
        ros.write(f"/old/f{index}.bin", b"o" * 400_000)
    ros.flush()
    target = "/old/f0.bin"
    image_id = ros.stat(target)["locations"][0]
    ros.cache.evict(image_id)
    # Queue a second burn of four ~12 MB (declared) images.
    for index in range(4):
        ros.write(
            f"/new/f{index}.bin",
            b"n" * 400_000,
            logical_size=12 * 1024 * 1024,
        )
    ros.wbm.close_nonempty_buckets()
    tasks = ros.btm.flush_pending()
    tasks += [t for t in ros.btm.active_tasks if t not in tasks]
    # Advance until some drive is actively burning.
    deadline = ros.now + 900
    while (
        not any(ds.is_burning for ds in ros.mech.drive_sets)
        and ros.now < deadline
    ):
        ros.engine.run(until=ros.now + 0.05)
    assert any(ds.is_burning for ds in ros.mech.drive_sets)
    return ros, target, tasks


def test_wait_policy_read_queues_behind_burn():
    ros, target, tasks = _burning_setup("wait")
    start = ros.now
    result = ros.read(target)
    assert result.data == b"o" * 400_000
    # The read had to wait for the whole burn + unload + swap.
    assert result.total_seconds > 150


def test_interrupt_policy_read_preempts_burn():
    ros, target, tasks = _burning_setup("interrupt")
    result = ros.read(target)
    assert result.data == b"o" * 400_000
    interrupted = [t for t in tasks if t.interruptions > 0]
    assert interrupted, "expected the burn to be interrupted"


def test_interrupted_burn_resumes_and_completes():
    ros, target, tasks = _burning_setup("interrupt")
    ros.read(target)
    ros.drain_background()
    for task in tasks:
        assert task.state == "done"
    # Every image of the interrupted array is fully burned and readable.
    for index in range(4):
        path = f"/new/f{index}.bin"
        image_id = ros.stat(path)["locations"][0]
        assert ros.dim.record(image_id).state == "burned"
        ros.cache.evict(image_id)
        assert ros.read(path).data == b"n" * 400_000


def test_interrupted_discs_carry_pow_tracks():
    ros, target, tasks = _burning_setup("interrupt")
    ros.read(target)
    ros.drain_background()
    task = next(t for t in tasks if t.interruptions > 0)
    roller, address = task.tray
    tray = ros.mech.rollers[roller].tray_at(address)
    labels = [
        track.label for disc in tray.discs() for track in disc.tracks
    ]
    assert any(label.endswith(".partial") for label in labels)
    assert any(label.endswith(".rest") for label in labels)
