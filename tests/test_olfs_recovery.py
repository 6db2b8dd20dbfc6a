"""Recovery and maintenance: MV checkpoints, namespace rebuild, scrubbing."""

import pytest

from repro.media.errors_model import SectorErrorModel
from repro.olfs.mechanical import ArrayState
from repro.sim.rng import DeterministicRNG
from tests.conftest import make_ros, populated


# ----------------------------------------------------------------------
# MV checkpoints (§4.2)
# ----------------------------------------------------------------------
def test_checkpoint_burns_metadata_images():
    ros, _ = populated()
    tasks = ros.checkpoint_mv()
    assert tasks
    metadata = [
        r for r in ros.dim.records.values() if r.image_id.startswith("mv-")
    ]
    assert metadata
    assert all(r.state == "burned" for r in metadata)


def test_recover_mv_after_total_loss():
    ros, payloads = populated()
    ros.checkpoint_mv()
    paths_before = ros.mv.all_index_paths()
    # Catastrophic MV loss.
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    assert ros.mv.all_index_paths() == []
    snapshot_id, discs_read = ros.recover_mv()
    assert snapshot_id == 1
    assert discs_read >= 1
    assert ros.mv.all_index_paths() == paths_before
    # Files are readable again.
    path = next(iter(payloads))
    assert ros.read(path).data == payloads[path]


def test_recover_mv_picks_latest_snapshot():
    ros, _ = populated()
    ros.checkpoint_mv()
    ros.write("/late/addition.bin", b"late")
    ros.flush()
    ros.checkpoint_mv()
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    snapshot_id, _ = ros.recover_mv()
    assert snapshot_id == 2
    assert ros.read("/late/addition.bin").data == b"late"


def test_recover_mv_skips_a_snapshot_missing_a_chunk():
    """A newest snapshot with a chunk on an unreadable array is passed
    over for the newest one read whole."""
    ros = make_ros(data_discs=3, parity_discs=1, auto_burn=False)
    for index in range(600):
        ros.write(f"/big/d{index % 20:02d}/f{index:04d}", b".")
    ros.checkpoint_mv()
    first = ros.mv.all_index_paths()
    ros.write("/big/late", b"late")
    ros.checkpoint_mv()
    holding = [
        key for key, images in ros.mc.array_images.items()
        if "mv-00000008" in images
    ]
    assert len(holding) == 1
    assert "mv-00000005" not in ros.mc.array_images[holding[0]]
    ros.mc.set_state(*holding[0], ArrayState.FAILED)
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    snapshot_id, _ = ros.recover_mv()
    assert snapshot_id == 1
    assert ros.mv.all_index_paths() == first


def test_recovery_takes_mechanical_time():
    ros, _ = populated()
    ros.checkpoint_mv()
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    start = ros.now
    ros.recover_mv()
    # At least one load + unload of the checkpoint array.
    assert ros.now - start > 140


def test_recover_without_checkpoint_fails():
    from repro.errors import FilesystemError

    ros, _ = populated()
    with pytest.raises(FilesystemError):
        ros.recover_mv()


# ----------------------------------------------------------------------
# Full namespace reconstruction (§4.4)
# ----------------------------------------------------------------------
def test_reconstruct_namespace_from_buffered_images():
    ros, payloads = populated()
    before = set(ros.mv.all_index_paths())
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    restored = ros.run(ros.recovery.reconstruct_namespace())
    assert restored > 0
    after = set(ros.mv.all_index_paths())
    # Burned-and-evicted images cannot contribute without a disc scan,
    # but everything content-reachable comes back.
    assert after <= before
    for path in after:
        if path in payloads:
            assert ros.read(path).data == payloads[path]


def test_reconstruct_namespace_with_disc_scan():
    ros, payloads = populated()
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    images = ros.run(ros.recovery.collect_images_from_discs())
    assert images
    restored = ros.run(ros.recovery.reconstruct_namespace(images))
    assert restored > 0
    # Every burned file is recovered with correct content.
    for path in ros.mv.all_index_paths():
        if path in payloads:
            assert ros.read(path).data == payloads[path]


def test_reconstruct_rebuilds_split_files():
    ros = make_ros(bucket_capacity=32 * 1024)
    big = bytes(range(256)) * 250  # 64,000 bytes: spans buckets
    ros.write("/huge/blob.bin", big)
    ros.flush()
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    images = ros.run(ros.recovery.collect_images_from_discs())
    ros.run(ros.recovery.reconstruct_namespace(images))
    index = ros.mv.peek_index("/huge/blob.bin")
    assert len(index.current.locations) >= 2
    assert ros.read("/huge/blob.bin").data == big


def test_reconstruct_recovers_versions_in_order():
    ros = make_ros(update_in_place=False)
    ros.write("/doc.txt", b"first version")
    ros.write("/doc.txt", b"second version")
    ros.flush()
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    images = ros.run(ros.recovery.collect_images_from_discs())
    ros.run(ros.recovery.reconstruct_namespace(images))
    index = ros.mv.peek_index("/doc.txt")
    assert len(index.entries) == 2
    assert ros.read("/doc.txt").data == b"second version"
    assert ros.read("/doc.txt", version=1).data == b"first version"


# ----------------------------------------------------------------------
# Scrubbing and repair (§4.7)
# ----------------------------------------------------------------------
def test_scrub_clean_array_reports_no_errors():
    ros, _ = populated()
    (roller, address) = next(iter(ros.mc.array_images))
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["errors"] == 0
    assert report["checked"] >= 4


def test_scrub_detects_and_repairs_bad_disc():
    ros, payloads = populated()
    (roller, address) = next(iter(ros.mc.array_images))
    images = ros.mc.array_images[(roller, address)]
    victim_image = next(i for i in images if not i.startswith("par-"))
    victim_disc_id = ros.dim.record(victim_image).disc_id
    tray = ros.mech.rollers[roller].tray_at(address)
    victim_disc = next(
        d for d in tray.discs() if d.disc_id == victim_disc_id
    )
    # Corrupt a payload sector of the victim's first track.
    model = SectorErrorModel(DeterministicRNG(1), sector_error_rate=0.0)
    model.corrupt_exact(
        victim_disc, [victim_disc.tracks[0].start_sector + 1]
    )
    report = ros.run(ros.mi.scrub_array(roller, address, model))
    assert report["errors"] == 1
    assert victim_image in report["repaired"]
    # Files of the repaired image are still readable, correct content.
    affected = [
        path
        for path in payloads
        if victim_image in ros.mv.peek_index(path).current.locations
        or True  # every file must remain readable regardless
    ]
    for path in payloads:
        assert ros.read(path).data == payloads[path]


def test_scrub_repair_requeues_burn():
    ros, _ = populated()
    (roller, address) = next(iter(ros.mc.array_images))
    images = ros.mc.array_images[(roller, address)]
    victim_image = next(i for i in images if not i.startswith("par-"))
    victim_disc_id = ros.dim.record(victim_image).disc_id
    tray = ros.mech.rollers[roller].tray_at(address)
    victim_disc = next(d for d in tray.discs() if d.disc_id == victim_disc_id)
    model = SectorErrorModel(DeterministicRNG(1), sector_error_rate=0.0)
    model.corrupt_exact(victim_disc, [victim_disc.tracks[0].start_sector])
    ros.run(ros.mi.scrub_array(roller, address, model))
    # The recovered data sits in fresh buckets awaiting a re-burn.
    assert ros.dim.record(victim_image).state == "lost"
    ros.flush()
    # And the re-burn produced a new used array.
    assert ros.mi.images_repaired == 1


# ----------------------------------------------------------------------
# Status / admin
# ----------------------------------------------------------------------
def test_status_summary_fields():
    ros, _ = populated()
    status = ros.status()
    assert status["discs_total"] == 6120
    assert status["arrays"]["Used"] >= 1
    assert status["mv_index_files"] == 12
    assert status["plc_instructions"] > 0
