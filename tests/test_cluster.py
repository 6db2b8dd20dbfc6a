"""Tests for the multi-rack cluster federation (§2.3 extension)."""

import pytest

from repro import units
from repro.cluster import RackCluster, RackDownError
from repro.errors import FileNotFoundOLFSError, IsADirectoryOLFSError
from repro.olfs.config import OLFSConfig


def make_cluster(rack_count=2, replicas=0):
    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    return RackCluster(
        rack_count=rack_count,
        replicas=replicas,
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
    )


def test_cluster_basic_write_read():
    cluster = make_cluster()
    cluster.write("/data/a.bin", b"alpha")
    assert cluster.read("/data/a.bin").data == b"alpha"


def test_cluster_placement_deterministic():
    cluster = make_cluster(rack_count=4)
    first = cluster.placement("/some/path")
    assert first == cluster.placement("/some/path")


def test_cluster_spreads_paths_across_racks():
    cluster = make_cluster(rack_count=4)
    homes = {cluster.home_rack(f"/p/file-{i}") for i in range(40)}
    assert len(homes) >= 3  # rendezvous hashing spreads the load


def test_cluster_file_lands_on_home_rack_only():
    cluster = make_cluster(rack_count=2, replicas=0)
    cluster.write("/solo/file", b"x")
    home = cluster.home_rack("/solo/file")
    other = 1 - home
    assert cluster.racks[home].read("/solo/file").data == b"x"
    with pytest.raises(FileNotFoundOLFSError):
        cluster.racks[other].read("/solo/file")


def test_cluster_replication_copies_to_second_rack():
    cluster = make_cluster(rack_count=3, replicas=1)
    cluster.write("/rep/file", b"copy-me")
    holders = cluster.placement("/rep/file")
    assert len(holders) == 2
    for index in holders:
        assert cluster.racks[index].read("/rep/file").data == b"copy-me"


def test_cluster_failover_read_from_replica():
    cluster = make_cluster(rack_count=3, replicas=1)
    cluster.write("/ha/file", b"survive")
    home = cluster.home_rack("/ha/file")
    cluster.fail_rack(home)
    assert cluster.read("/ha/file").data == b"survive"


def test_cluster_no_replica_no_failover():
    cluster = make_cluster(rack_count=2, replicas=0)
    cluster.write("/fragile/file", b"gone")
    cluster.fail_rack(cluster.home_rack("/fragile/file"))
    with pytest.raises(RackDownError):
        cluster.read("/fragile/file")


def test_cluster_restore_rack():
    cluster = make_cluster(rack_count=2)
    cluster.write("/back/file", b"again")
    home = cluster.home_rack("/back/file")
    cluster.fail_rack(home)
    cluster.restore_rack(home)
    assert cluster.read("/back/file").data == b"again"


def test_cluster_readdir_merges_racks():
    cluster = make_cluster(rack_count=3)
    names = [f"f{i:02d}" for i in range(12)]
    for name in names:
        cluster.write(f"/merged/{name}", name.encode())
    assert cluster.readdir("/merged") == sorted(names)


def test_cluster_unlink_removes_all_copies():
    cluster = make_cluster(rack_count=3, replicas=1)
    cluster.write("/del/file", b"x")
    cluster.unlink("/del/file")
    with pytest.raises(FileNotFoundOLFSError):
        cluster.read("/del/file")
    for rack in cluster.racks:
        with pytest.raises(FileNotFoundOLFSError):
            rack.read("/del/file")


def test_cluster_unlink_of_a_directory_raises_from_the_rack():
    cluster = make_cluster(rack_count=2, replicas=1)
    cluster.write("/d/a.bin", b"alpha")
    with pytest.raises(IsADirectoryOLFSError):
        cluster.unlink("/d")
    assert cluster.read("/d/a.bin").data == b"alpha"


def test_cluster_flush_and_status_aggregate():
    cluster = make_cluster(rack_count=2)
    for index in range(16):
        cluster.write(f"/bulk/f{index:02d}.bin", bytes([index]) * 20000)
    cluster.flush()
    status = cluster.status()
    assert status["discs_total"] == 2 * 6120
    assert status["arrays_used"] >= 1
    assert status["down"] == []


def test_cluster_shares_one_clock():
    cluster = make_cluster(rack_count=2)
    cluster.write("/t/a", b"1")
    cluster.write("/t/b", b"2")
    # Both racks observe the same engine time.
    assert cluster.racks[0].now == cluster.racks[1].now


def test_cluster_replicas_must_fit():
    with pytest.raises(ValueError):
        make_cluster(rack_count=2, replicas=2)


def test_cluster_survives_rack_loss_with_burned_data():
    cluster = make_cluster(rack_count=3, replicas=1)
    payload = b"durable" * 2000
    cluster.write("/gold/asset.bin", payload)
    cluster.flush()
    home = cluster.home_rack("/gold/asset.bin")
    cluster.fail_rack(home)
    result = cluster.read("/gold/asset.bin")
    assert result.data == payload


# ----------------------------------------------------------------------
# Failover beyond explicitly-down racks (any ROSError triggers it).  A
# rack is broken at ``rack.pi.read_file`` — the one thing the cluster
# calls — and every case reads through both faces of the one
# implementation: the synchronous facade, and ``cluster.pi`` from inside
# a process (the serve path).
# ----------------------------------------------------------------------
def fail_with(error):
    def broken_read(path, version=None):
        raise error(f"{path}: injected")
        yield  # pragma: no cover - makes this a generator

    return broken_read


def read_in_process(cluster, path):
    def proc():
        return (yield from cluster.pi.read_file(path))

    return cluster.engine.run_process(proc())


READ_FORMS = (RackCluster.read, read_in_process)


def test_cluster_read_fails_over_on_rack_error_not_marked_down():
    from repro.errors import TimeoutOLFSError

    cluster = make_cluster(rack_count=3, replicas=1)
    cluster.write("/ha/err.bin", b"still-here")
    home = cluster.home_rack("/ha/err.bin")
    cluster.racks[home].pi.read_file = fail_with(TimeoutOLFSError)
    for read in READ_FORMS:
        # The home rack is NOT marked down — its read just errors — and
        # the replica still answers.
        assert read(cluster, "/ha/err.bin").data == b"still-here"
        assert home not in cluster._down
    # ... and a rack that IS marked down is skipped on both faces too.
    cluster.fail_rack(home)
    for read in READ_FORMS:
        assert read(cluster, "/ha/err.bin").data == b"still-here"


def test_cluster_read_reraises_last_error_when_every_holder_fails():
    from repro.errors import TimeoutOLFSError

    cluster = make_cluster(rack_count=2, replicas=0)
    cluster.write("/ha/solo.bin", b"x")
    home = cluster.home_rack("/ha/solo.bin")
    cluster.racks[home].pi.read_file = fail_with(TimeoutOLFSError)
    for read in READ_FORMS:
        with pytest.raises(TimeoutOLFSError):
            read(cluster, "/ha/solo.bin")


def test_cluster_failover_under_active_fault_injector():
    """Hard-fail every drive the home rack would fetch from; the read
    fails over to the replica's buffered copy."""
    from repro.faults import DRIVE_HARD, FaultPlan
    from repro.faults.injector import FaultInjector

    cluster = make_cluster(rack_count=2, replicas=1)
    payload = b"fault-tolerant" * 500
    cluster.write("/ha/asset.bin", payload)
    cluster.flush()
    home = cluster.home_rack("/ha/asset.bin")
    injector = (
        FaultInjector(cluster.engine, FaultPlan(), seed=1)
        .bind(cluster.racks[home])
        .install()
    )
    # Evict the home rack's cached copy so its read needs the drives.
    image_id = cluster.racks[home].stat("/ha/asset.bin")["locations"][0]
    cluster.racks[home].cache.evict(image_id)
    for drive_set in cluster.racks[home].mech.drive_sets:
        for drive in drive_set.drives:
            injector.inject(
                DRIVE_HARD, target=drive.drive_id, duration=3600.0
            )
    result = cluster.read("/ha/asset.bin")
    assert result.data == payload
    injector.stop()


def test_cluster_all_holders_down_reraises_the_last_error():
    """With several holders all failing, the error surfaced is the LAST
    holder's — the freshest evidence of why the read is impossible — not
    the first, and not a generic RackDownError."""
    from repro.errors import DriveError, TimeoutOLFSError

    cluster = make_cluster(rack_count=3, replicas=1)
    cluster.write("/ha/multi.bin", b"x")
    first, second = cluster.placement("/ha/multi.bin")
    for read in READ_FORMS:
        cluster.racks[first].pi.read_file = fail_with(TimeoutOLFSError)
        cluster.racks[second].pi.read_file = fail_with(DriveError)
        with pytest.raises(DriveError):
            read(cluster, "/ha/multi.bin")
        # Swap the failure order: the surfaced type follows the last
        # holder.
        cluster.racks[first].pi.read_file = fail_with(DriveError)
        cluster.racks[second].pi.read_file = fail_with(TimeoutOLFSError)
        with pytest.raises(TimeoutOLFSError):
            read(cluster, "/ha/multi.bin")


def _paths_homed_on(cluster, rack, count):
    paths = (f"/homed/f{index:03d}.bin" for index in range(1000))
    return [path for path in paths if cluster.home_rack(path) == rack][:count]


def test_a_drive_fault_reaches_only_the_bound_racks_drive():
    """Drive ids repeat across the racks of a cluster: a transient aimed
    at rack 0's ``set0-drive00`` must not trip rack 1's drive of that
    name, and still trips rack 0's once rack 0 burns."""
    from repro.faults import DRIVE_TRANSIENT, FaultPlan
    from repro.faults.injector import FaultInjector
    from repro.olfs.filesystem import small_rack

    cluster = small_rack(RackCluster, rack_count=2, replicas=0)
    injector = (
        FaultInjector(cluster.engine, FaultPlan(), seed=1)
        .bind(cluster.racks[0])
        .install()
    )
    injector.inject(DRIVE_TRANSIENT, target="set0-drive00")
    for path in _paths_homed_on(cluster, 1, 12):
        cluster.write(path, b"r1" * 3000)
    cluster.flush()
    for rack in cluster.racks:
        rack.settle()
    assert cluster.racks[1].btm.health()["completed"] > 0
    assert [entry["event"] for entry in injector.log] == ["arm"]

    for path in _paths_homed_on(cluster, 0, 12):
        cluster.write(path, b"r0" * 3000)
    cluster.flush()
    for rack in cluster.racks:
        rack.settle()
    assert [entry["event"] for entry in injector.log] == ["arm", "trip"]
