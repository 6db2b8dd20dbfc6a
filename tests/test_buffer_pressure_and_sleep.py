"""Buffer-pressure eviction and the drive idle-sleep policy."""

import pytest

from repro import units
from repro.drives.drive import DriveState, SPIN_UP_SECONDS
from repro.errors import NoSpaceOLFSError
from repro.olfs.filesystem import DRIVE_IDLE_SLEEP_SECONDS
from tests.conftest import make_ros


# ----------------------------------------------------------------------
# Buffer pressure (§5.3: the buffer is a cache, not a capacity limit)
# ----------------------------------------------------------------------
def test_writes_keep_flowing_under_buffer_pressure():
    """When the buffer fills with burned cached images, new buckets evict
    them instead of failing."""
    ros = make_ros(
        bucket_capacity=64 * 1024,
        buffer_volume_capacity=800 * 1024,  # room for ~12 buckets
        read_cache_images=64,  # cache would happily keep everything
    )
    # Keep writing well past the raw buffer capacity.
    for index in range(40):
        ros.write(f"/press/f{index:03d}.bin", bytes([index % 250]) * 30000)
        ros.drain_background()
    # Every file still readable (from cache, buffer or disc).
    for index in range(0, 40, 7):
        data = ros.read(f"/press/f{index:03d}.bin").data
        assert data == bytes([index % 250]) * 30000


def test_pressure_without_evictable_images_still_errors():
    ros = make_ros(
        bucket_capacity=64 * 1024,
        buffer_volume_capacity=200 * 1024,  # 3 buckets worth
        auto_burn=False,  # nothing ever burns -> nothing evictable
    )
    with pytest.raises(NoSpaceOLFSError):
        for index in range(20):
            ros.write(f"/stuck/f{index}.bin", b"z" * 40000)


def test_reclaim_frees_lru_first():
    ros = make_ros(read_cache_images=8)
    for index in range(8):
        ros.write(f"/lru/f{index}.bin", b"r" * 30000)
    ros.flush()
    cached_before = list(ros.cache.cached_ids)
    if len(cached_before) < 2:
        pytest.skip("not enough cached images to observe LRU order")
    freed = ros.cache.reclaim(1)  # smallest request: one eviction
    assert freed > 0
    cached_after = ros.cache.cached_ids
    assert cached_before[0] not in cached_after  # LRU victim went first
    assert cached_before[-1] in cached_after


def test_cache_passes_over_an_image_marked_lost():
    """An image marked lost while cached has no content left to evict: an
    admission that reaches it in the LRU, or an explicit evict, drops the
    id and evicts nothing instead of raising."""
    from repro.olfs.cache import ReadCache

    ros = make_ros(read_cache_images=2)
    for index in range(6):
        ros.write(f"/lost/f{index}.bin", b"l" * 30000)
    ros.flush()
    dim = ros.cache.dim
    lost, kept = ros.cache.cached_ids  # two burned images with content
    cache = ReadCache(dim, capacity_images=1)
    cache.put(lost, dim.get_buffered(lost))
    dim.mark_lost(lost)
    cache.put(kept, dim.get_buffered(kept))  # the LRU slot is the lost id
    assert cache.cached_ids == [kept]
    assert cache.evictions == 0
    assert dim.get_buffered(kept) is not None
    evictions = ros.cache.evictions
    ros.cache.evict(lost)
    assert lost not in ros.cache
    assert ros.cache.evictions == evictions


# ----------------------------------------------------------------------
# Drive idle-sleep policy (§5.4 sleep state)
# ----------------------------------------------------------------------
def _drive_with_disc():
    from repro.drives.drive import OpticalDrive
    from repro.media.disc import BD25, OpticalDisc
    from repro.sim import Delay, Engine

    engine = Engine()
    drive = OpticalDrive(engine, "d0")
    drive.open_tray()
    disc = OpticalDisc("x", BD25)
    disc.burn_track(b"img-bytes", label="img")
    drive.insert_disc(disc)
    drive.close_tray()
    return engine, drive


def test_drive_sleeps_after_idle_threshold():
    from repro.sim import Delay

    engine, drive = _drive_with_disc()
    drive.idle_sleep_seconds = 60.0
    engine.run_process(drive.mount())
    assert drive.state is DriveState.MOUNTED

    def wait_then_access():
        yield Delay(120.0)
        start = engine.now
        yield from drive.mount()
        return engine.now - start

    elapsed = engine.run_process(wait_then_access())
    # The idle drive slept: spin-up + re-mount both charged.
    assert elapsed == pytest.approx(SPIN_UP_SECONDS + 0.220, abs=0.01)


def test_drive_stays_awake_within_threshold():
    from repro.sim import Delay

    engine, drive = _drive_with_disc()
    drive.idle_sleep_seconds = 60.0
    engine.run_process(drive.mount())

    def quick_return():
        yield Delay(30.0)
        start = engine.now
        yield from drive.mount()
        return engine.now - start

    assert engine.run_process(quick_return()) == 0.0


def test_no_policy_never_sleeps():
    from repro.sim import Delay

    engine, drive = _drive_with_disc()
    drive.idle_sleep_seconds = None
    engine.run_process(drive.mount())

    def long_wait():
        yield Delay(10_000.0)
        start = engine.now
        yield from drive.mount()
        return engine.now - start

    assert engine.run_process(long_wait()) == 0.0


def test_olfs_applies_sleep_policy_to_all_drives():
    ros = make_ros()
    assert DRIVE_IDLE_SLEEP_SECONDS == 300.0
    for drive_set in ros.mech.drive_sets:
        for drive in drive_set.drives:
            assert drive.idle_sleep_seconds == DRIVE_IDLE_SLEEP_SECONDS


def test_end_to_end_sleepy_drive_read_pays_spinup():
    """A disc left in the drives for a long idle stretch answers the
    next read at sleep-state cost (~2.3 s) instead of ~0.2 s."""
    ros = make_ros()
    ros.write("/nap/file.bin", b"n" * 20000)
    ros.flush()
    image_id = ros.stat("/nap/file.bin")["locations"][0]
    ros.cache.evict(image_id)
    ros.read("/nap/file.bin")  # loads the array into the drives
    ros.drain_background()
    ros.cache.evict(image_id)
    ros.engine.run(until=ros.now + 3600)  # a long idle hour
    result = ros.read("/nap/file.bin")
    assert result.source == "drive"
    assert result.total_seconds == pytest.approx(2.23, abs=0.2)
