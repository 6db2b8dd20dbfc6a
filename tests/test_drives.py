"""Tests for the optical drive state machine and drive sets (Table 2)."""

import pytest

from repro import units
from repro.drives import DriveSet, DriveState, OpticalDrive
from repro.drives.drive import (
    FILE_SEEK_SECONDS,
    SPIN_UP_SECONDS,
    VFS_MOUNT_SECONDS,
)
from repro.errors import DriveError
from repro.faults import DRIVE_HARD, FaultInjector, FaultPlan
from repro.media.disc import BD25, BD100, OpticalDisc
from repro.sim import Engine


def loaded_drive(engine, disc_type=BD25, disc_id="d0"):
    drive = OpticalDrive(engine, "drv0")
    drive.open_tray()
    drive.insert_disc(OpticalDisc(disc_id, disc_type))
    drive.close_tray()
    return drive


# ----------------------------------------------------------------------
# State machine
# ----------------------------------------------------------------------
def test_fresh_drive_is_empty():
    assert OpticalDrive(Engine(), "d").state is DriveState.EMPTY


def test_insert_requires_open_tray():
    drive = OpticalDrive(Engine(), "d")
    with pytest.raises(DriveError):
        drive.insert_disc(OpticalDisc("x"))


def test_load_cycle_ends_sleeping():
    drive = loaded_drive(Engine())
    assert drive.state is DriveState.SLEEPING
    assert drive.has_disc


def test_double_insert_rejected():
    drive = loaded_drive(Engine())
    drive.open_tray()
    with pytest.raises(DriveError):
        drive.insert_disc(OpticalDisc("y"))


def test_remove_disc_roundtrip():
    drive_set = DriveSet(Engine(), 0)
    drive = drive_set.drives[0]
    drive.open_tray()
    drive.insert_disc(OpticalDisc("d0", BD25))
    drive.close_tray()
    disc = drive_set.take_disc(drive)
    assert disc.disc_id == "d0"
    assert drive.state is DriveState.EMPTY and not drive.has_disc


def test_spin_up_takes_two_seconds():
    engine = Engine()
    drive = loaded_drive(engine)

    def proc():
        yield from drive.ensure_spinning()
        return engine.now

    assert engine.run_process(proc()) == pytest.approx(SPIN_UP_SECONDS)
    assert drive.state is DriveState.IDLE


def test_spin_up_noop_when_awake():
    engine = Engine()
    drive = loaded_drive(engine)
    engine.run_process(drive.ensure_spinning())

    def proc():
        start = engine.now
        yield from drive.ensure_spinning()
        return engine.now - start

    assert engine.run_process(proc()) == 0.0


def test_mount_from_sleep_costs_spinup_plus_mount():
    engine = Engine()
    drive = loaded_drive(engine)
    engine.run_process(drive.mount())
    assert engine.now == pytest.approx(SPIN_UP_SECONDS + VFS_MOUNT_SECONDS)
    assert drive.state is DriveState.MOUNTED


def test_read_rate_matches_media():
    engine = Engine()
    drive = loaded_drive(engine, BD25)
    assert drive.read_rate() == pytest.approx(24.1 * units.MB)
    drive2 = loaded_drive(engine, BD100, "d1")
    assert drive2.read_rate() == pytest.approx(18.0 * units.MB)


def test_read_bytes_timing():
    engine = Engine()
    drive = loaded_drive(engine)
    engine.run_process(drive.mount())
    start = engine.now

    def proc():
        yield from drive.read_bytes(241 * units.MB)

    engine.run_process(proc())
    assert engine.now - start == pytest.approx(10.0)


def test_read_requires_mount():
    engine = Engine()
    drive = loaded_drive(engine)

    def proc():
        yield from drive.read_bytes(100)

    with pytest.raises(DriveError):
        engine.run_process(proc())


def test_seek_timing():
    engine = Engine()
    drive = loaded_drive(engine)
    engine.run_process(drive.seek())
    assert engine.now == pytest.approx(FILE_SEEK_SECONDS)


# ----------------------------------------------------------------------
# Burning
# ----------------------------------------------------------------------
def test_burn_small_payload_records_track():
    engine = Engine()
    drive = loaded_drive(engine)

    def proc():
        result = yield from drive.burn(b"image-bytes", label="img-1")
        return result

    result = engine.run_process(proc())
    assert result.completed
    assert drive.disc.find_track("img-1").payload == b"image-bytes"


def test_burn_full_25gb_disc_takes_675s():
    engine = Engine()
    drive = loaded_drive(engine)

    def proc():
        result = yield from drive.burn(
            b"x", logical_size=24_999 * units.MB, label="full"
        )
        return result

    result = engine.run_process(proc())
    # Includes the 2 s spin-up from sleep.
    assert result.elapsed_seconds == pytest.approx(675.0, rel=0.02)


def test_burn_read_back_roundtrip():
    engine = Engine()
    drive = loaded_drive(engine)

    def proc():
        yield from drive.burn(b"archive data", label="t")
        yield from drive.mount()
        payload = yield from drive.read_track_payload(0)
        return payload

    assert engine.run_process(proc()) == b"archive data"


def test_burn_while_busy_rejected():
    engine = Engine()
    drive = loaded_drive(engine)
    from repro.sim import Join

    def burner():
        yield from drive.burn(b"a" * 1024, logical_size=units.GB, label="one")

    def main():
        proc = engine.spawn(burner())
        from repro.sim import Delay

        yield Delay(5)
        try:
            yield from drive.burn(b"b", label="two")
        except DriveError:
            yield Join(proc)
            return "rejected"
        return "allowed"

    assert engine.run_process(main()) == "rejected"


def test_burn_interrupt_commits_partial_pow_track():
    engine = Engine()
    drive = loaded_drive(engine)
    from repro.sim import Delay, Join

    def burner():
        result = yield from drive.burn(
            b"q" * 10000, logical_size=10 * units.GB, label="img"
        )
        return result

    def main():
        proc = engine.spawn(burner())
        yield Delay(100)
        drive.request_interrupt()
        result = yield Join(proc)
        return result

    result = engine.run_process(main())
    assert not result.completed
    assert 0 < result.burned_bytes < 10 * units.GB
    partial = drive.disc.find_track("img.partial")
    assert partial is not None
    assert drive.disc.status.value == "open"  # POW-appendable


def test_interrupt_idle_drive_rejected():
    engine = Engine()
    drive = loaded_drive(engine)
    with pytest.raises(DriveError):
        drive.request_interrupt()


# ----------------------------------------------------------------------
# Drive sets (Table 2)
# ----------------------------------------------------------------------
def make_set(engine, disc_type=BD25, track_bytes=None):
    drive_set = DriveSet(engine, 0)
    for index, drive in enumerate(drive_set.drives):
        disc = OpticalDisc(f"disc-{index}", disc_type)
        size = track_bytes or disc_type.capacity - units.GB
        disc.burn_track(b"D" * 1024, logical_size=size, label=f"img-{index}")
        drive.open_tray()
        drive.insert_disc(disc)
        drive.close_tray()
    return drive_set


def test_aggregate_read_speed_bd25_matches_table2():
    """Table 2: aggregate 12-drive read of 25 GB discs = 282.5 MB/s."""
    engine = Engine()
    drive_set = make_set(engine, BD25, track_bytes=24 * units.GB)

    def proc():
        payloads = yield from drive_set.read_all_tracks()
        return payloads

    payloads = engine.run_process(proc())
    assert len(payloads) == 12
    total_bytes = 12 * 24 * units.GB
    aggregate = total_bytes / engine.now / units.MB
    assert aggregate == pytest.approx(282.5, rel=0.03)


def test_aggregate_read_speed_bd100_matches_table2():
    """Table 2: aggregate 12-drive read of 100 GB discs = 210.2 MB/s."""
    engine = Engine()
    drive_set = make_set(engine, BD100, track_bytes=99 * units.GB)

    def proc():
        yield from drive_set.read_all_tracks()

    engine.run_process(proc())
    aggregate = 12 * 99 * units.GB / engine.now / units.MB
    assert aggregate == pytest.approx(210.2, rel=0.03)


def test_single_read_full_efficiency():
    engine = Engine()
    drive_set = DriveSet(engine, 0)
    drive = drive_set.drives[0]
    disc = OpticalDisc("solo", BD25)
    disc.burn_track(b"x", logical_size=units.GB, label="img")
    drive.open_tray()
    drive.insert_disc(disc)
    drive.close_tray()

    def proc():
        yield from drive_set.read_all_tracks()

    engine.run_process(proc())
    # single reader keeps the full 24.1 MB/s; the first seek after a
    # mount is free (head already positioned)
    expected = units.GB / (24.1 * units.MB) + SPIN_UP_SECONDS
    expected += VFS_MOUNT_SECONDS
    assert engine.now == pytest.approx(expected, rel=0.01)


def test_burn_array_staggers_starts():
    engine = Engine()
    drive_set = make_blank_set(engine)
    images = [(b"payload", 50 * units.MB, f"img-{i}") for i in range(12)]

    def proc():
        results = yield from drive_set.burn_array(images, stagger_seconds=10)
        return results

    results = engine.run_process(proc())
    assert all(result.completed for result in results)
    # Last drive started at 110 s; small burns finish quickly after.
    assert engine.now > 110


def load_blanks(drive_set, prefix="blank"):
    for index, drive in enumerate(drive_set.drives):
        drive.open_tray()
        drive.insert_disc(OpticalDisc(f"{prefix}-{index}", BD25))
        drive.close_tray()


def make_blank_set(engine):
    drive_set = DriveSet(engine, 0)
    load_blanks(drive_set)
    return drive_set


def test_failed_burn_array_leaves_no_straggler_for_the_next_array():
    """AllOf fails fast: when drive 0's burn raises, drives still in their
    stagger must not wake later and burn onto the *next* array's discs
    (chaos seed 42: a stale parity disc inside the following array)."""
    engine = Engine()
    plan = FaultPlan()
    plan.add(DRIVE_HARD, at=0.0, target="set0-drive00")
    FaultInjector(engine, plan, seed=1).install().start()
    drive_set = make_blank_set(engine)
    images = [(b"payload", 50 * units.MB, f"img-{i}") for i in range(4)]
    stagger = 10.0

    def proc():
        yield from drive_set.burn_array(images, stagger_seconds=stagger)

    with pytest.raises(DriveError):
        engine.run_process(proc())
    assert engine.now < stagger  # drives 1-3 had not started
    for drive in drive_set.drives:  # the arm collects the array
        drive_set.take_disc(drive)
    load_blanks(drive_set, prefix="next")
    engine.run(until=engine.now + 3 * stagger + 60)
    assert [d.disc.disc_id for d in drive_set.drives if d.disc.tracks] == []


def test_burn_array_requires_discs():
    engine = Engine()
    drive_set = DriveSet(engine, 0)

    def proc():
        yield from drive_set.burn_array([(b"x", None, "img")])

    with pytest.raises(DriveError):
        engine.run_process(proc())


def test_burn_throttle_factor(monkeypatch):
    from repro.drives import BurnThrottle, drive_set

    monkeypatch.setattr(drive_set, "BURN_CAP", 100.0)
    throttle = BurnThrottle()
    throttle.update("a", 60.0)
    assert throttle.factor() == 1.0
    throttle.update("b", 60.0)
    assert throttle.factor() == pytest.approx(100.0 / 120.0)
    throttle.remove("a")
    assert throttle.factor() == 1.0


def test_find_disc_in_set():
    engine = Engine()
    drive_set = make_blank_set(engine)
    assert drive_set.find_disc("blank-3") is drive_set.drives[3]
    assert drive_set.find_disc("nope") is None
