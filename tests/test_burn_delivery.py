"""Faults and interrupts are *delivered* to a burn, not polled for.

A burn sleeps once per stretch in which nothing can change its rate and is
woken at the instant something concerns it.  These tests pin what that
buys — exact trip and stop times, where the laser actually was, a handful
of engine events per burn — and what it must not move: the duration of an
unthrottled burn and every bit of the throttled (Figure 9) timeline.
"""

import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.drives import DriveSet, OpticalDrive
from repro.drives.drive import SPIN_UP_SECONDS, nap, wake
from repro.drives.speed import curve_for
from repro.errors import DriveError, MediaError
from repro.faults import (
    DRIVE_HARD,
    DRIVE_TRANSIENT,
    FaultInjector,
    FaultSpec,
)
from repro.media.disc import BD25, BD100, OpticalDisc
from repro.sim import Delay, Engine, Join
from repro.sim.engine import NULL_FAULTS
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage

IMAGE_25GB = 24_990 * units.MB


def loaded_drive(engine, disc_type=BD25, disc_id="disc-0", drive_id="drv0"):
    drive = OpticalDrive(engine, drive_id)
    drive.open_tray()
    drive.insert_disc(OpticalDisc(disc_id, disc_type))
    drive.close_tray()
    return drive


def blank_set(engine, count=12):
    drive_set = DriveSet(engine, 0)
    for index, drive in enumerate(drive_set.drives[:count]):
        drive.open_tray()
        drive.insert_disc(OpticalDisc(f"blank-{index}", BD25))
        drive.close_tray()
    return drive_set


def table_of(drive, size):
    """The rows the drive's next burn of ``size`` bytes will follow
    (derived independently of the drive, as its burn did at the parent)."""
    disc = drive.disc
    seed = zlib.crc32(disc.disc_id.encode()) & 0xFFFF
    return curve_for(disc.disc_type, seed=seed).burn_table(
        size, disc.used_bytes / disc.capacity
    )


def bytes_at(table, seconds_in):
    """Reference integral: bytes burned ``seconds_in`` into ``table``
    (cumulative row seconds, linear inside a row)."""
    burned = 0.0
    clock = 0.0
    for _rate, seconds, nbytes, _end in table:
        if seconds_in <= clock + seconds:
            return burned + nbytes * (seconds_in - clock) / seconds
        clock += seconds
        burned += nbytes
    return burned


def at(engine, when, action):
    def process():
        yield Delay(when - engine.now)
        action()

    engine.spawn(process())


# ----------------------------------------------------------------------
# (1) exact trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,duration", [(DRIVE_TRANSIENT, 0.0), (DRIVE_HARD, 30.0)]
)
def test_fault_armed_mid_burn_trips_at_that_instant(kind, duration):
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive = loaded_drive(engine)
    table = table_of(drive, IMAGE_25GB)
    at(engine, 100.0, lambda: injector.inject(
        kind, target=drive.drive_id, duration=duration
    ))
    with pytest.raises(DriveError) as error:
        engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    # the parent tripped at the next 1/120 boundary, 5.6 s of burn apart
    assert engine.now == 100.0
    written = bytes_at(table, 100.0 - SPIN_UP_SECONDS)
    progress = written / drive.disc.capacity
    assert f"write error at {progress:.0%}" in str(error.value)
    assert 0.08 < progress < 0.10
    assert not drive.is_busy and not drive.disc.tracks


def test_oneshot_armed_on_an_idle_drive_trips_the_next_burn_once():
    """The rule for "armed before the burn starts": the next burn trips at
    its first instant (the laser has written nothing), and only that one —
    the drive that trips a one-shot consumes it."""
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive = loaded_drive(engine)
    injector.inject(DRIVE_TRANSIENT, target=drive.drive_id)
    with pytest.raises(DriveError, match="write error at 0%"):
        engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    assert engine.now == SPIN_UP_SECONDS
    assert not drive.disc.tracks
    result = engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    assert result.completed
    trips = [e for e in injector.log if e["event"] == "trip"]
    assert len(trips) == 1 and injector.health()["oneshots_armed"] == 0


def test_fault_armed_at_the_instant_a_burn_completes_still_trips():
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive = loaded_drive(engine)
    size = 50 * units.MB
    done_at = SPIN_UP_SECONDS + math.fsum(
        row[1] for row in table_of(drive, size)
    )
    # spawned first, so the fault is armed before the burn's own wake-up
    at(engine, done_at, lambda: injector.inject(
        DRIVE_TRANSIENT, target=drive.drive_id
    ))
    with pytest.raises(DriveError, match="write error at"):
        engine.run_process(drive.burn(b"x", logical_size=size))
    assert engine.now == pytest.approx(done_at, abs=1e-9)


# ----------------------------------------------------------------------
# (2) exact stop: the partial track is where the laser was
# ----------------------------------------------------------------------
def make_image(image_id, logical_size):
    fs = UDFFileSystem(logical_size, label=image_id)
    for index in range(5):
        fs.write_file(f"/dir/file-{index}.bin", bytes([65 + index]) * 700)
    fs.close()
    return DiscImage(image_id, filesystem=fs, logical_size=logical_size)


def test_interrupt_stops_the_burn_at_that_instant():
    engine = Engine()
    drive = loaded_drive(engine)
    table = table_of(drive, IMAGE_25GB)
    at(engine, 100.0, drive.request_interrupt)
    result = engine.run_process(
        drive.burn(b"q" * 1000, logical_size=IMAGE_25GB, label="img")
    )
    assert engine.now == 100.0 and not result.completed
    assert result.burned_bytes == pytest.approx(
        bytes_at(table, 100.0 - SPIN_UP_SECONDS), rel=1e-9
    )
    partial = drive.disc.find_track("img.partial")
    assert partial is not None and drive.disc.status.value == "open"
    assert partial.logical_size == int(result.burned_bytes)
    fraction = result.burned_bytes / IMAGE_25GB
    assert len(partial.payload) == int(1000 * fraction)


@settings(max_examples=40, deadline=None)
@given(
    disc_type=st.sampled_from((BD25, BD100)),
    fill=st.floats(0.0, 0.6),
    size_gb=st.integers(1, 8),
    stop=st.floats(0.001, 0.999),
)
def test_stopped_burn_plus_rest_round_trips(disc_type, fill, size_gb, stop):
    engine = Engine()
    drive = loaded_drive(engine, disc_type, disc_id="disc-77")
    if fill:
        drive.disc.burn_track(
            b"", logical_size=int(fill * disc_type.capacity),
            label="earlier", close=False,
        )
    size = size_gb * units.GB
    image = make_image("img-7", size)
    payload = image.serialize()
    table = table_of(drive, size)
    stop_in = stop * sum(row[1] for row in table)

    def burn_then_stop():
        burner = engine.spawn(
            drive.burn(payload, logical_size=size, label="img-7", close=False)
        )
        yield Delay(SPIN_UP_SECONDS + stop_in)
        drive.request_interrupt()
        return (yield Join(burner))

    result = engine.run_process(burn_then_stop())
    assert not result.completed
    assert engine.now == pytest.approx(SPIN_UP_SECONDS + stop_in, abs=1e-9)
    assert result.burned_bytes == pytest.approx(
        bytes_at(table, stop_in), rel=1e-9
    )
    partial = drive.disc.find_track("img-7.partial")
    assert partial.payload == payload[: len(partial.payload)]
    rest = engine.run_process(
        drive.burn(
            payload[len(partial.payload):],
            logical_size=size - int(result.burned_bytes),
            label="img-7.rest",
        )
    )
    assert rest.completed
    on_disc = drive.disc.image("img-7")
    assert on_disc.logical_size == size
    fetched = DiscImage.deserialize(on_disc.read())
    assert fetched.serialize() == payload


def test_a_disc_holding_only_a_cut_header_does_not_reassemble_silently():
    """The .partial of a burn stopped inside the image header is not an
    image yet: reading it raises a media error (which every ROSError
    handler sees) instead of returning a wrong image."""
    disc = OpticalDisc("d", BD25)
    payload = make_image("img-1", units.GB).serialize()
    disc.burn_track(payload[:40], logical_size=units.MB,
                    label="img-1.partial", close=False)
    blob = disc.image("img-1").read()
    with pytest.raises(MediaError):
        DiscImage.deserialize(blob)
    with pytest.raises(MediaError):
        DiscImage.peek_header(blob)


# ----------------------------------------------------------------------
# (3) event count
# ----------------------------------------------------------------------
def test_fault_free_unthrottled_burn_is_a_handful_of_events():
    engine = Engine()
    drive = loaded_drive(engine)
    before = engine.events_issued
    engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    # spawn, spin-up, one sleep for the whole burn (the parent: 122)
    assert engine.events_issued - before <= 4


def test_staggered_array_burn_of_four_images_is_a_few_dozen_events():
    engine = Engine()
    drive_set = blank_set(engine)
    images = [(b"x", 512 * 1024, f"img-{i}") for i in range(4)]
    before = engine.events_issued
    results = engine.run_process(drive_set.burn_array(images))
    assert all(result.completed for result in results)
    assert engine.events_issued - before <= 40  # the parent: 545


# ----------------------------------------------------------------------
# (4) spurious wakes
# ----------------------------------------------------------------------
def test_any_target_oneshot_is_consumed_by_one_drive_only():
    """Both burning drives are woken; the first to look trips, the sibling
    finds nothing, goes back to sleep and ends when it would have."""
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive_set = blank_set(engine, count=2)
    size = 2 * units.GB
    undisturbed = SPIN_UP_SECONDS + sum(
        row[1] for row in table_of(drive_set.drives[1], size)
    )
    images = [(b"x", size, f"img-{i}") for i in range(2)]
    at(engine, 20.0, lambda: injector._arm_oneshot(
        "drive.burn", "", FaultSpec(DRIVE_TRANSIENT, at=20.0)
    ))
    with pytest.raises(DriveError, match="set0-drive00"):
        engine.run_process(drive_set.burn_array(images, stagger_seconds=0.0))
    # burn_array waited for the survivor, whose end time did not move
    assert engine.now == pytest.approx(undisturbed, abs=1e-9)
    assert drive_set.drives[1].disc.find_track("img-1") is not None
    assert [e["event"] for e in injector.log] == ["trip"]


def test_waking_a_burn_that_is_already_runnable_is_harmless():
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive = loaded_drive(engine)

    def twice():
        # the second arm finds the burn process already scheduled to run
        injector.inject(DRIVE_TRANSIENT, target=drive.drive_id)
        injector.inject(DRIVE_TRANSIENT, target=drive.drive_id)

    at(engine, 100.0, twice)
    with pytest.raises(DriveError):
        engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    assert engine.now == 100.0
    assert injector.health()["oneshots_armed"] == 1

    # and so is a second stop request in the same instant
    def stop_twice():
        drive.request_interrupt()
        drive.request_interrupt()

    engine = Engine()
    drive = loaded_drive(engine)
    at(engine, 50.0, stop_twice)
    result = engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    assert engine.now == 50.0 and not result.completed


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=IMAGE_25GB),
    begin=st.floats(min_value=0.0, max_value=5000.0),
    wakes=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=3),
)
def test_spurious_wakes_leave_the_end_time_bit_equal(size, begin, wakes):
    """Wherever a burn is woken for nothing, it ends on the double it
    would have ended on (early in a run ``due - now`` is a rounded
    difference, so ``now + (due - now)`` need not be ``due``)."""

    def run(wake_fractions):
        engine = Engine()
        drive = loaded_drive(engine)
        length = sum(row[1] for row in table_of(drive, size))

        def burn():
            yield Delay(begin)
            yield from drive.burn(b"x", logical_size=size)

        for fraction in wake_fractions:
            at(engine, begin + SPIN_UP_SECONDS + fraction * length,
               lambda: wake(drive._burn_process))
        engine.run_process(burn())
        return engine.now

    assert run(wakes) == run([])


def test_nap_lands_on_its_due_instant_not_a_ulp_past_it():
    ulp = 2.0 ** -42  # of a double in [1024, 2048)
    now, due = 1.5 * ulp, 1024 + 5 * ulp
    assert now + (due - now) == due + ulp  # both roundings tie upwards
    engine = Engine()

    def sleeper():
        yield Delay(now)
        while engine.now < due:
            yield from nap(engine, due)

    engine.run_process(sleeper())
    assert engine.now == due


def test_two_racks_on_one_engine_burn_the_same_drive_id_at_once():
    """Drive ids repeat across the racks of a cluster (``set0-drive00`` in
    each), so the injector tells burns apart by process: both overlapping
    burns are woken by a fault for that id, and both unsubscribe cleanly."""

    def overlapping_burns(action):
        engine = Engine()
        injector = FaultInjector(engine).install()
        tripped = []

        def burn(drive, delay):
            yield Delay(delay)
            try:
                yield from drive.burn(b"x", logical_size=IMAGE_25GB)
            except DriveError:
                tripped.append(engine.now)

        for i in range(2):
            drive = loaded_drive(engine, drive_id="set0-drive00")
            engine.spawn(burn(drive, 10.0 * i))
        at(engine, 100.0, lambda: action(injector))
        engine.run()
        assert not injector._burning
        return tripped

    assert overlapping_burns(lambda injector: injector.inject(
        DRIVE_HARD, target="set0-drive00", duration=30.0
    )) == [100.0, 100.0]
    # no fault: each burn is subscribed until its own end, then gone
    seen = []
    assert overlapping_burns(
        lambda injector: seen.append(len(injector._burning))
    ) == []
    assert seen == [2]


def test_injector_installed_mid_burn_is_consulted_when_the_laser_stops():
    """Delivery needs the injector in place as the laser starts; one
    installed later is still asked at the step's end, as any is."""
    engine = Engine()
    drive = loaded_drive(engine)
    end = SPIN_UP_SECONDS + sum(row[1] for row in table_of(drive, IMAGE_25GB))

    def install_and_arm():
        FaultInjector(engine).install().inject(
            DRIVE_TRANSIENT, target=drive.drive_id
        )

    at(engine, 100.0, install_and_arm)
    with pytest.raises(DriveError, match="write error at 100%"):
        engine.run_process(drive.burn(b"x", logical_size=IMAGE_25GB))
    assert engine.now == pytest.approx(end, rel=1e-12)


# ----------------------------------------------------------------------
# (5) differential: what must not move (passes on the parent too)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "disc_type,size",
    [(BD25, IMAGE_25GB), (BD25, 512 * 1024), (BD100, 99 * units.GB)],
)
def test_unthrottled_burn_lasts_the_sum_of_its_table_rows(disc_type, size):
    engine = Engine()
    drive = loaded_drive(engine, disc_type)
    expected = sum(row[1] for row in table_of(drive, size))
    result = engine.run_process(drive.burn(b"x", logical_size=size))
    assert result.elapsed_seconds == pytest.approx(expected, rel=1e-9)
    assert engine.now == pytest.approx(SPIN_UP_SECONDS + expected, rel=1e-9)


FIG9_IMAGES = [(b"x", IMAGE_25GB, f"img-{i}") for i in range(12)]


def test_throttled_array_burn_keeps_the_parents_timeline_bit_for_bit():
    """Figure 9: 12 x 25 GB, the 380 MB/s ceiling binds, so every burn
    steps row by row through the throttle exactly as before."""
    engine = Engine()
    engine.run_process(blank_set(engine).burn_array(FIG9_IMAGES))
    assert engine.now.hex() == "0x1.21587ccc68e44p+10"  # 1157.38 s
    engine = Engine()
    engine.run_process(
        blank_set(engine).burn_array(FIG9_IMAGES, stagger_seconds=0.0)
    )
    assert engine.now.hex() == "0x1.a05ba7056b495p+9"  # 832.72 s
    # Row for row the 1491 of the first one-sleep burn, less the one
    # 12-target AllOf's collector (n + 2 = 14 sequence numbers to deliver
    # the join then, 1 now), less burn_array's re-queue after each of its
    # 12 spawns (a spawn does not suspend the spawner).
    assert engine.events_issued == 1491 - 13 - 12


def test_throttled_array_burn_sheds_only_its_stagger_slices():
    engine = Engine()
    engine.run_process(blank_set(engine).burn_array(FIG9_IMAGES))
    # The parent spent 1997 events: the 495 fewer are the staggers' 506
    # five-second slices becoming 11 sleeps; no burn row went.  Then the
    # same 12 + 1 as above for the AllOf that is not a process, and the
    # same 12 spawn re-queues.
    assert engine.events_issued == 1502 - 13 - 12


def test_health_reports_nominal_demand_of_a_burn_the_throttle_never_sees():
    engine = Engine()
    drive_set = blank_set(engine, count=1)
    drive = drive_set.drives[0]
    table = table_of(drive, IMAGE_25GB)
    seen = []
    at(engine, 302.0, lambda: seen.append(
        drive_set.health()["throttle_demand_mb_s"]
    ))
    engine.run_process(
        drive_set.burn_array([(b"x", IMAGE_25GB, "img")])
    )
    clock = 0.0
    for rate, seconds, _nbytes, _end in table:
        clock += seconds
        if clock > 300.0:
            break
    assert seen == [round(rate / units.MB, 3)]
    assert drive_set.throttle.total_demand == 0.0
    assert drive_set.health()["throttle_demand_mb_s"] == 0.0


# ----------------------------------------------------------------------
# (6) a fault-free run pays nothing
# ----------------------------------------------------------------------
def test_null_faults_are_never_subscribed_to():
    assert not hasattr(NULL_FAULTS, "subscribe")
    assert not hasattr(NULL_FAULTS, "unsubscribe")

    class OnlyWhatABurnMayRead:
        __slots__ = ()
        enabled = False

        def check(self, site, target=""):
            return None

    engine = Engine()
    engine.faults = OnlyWhatABurnMayRead()
    drive = loaded_drive(engine)
    result = engine.run_process(drive.burn(b"x", logical_size=units.GB))
    assert result.completed


# ----------------------------------------------------------------------
# the burn path's other two polls
# ----------------------------------------------------------------------
def test_failed_array_burn_returns_when_its_last_survivor_ends():
    engine = Engine()
    injector = FaultInjector(engine).install()
    drive_set = blank_set(engine, count=4)
    size = 2 * units.GB
    images = [(b"x", size, f"img-{i}") for i in range(4)]
    survivor_ends = 10.0 + SPIN_UP_SECONDS + sum(
        row[1] for row in table_of(drive_set.drives[1], size)
    )
    at(engine, 15.0, lambda: injector.inject(
        DRIVE_TRANSIENT, target="set0-drive00"
    ))
    with pytest.raises(DriveError, match="set0-drive00"):
        engine.run_process(drive_set.burn_array(images, stagger_seconds=10.0))
    # drive 1 (started at 10 s) was waited for; drives 2 and 3 (due at 20
    # and 30 s) were woken at 15 s and never started
    assert engine.now == pytest.approx(survivor_ends, abs=1e-9)
    assert not drive_set.is_busy and engine.is_idle
    assert [bool(d.disc.tracks) for d in drive_set.drives[:4]] == [
        False, True, False, False,
    ]


def test_interrupt_request_wakes_the_staged_drives_at_that_instant():
    engine = Engine()
    drive_set = blank_set(engine, count=4)
    images = [(b"x", 2 * units.GB, f"img-{i}") for i in range(4)]
    stop = []

    def interrupt():
        stop.append(True)
        drive_set.request_interrupt()

    at(engine, 12.5, interrupt)
    results = engine.run_process(
        drive_set.burn_array(
            images, stagger_seconds=10.0, abort_check=lambda: bool(stop)
        )
    )
    assert engine.now == 12.5  # the parent: 15.0, the next 5 s slice
    assert [r and r.completed for r in results] == [False, False, None, None]
    assert all(r.burned_bytes > 0 for r in results[:2])
    assert engine.is_idle
