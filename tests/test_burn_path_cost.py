"""The burn path's host-cost shortcuts decide exactly what the long way did.

``find_blank_tray`` stops at the first blank tray instead of listing the
roller, and ``OpticalDrive.burn`` walks a memoised table instead of
re-deriving its segments.  These tests pin the *equivalence* — same tray,
same cursor, same IEEE doubles — and count the work
deterministically; none of them reads a wall clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.drives import OpticalDrive
from repro.drives.speed import (
    BURN_TABLE_MEMO_SIZE,
    ZonedCAVCurve,
    curve_for,
)
from repro.errors import MechanicsError
from repro.mechanics import geometry
from repro.mechanics.geometry import RollerGeometry, TrayAddress
from repro.mechanics.library import MechanicalSubsystem
from repro.mechanics.roller import Roller
from repro.media.disc import BD25, BD25_RW, BD100, OpticalDisc
from repro.olfs.config import OLFSConfig
from repro.olfs.mechanical import ArrayState, MechanicalController
from repro.sim import Engine

# ----------------------------------------------------------------------
# (a) find_blank_tray == the full-scan implementation it replaced
# ----------------------------------------------------------------------
SMALL = RollerGeometry(layers=3, slots_per_layer=3, discs_per_tray=3)

# What a tray can be, by number.
PRISTINE, USED, FAILED, CHECKED_OUT, PARTIAL, ONE_BURNED = range(6)


def reference_blank_trays_of(mc, roller):
    """The parent commit's ``_blank_trays_of``, kept as the oracle."""
    blanks = []
    for address in mc.mech.geometry.addresses():
        if mc.da_index[(roller.roller_id, address)] is not ArrayState.EMPTY:
            continue
        tray = roller.tray_at(address)
        if tray.checked_out or not tray.is_full:
            continue
        if all(disc.is_blank for disc in tray.discs()):
            blanks.append(address)
    return blanks


def reference_find_blank_tray(mc, roller_index):
    """The full-scan ``find_blank_tray``: list the roller's blank trays,
    then take the first at or after the cursor."""
    roller = mc.mech.rollers[roller_index]
    blank_set = set(reference_blank_trays_of(mc, roller))
    addresses = list(mc.mech.geometry.addresses())
    start = mc._blank_cursor[roller_index]
    for offset in range(len(addresses)):
        address = addresses[(start + offset) % len(addresses)]
        if address in blank_set:
            mc._blank_cursor[roller_index] = (start + offset) % len(addresses)
            return roller_index, address
    raise MechanicsError("no blank disc arrays left")


def build_controller(roller_count, tray_states, cursors):
    """A small rack put into the drawn state; built twice per example so
    the oracle and the code under test start from equal states."""
    engine = Engine()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "DEFAULT_GEOMETRY", SMALL)
        mech = MechanicalSubsystem(engine, roller_count=roller_count)
    mc = MechanicalController(engine, mech, OLFSConfig())
    keys = [
        (roller.roller_id, address)
        for roller in mech.rollers
        for address in SMALL.addresses()
    ]
    for (roller_id, address), state in zip(keys, tray_states):
        tray = mech.rollers[roller_id].tray_at(address)
        if state == USED:
            mc.set_state(roller_id, address, ArrayState.USED)
        elif state == FAILED:
            mc.set_state(roller_id, address, ArrayState.FAILED)
        elif state == CHECKED_OUT:
            tray.take_all()
        elif state == PARTIAL:
            tray.put_back(tray.take_all()[:-1])
        elif state == ONE_BURNED:
            list(tray.discs())[1].burn_track(b"x", close=False)
    for roller, cursor in zip(mech.rollers, cursors):
        mc._blank_cursor[roller.roller_id] = cursor
    return mc


def allocate(find, mc, roller_index, rounds=4):
    """Allocate ``rounds`` trays, consuming each; everything observable."""
    seen = []
    for _ in range(rounds):
        try:
            roller_id, address = find(mc, roller_index)
        except MechanicsError as error:
            seen.append(("error", str(error), dict(mc._blank_cursor)))
            break
        seen.append((roller_id, address, dict(mc._blank_cursor)))
        mc.set_state(roller_id, address, ArrayState.USED)
    return seen


@settings(max_examples=200, deadline=None)
@given(
    roller_count=st.sampled_from((1, 2)),
    # mostly unusable trays, so exhaustion and wrap-around come up often
    tray_states=st.lists(
        st.sampled_from(
            (PRISTINE, PRISTINE, USED, USED, FAILED, CHECKED_OUT, PARTIAL,
             ONE_BURNED)
        ),
        min_size=2 * SMALL.trays,
        max_size=2 * SMALL.trays,
    ),
    cursors=st.tuples(
        st.integers(0, SMALL.trays - 1), st.integers(0, SMALL.trays - 1)
    ),
    roller_choice=st.sampled_from((0, 1)),
)
def test_find_blank_tray_matches_the_full_scan(
    roller_count, tray_states, cursors, roller_choice
):
    roller_index = roller_choice % roller_count
    state = (roller_count, tray_states, cursors)
    expected = allocate(
        reference_find_blank_tray, build_controller(*state), roller_index
    )
    actual = allocate(
        MechanicalController.find_blank_tray,
        build_controller(*state),
        roller_index,
    )
    assert actual == expected


def test_find_blank_tray_raises_when_nothing_is_blank():
    state = (2, [USED] * (2 * SMALL.trays), (4, 7))
    for roller_index in (0, 1):
        with pytest.raises(MechanicsError, match="no blank disc arrays"):
            build_controller(*state).find_blank_tray(roller_index)
        with pytest.raises(MechanicsError, match="no blank disc arrays"):
            reference_find_blank_tray(build_controller(*state), roller_index)


def test_sequential_scan_wraps_past_the_end_to_the_only_blank_tray():
    states = [USED] * SMALL.trays
    states[2] = PRISTINE
    mc = build_controller(1, states, (7,))
    assert mc.find_blank_tray(0) == (0, TrayAddress(0, 2))
    assert mc._blank_cursor[0] == 2


# ----------------------------------------------------------------------
# (b) the burn table is segments(), value for value
# ----------------------------------------------------------------------
CURVES = [
    ("bd25", lambda: curve_for(BD25)),
    ("bd100-seed1", lambda: curve_for(BD100, seed=1)),
    ("bd100-seed77", lambda: curve_for(BD100, seed=77)),
    ("bd100-seed4242", lambda: curve_for(BD100, seed=4242)),
    ("bd25-rw", lambda: curve_for(BD25_RW)),
]
SIZES = [512 * 1024, 25 * units.GB, 1_234_567]


@pytest.mark.parametrize("name,make", CURVES, ids=[c[0] for c in CURVES])
@pytest.mark.parametrize("start_progress", [0.0, 0.37])
@pytest.mark.parametrize("nbytes", SIZES)
@pytest.mark.parametrize("count", [120, 7])
def test_burn_table_equals_segments_exactly(
    name, make, start_progress, nbytes, count
):
    curve = make()
    segments = list(curve.segments(nbytes, start_progress, count))
    table = curve.burn_table(nbytes, start_progress, count)
    assert len(table) == len(segments) == count
    for row, segment in zip(table, segments):
        rate, seconds, row_bytes, end_progress = row
        # == on floats on purpose: the burn must yield the same doubles.
        assert rate == units.bd_speed(segment.speed_multiple)
        assert seconds == segment.seconds
        assert row_bytes == segment.nbytes
        assert end_progress == segment.end_progress
    # a second ask is the remembered table, not a recomputation
    assert curve.burn_table(nbytes, start_progress, count) is table


def test_burn_table_of_nothing_is_empty():
    assert curve_for(BD25).burn_table(0) == ()


def test_subclass_overriding_speed_multiple_gets_its_own_table():
    class HalfSpeed(ZonedCAVCurve):
        def speed_multiple(self, progress):
            return super().speed_multiple(progress) / 2.0

    base = ZonedCAVCurve().burn_table(10 * units.GB)
    halved = HalfSpeed().burn_table(10 * units.GB)
    assert [row[0] for row in halved] == [row[0] / 2.0 for row in base]
    assert all(slow[1] > fast[1] for slow, fast in zip(halved, base))


def test_cav_curve_is_shared_per_capacity_and_its_memo_is_bounded():
    curve = curve_for(BD25)
    assert curve_for(BD25) is curve
    assert curve_for(BD25_RW) is not curve
    private = ZonedCAVCurve()
    for size in range(1, 3 * BURN_TABLE_MEMO_SIZE):
        private.burn_table(size * 1000, count=3)
    assert len(private._burn_tables) == BURN_TABLE_MEMO_SIZE
    # the newest tables are the ones kept
    newest = (3 * BURN_TABLE_MEMO_SIZE - 1) * 1000
    assert (newest, 0.0, 3) in private._burn_tables


# ----------------------------------------------------------------------
# (c) deterministic work counters
# ----------------------------------------------------------------------
def test_sequential_allocations_inspect_about_one_tray_each(monkeypatch):
    engine = Engine()
    mech = MechanicalSubsystem(engine, roller_count=1)
    mc = MechanicalController(engine, mech, OLFSConfig())
    inspected = []
    tray_at = Roller.tray_at

    def counting_tray_at(self, address):
        inspected.append(address)
        return tray_at(self, address)

    monkeypatch.setattr(Roller, "tray_at", counting_tray_at)
    for _ in range(50):
        roller_id, address = mc.find_blank_tray(0)
        mc.set_state(roller_id, address, ArrayState.USED)
    # The full scan looked at all 510 trays on every call (25,500 here).
    assert len(inspected) <= 60


def test_equal_images_on_one_curve_derive_their_segments_once():
    class CountingCurve(ZonedCAVCurve):
        calls = 0

        def segments(self, nbytes, start_progress=0.0, count=120):
            CountingCurve.calls += 1
            return super().segments(nbytes, start_progress, count)

    engine = Engine()
    curve = CountingCurve()
    payload = b"i" * 4096
    for index in range(8):
        drive = OpticalDrive(engine, f"drv{index}")
        drive.open_tray()
        drive.insert_disc(OpticalDisc(f"disc-{index}", BD25))
        drive.close_tray()
        result = engine.run_process(
            drive.burn(payload, logical_size=512 * 1024, curve=curve)
        )
        assert result.completed
    assert CountingCurve.calls == 1
