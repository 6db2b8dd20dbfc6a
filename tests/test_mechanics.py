"""Tests for geometry, roller, arm, PLC and the composed subsystem (Table 3)."""

import pytest

from repro.errors import MechanicsError, PLCFaultError
from repro.mechanics import (
    MechanicalSubsystem,
    MechanicalTimings,
    RollerGeometry,
    TrayAddress,
)
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.sim import Engine


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
def test_default_geometry_counts():
    geometry = RollerGeometry()
    assert geometry.trays == 510
    assert geometry.disc_capacity == 6120
    assert geometry.lowest_layer == 84


def test_rack_capacity_two_rollers():
    assert 2 * RollerGeometry().disc_capacity == 12240


def test_geometry_validate_rejects_bad_address():
    geometry = RollerGeometry()
    with pytest.raises(ValueError):
        geometry.validate(TrayAddress(85, 0))
    with pytest.raises(ValueError):
        geometry.validate(TrayAddress(0, 6))


def test_layer_fraction_extremes():
    geometry = RollerGeometry()
    assert geometry.layer_fraction(0) == 0.0
    assert geometry.layer_fraction(84) == 1.0


def test_slot_distance_wraps():
    geometry = RollerGeometry()
    assert geometry.slot_distance(0, 5) == 1
    assert geometry.slot_distance(0, 3) == 3
    assert geometry.slot_distance(2, 2) == 0


# ----------------------------------------------------------------------
# Timing model (Table 3 calibration)
# ----------------------------------------------------------------------
def test_load_uppermost_layer_68_7s():
    assert DEFAULT_TIMINGS.load_total(0.0) == pytest.approx(68.7)


def test_load_lowest_layer_73_2s():
    assert DEFAULT_TIMINGS.load_total(1.0) == pytest.approx(73.2)


def test_unload_uppermost_layer_81_7s():
    assert DEFAULT_TIMINGS.unload_total(0.0) == pytest.approx(81.7)


def test_unload_lowest_layer_86_5s():
    assert DEFAULT_TIMINGS.unload_total(1.0) == pytest.approx(86.5)


def test_rotation_under_two_seconds():
    assert DEFAULT_TIMINGS.rotate < 2.0


def test_arm_travel_under_five_seconds():
    assert DEFAULT_TIMINGS.travel(1.0, loaded=False) <= 5.0
    assert DEFAULT_TIMINGS.travel(1.0, loaded=True) <= 5.0


def test_parallel_scheduling_saves_almost_ten_seconds_per_pair():
    serial = DEFAULT_TIMINGS.load_total(0.5) + DEFAULT_TIMINGS.unload_total(0.5)
    parallel = DEFAULT_TIMINGS.load_total(0.5, parallel=True)
    parallel += DEFAULT_TIMINGS.unload_total(0.5, parallel=True)
    saved = serial - parallel
    assert 8.0 <= saved <= 10.0


# ----------------------------------------------------------------------
# Composed subsystem
# ----------------------------------------------------------------------
@pytest.fixture
def system():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=1)
    return engine, subsystem


def test_populate_fills_all_trays(system):
    engine, subsystem = system
    assert subsystem.rollers[0].disc_count() == 6120


def test_load_array_places_12_discs(system):
    engine, subsystem = system
    address = TrayAddress(0, 1)
    discs = engine.run_process(subsystem.load_array(0, address))
    assert len(discs) == 12
    drive_set = subsystem.drive_sets[0]
    assert all(drive.has_disc for drive in drive_set.drives)
    assert drive_set.loaded_from == (0, address)
    assert subsystem.rollers[0].tray_at(address).checked_out


def test_load_array_time_matches_table3_uppermost(system):
    """Table 3: loading the uppermost layer takes 68.7 s."""
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 1)))
    assert engine.now == pytest.approx(68.7, rel=0.01)


def test_load_array_time_matches_table3_lowest(system):
    """Table 3: loading the lowest layer takes 73.2 s."""
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(84, 1)))
    assert engine.now == pytest.approx(73.2, rel=0.01)


def test_unload_array_time_matches_table3_uppermost(system):
    """Table 3: unloading to the uppermost layer takes 81.7 s."""
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 1)))
    start = engine.now
    engine.run_process(subsystem.unload_array(0))
    assert engine.now - start == pytest.approx(81.7, rel=0.01)


def test_unload_array_time_matches_table3_lowest(system):
    """Table 3: unloading to the lowest layer takes 86.5 s."""
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(84, 1)))
    start = engine.now
    engine.run_process(subsystem.unload_array(0))
    # The arm ends the load parked at the top, so the unload pays the
    # full loaded travel down to layer 84.
    assert engine.now - start == pytest.approx(86.5, rel=0.01)


def test_unload_restores_tray(system):
    engine, subsystem = system
    address = TrayAddress(3, 2)
    engine.run_process(subsystem.load_array(0, address))
    engine.run_process(subsystem.unload_array(0))
    tray = subsystem.rollers[0].tray_at(address)
    assert not tray.checked_out
    assert tray.disc_count == 12
    assert subsystem.drive_sets[0].is_empty


def test_swap_array_combines_unload_and_load(system):
    """Table 1: read with occupied drives needs unload + load ~ 155 s."""
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 0)))
    start = engine.now
    engine.run_process(subsystem.swap_array(0, TrayAddress(40, 3)))
    elapsed = engine.now - start
    assert elapsed == pytest.approx(81.7 + 68.7 + 2.1 + 2.2, rel=0.03)


def test_load_into_occupied_set_rejected(system):
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 0)))
    with pytest.raises(MechanicsError):
        engine.run_process(subsystem.load_array(0, TrayAddress(1, 0)))


def test_load_checked_out_tray_rejected(system):
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 0)))
    engine.run_process(subsystem.unload_array(0, TrayAddress(0, 0)))
    # tray is home again; unloading an empty set now fails
    with pytest.raises(MechanicsError):
        engine.run_process(subsystem.unload_array(0))


def test_locate_disc(system):
    engine, subsystem = system
    roller_id, address = subsystem.locate_disc("r0-l42-s3-d05")
    assert roller_id == 0
    assert address == TrayAddress(42, 3)
    assert subsystem.locate_disc("missing") is None


def test_locate_disc_absent_while_loaded(system):
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(7, 0)))
    assert subsystem.locate_disc("r0-l07-s0-d00") is None
    drive_set = subsystem.drive_sets[0]
    assert drive_set.find_disc("r0-l07-s0-d00") is not None


def test_locate_disc_parked_in_a_foreign_tray(system):
    """The id names a home tray, but the disc is wherever it really is."""
    engine, subsystem = system
    roller = subsystem.rollers[0]
    home, foreign = TrayAddress(42, 3), TrayAddress(9, 1)
    # swap two whole stacks, so each disc rests in the other's tray
    from_home = roller.tray_at(home).take_all()
    from_foreign = roller.tray_at(foreign).take_all()
    roller.tray_at(home).put_back(from_foreign)
    roller.tray_at(foreign).put_back(from_home)
    assert subsystem.locate_disc("r0-l42-s3-d05") == (0, foreign)
    assert subsystem.locate_disc("r0-l09-s1-d00") == (0, home)


def test_locate_disc_with_hand_made_ids(system):
    from repro.media.disc import OpticalDisc

    engine, subsystem = system
    tray = subsystem.rollers[0].tray_at(TrayAddress(3, 2))
    stack = tray.take_all()
    # one id that does not parse, one that names a tray outside the roller
    stack[0] = OpticalDisc("vault-0001")
    stack[1] = OpticalDisc("r0-l999-s9-d00")
    tray.put_back(stack)
    assert subsystem.locate_disc("vault-0001") == (0, TrayAddress(3, 2))
    assert subsystem.locate_disc("r0-l999-s9-d00") == (0, TrayAddress(3, 2))
    assert subsystem.locate_disc("r0-l998-s9-d00") is None


def test_total_discs_conserved(system):
    engine, subsystem = system
    before = subsystem.total_discs()
    engine.run_process(subsystem.load_array(0, TrayAddress(5, 5)))
    assert subsystem.total_discs() == before
    engine.run_process(subsystem.unload_array(0))
    assert subsystem.total_discs() == before


def test_parallel_scheduling_mode_is_faster():
    serial_engine = Engine()
    serial = MechanicalSubsystem(serial_engine, roller_count=1)
    serial_engine.run_process(serial.load_array(0, TrayAddress(10, 2)))

    parallel_engine = Engine()
    parallel = MechanicalSubsystem(
        parallel_engine, roller_count=1, parallel_scheduling=True
    )
    parallel_engine.run_process(parallel.load_array(0, TrayAddress(10, 2)))

    assert parallel_engine.now < serial_engine.now
    assert serial_engine.now - parallel_engine.now == pytest.approx(4.4, abs=0.5)


def test_plc_counts_instructions(system):
    engine, subsystem = system
    engine.run_process(subsystem.load_array(0, TrayAddress(0, 1)))
    assert subsystem.plc.instructions_executed > 12


def test_sensor_fault_detected():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=1)
    subsystem.plc.suites[0].arm_encoder.inject_drift(2.0)
    with pytest.raises(PLCFaultError):
        engine.run_process(subsystem.load_array(0, TrayAddress(5, 1)))
    assert subsystem.plc.faults == 1


def test_sensor_failure_detected():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=1)
    subsystem.plc.suites[0].roller_encoder.fail()
    with pytest.raises(PLCFaultError):
        engine.run_process(subsystem.load_array(0, TrayAddress(0, 1)))


def test_calibrate_repairs_sensors():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=1)
    suite = subsystem.plc.suites[0]
    suite.arm_encoder.inject_drift(2.0)
    from repro.plc import Calibrate

    engine.run_process(subsystem.channel.send(Calibrate(0)))
    engine.run_process(subsystem.load_array(0, TrayAddress(5, 1)))
    assert subsystem.plc.faults == 0


def test_two_rollers_independent_arms():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=2)
    assert len(subsystem.drive_sets) == 2
    assert subsystem.roller_of_set(0) == 0
    assert subsystem.roller_of_set(1) == 1

    from repro.sim import AllOf, Spawn

    def main():
        a = yield Spawn(subsystem.load_array(0, TrayAddress(0, 1)))
        b = yield Spawn(subsystem.load_array(1, TrayAddress(0, 1)))
        yield AllOf([a, b])
        return engine.now

    # Two arms work in parallel: total time ~ one load, not two.
    end = engine.run_process(main())
    assert end == pytest.approx(68.7, rel=0.02)
