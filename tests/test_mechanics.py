"""Tests for geometry, roller, arm, PLC and the composed subsystem (Table 3)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import MechanicsError, PLCFaultError
from repro.faults.injector import SITE_PLC_CHANNEL as PLC_CHANNEL_SITE
from repro.faults.injector import FaultInjector
from repro.faults.plan import PLC_CHANNEL
from repro.mechanics import (
    MechanicalSubsystem,
    MechanicalTimings,
    RollerGeometry,
    TrayAddress,
    geometry,
)
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.plc import (
    Calibrate,
    FanIn,
    FanOut,
    GrabStack,
    HookTray,
    LowerStack,
    MoveArm,
    ReleaseTray,
    Rotate,
)
from repro.plc.controller import COMMAND_LATENCY, PLCController
from repro.obs.recorder import FlightRecorder
from repro.sim import Delay, Engine, Tracer
from repro.sim.engine import NULL_FAULTS
from repro.sim.tracing import to_flat_json


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
def test_default_geometry_counts():
    geometry = RollerGeometry()
    assert geometry.trays == 510
    assert geometry.disc_capacity == 6120


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
    engine.run_process(subsystem.unload_array(0))
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

    engine.run_process(subsystem.plc.execute(Calibrate(0)))
    engine.run_process(subsystem.load_array(0, TrayAddress(5, 1)))
    assert subsystem.plc.faults == 0


def test_two_rollers_independent_arms():
    engine = Engine()
    subsystem = MechanicalSubsystem(engine, roller_count=2)
    assert [drive_set.set_id for drive_set in subsystem.drive_sets] == [0, 1]

    from repro.sim import AllOf

    def main():
        a = engine.spawn(subsystem.load_array(0, TrayAddress(0, 1)))
        b = engine.spawn(subsystem.load_array(1, TrayAddress(0, 1)))
        yield AllOf([a, b])
        return engine.now

    # Two arms work in parallel: total time ~ one load, not two.
    end = engine.run_process(main())
    assert end == pytest.approx(68.7, rel=0.02)




# ----------------------------------------------------------------------
# One sleep per PLC instruction against the stepped reference: the wire
# stretch as its own occurrence and the channel checked on arrival, the
# way a command ran before the lead was fused into the motion.  The
# send steps now only when ``FaultInjector.live`` says a channel fault
# could trip on arrival; a tracer, a recorder or an idle injector never
# changes the path.
# ----------------------------------------------------------------------
START = 1234.000321  # a clock no motion time divides


def stepped_send(plc, instruction):
    """The reference send: sleep the wire, check the channel, execute."""
    engine = plc.engine
    yield Delay(COMMAND_LATENCY)
    fault = engine.faults.check("plc.channel")
    if fault is not None:
        raise PLCFaultError(
            f"control link error sending {instruction.mnemonic} "
            f"(injected {fault.kind})"
        )
    plc.commands_sent += 1
    plc.last_command = (engine.now, instruction.mnemonic)
    engine.recorder.record("plc.instruction", mnemonic=instruction.mnemonic)
    result = yield from PLCController.execute(plc, instruction, 0.0)
    return result


def _rig(stepped=False, start=START, traced=False):
    """A one-roller rack whose clock already reads ``start``."""
    engine = Engine()
    if traced:
        engine.trace = Tracer(engine)
    subsystem = MechanicalSubsystem(engine, roller_count=1)
    if stepped:
        plc = subsystem.plc
        plc.execute = lambda instruction: stepped_send(plc, instruction)

    def wait():
        yield Delay(start)

    engine.run_process(wait())
    return engine, subsystem


def _refusal_time(stepped, prepare, instruction, error):
    engine, subsystem = _rig(stepped)
    prepare(subsystem)
    with pytest.raises(error) as refusal:
        engine.run_process(subsystem.plc.execute(instruction))
    return engine.now, str(refusal.value)


@pytest.mark.parametrize(
    "prepare, instruction, error, message",
    [
        (lambda s: None, FanOut(0, 0, 0), PLCFaultError,
         "fan-out without the tray hooked"),
        (lambda s: setattr(s.arms[0], "hooked", True), FanOut(0, 0, 0),
         MechanicsError, "is not aligned"),
        (lambda s: setattr(s.arms[0], "hooked", True), HookTray(0),
         MechanicsError, "arm already hooked"),
        (lambda s: None, MoveArm(0, 85), MechanicsError,
         "layer 85 out of range"),
        (lambda s: None, GrabStack(0), PLCFaultError,
         "grab-stack with no tray fanned out"),
    ],
)
def test_a_refused_instruction_fails_when_the_command_arrives(
    prepare, instruction, error, message
):
    fused = _refusal_time(False, prepare, instruction, error)
    assert fused == _refusal_time(True, prepare, instruction, error)
    when, text = fused
    assert when == START + COMMAND_LATENCY
    assert message in text


@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize(
    "prepare, instruction",
    [
        (lambda s: None, MoveArm(0, 0)),  # the arm parks at layer 0
        (lambda s: setattr(s.rollers[0], "aligned", True), Rotate(0, 0)),
    ],
)
def test_a_motion_with_nothing_to_move_still_spends_the_wire(
    stepped, prepare, instruction
):
    engine, subsystem = _rig(stepped)
    prepare(subsystem)
    engine.run_process(subsystem.plc.execute(instruction))
    assert engine.now == START + COMMAND_LATENCY
    assert subsystem.arms[0].moves == subsystem.rollers[0].rotation_count == 0
    assert subsystem.plc.instructions_executed == 1


@pytest.mark.parametrize("traced", [False, True])
def test_calibrate_takes_the_lead_like_any_motion(traced):
    engine, subsystem = _rig(traced=traced)
    before = engine.events_issued
    engine.run_process(subsystem.plc.execute(Calibrate(0)))
    assert engine.now == (START + COMMAND_LATENCY) + 1.0
    # run_process's spawn, then one sleep for the wire and the second;
    # a tracer costs none
    assert engine.events_issued - before == 2


def test_last_command_is_stamped_with_the_arrival_time():
    stamps = []
    for stepped, traced in ((False, False), (False, True), (True, False)):
        engine, subsystem = _rig(stepped, traced=traced)
        assert subsystem.plc.channel_health()["last_command"] is None
        engine.run_process(subsystem.plc.execute(Rotate(0, 3)))
        stamps.append(subsystem.plc.channel_health()["last_command"])
    assert stamps[0] == stamps[1] == stamps[2] == {
        "t": round(START + COMMAND_LATENCY, 6),
        "mnemonic": Rotate(0, 3).mnemonic,
    }


SMALL = RollerGeometry(layers=7, slots_per_layer=3, discs_per_tray=4)

array_ops = st.lists(
    st.tuples(
        st.sampled_from(["load", "unload", "swap"]),
        st.integers(0, SMALL.layers - 1),
        st.integers(0, SMALL.slots_per_layer - 1),
    ),
    min_size=1,
    max_size=6,
)

#: untargeted ``plc.channel`` faults: (seconds after the start, duration);
#: duration 0 is a one-shot, anything else a window.  The 10 ms floor
#: keeps an arm off the first command's wire, sent at the start.
channel_faults = st.lists(
    st.tuples(
        st.floats(0.01, 600.0),
        st.one_of(st.just(0.0), st.floats(0.5, 5.0)),
    ),
    max_size=3,
)


def _drive(stepped, start, ops, faults=()):
    """Run ``ops`` one after another under a tracer, a recorder and an
    injector arming ``faults``; what each op did and when it ended, what
    every observer saw, and where the faults met the wire."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "DEFAULT_GEOMETRY", SMALL)
        engine, subsystem = _rig(stepped, start, traced=True)
    recorder = FlightRecorder(engine).install()
    injector = FaultInjector(engine).install()
    armed = []

    def arm(offset, duration):
        yield Delay(offset)
        armed.append(engine.now)
        injector.inject(PLC_CHANNEL, duration=duration)

    for offset, duration in faults:
        engine.spawn(arm(offset, duration))
    sent = []
    wires = []
    send = subsystem.plc.execute

    def recording_send(instruction):
        sent.append(instruction)
        wires.append((engine.now, engine.now + COMMAND_LATENCY))
        return send(instruction)

    subsystem.plc.execute = recording_send
    before = engine.events_issued
    ends = []
    for kind, layer, slot in ops:
        address = TrayAddress(layer, slot)
        composite = {
            "load": lambda: subsystem.load_array(0, address),
            "unload": lambda: subsystem.unload_array(0),
            "swap": lambda: subsystem.swap_array(0, address),
        }[kind]
        try:
            engine.run_process(composite())
            outcome = "ok"
        except MechanicsError as refused:  # a full set, a tripped link
            outcome = str(refused)
        ends.append((outcome, engine.now.hex()))
    # A send moved unless it was a MoveArm / Rotate with nowhere to go.
    stayed = (
        sum(isinstance(i, MoveArm) for i in sent) - subsystem.arms[0].moves
    ) + (
        sum(isinstance(i, Rotate) for i in sent)
        - subsystem.rollers[0].rotation_count
    )
    in_flight = any(lo <= t <= hi for t in armed for lo, hi in wires)
    seen = (
        ends,
        subsystem.health(),
        injector.log,
        injector.health(),
        to_flat_json(engine.trace),
        recorder.to_jsonl(),
    )
    return seen, engine.events_issued - before, len(sent) - stayed, in_flight


@settings(max_examples=30, deadline=None)
@given(
    # Below ~16 s a motion can be longer than the clock is old, which is
    # where ``now + (due - now)`` can miss ``due`` (the ULP rule) and an
    # unlucky ``due`` takes the fused sleep two hops; above, one always.
    start=st.one_of(st.floats(0.0, 16.0), st.floats(16.0, 1e7)),
    ops=array_ops,
    faults=channel_faults,
)
def test_fused_rig_matches_the_stepped_one_to_the_bit(start, ops, faults):
    seen, events, moved, in_flight = _drive(True, start, ops, faults)
    # The one rule the reference does not share (pinned below).
    assume(not in_flight)
    fused_seen, fused_events, fused_moved, _ = _drive(False, start, ops, faults)
    assert fused_seen == seen
    assert fused_moved == moved
    # Each motion the reference stepped and the rig did not is one event;
    # a send that met a live fault stepped in both.
    if start >= 16.0 and not faults:
        assert events - fused_events == moved
    else:
        assert 0 <= events - fused_events <= moved


def test_channel_fault_armed_mid_load_trips_the_instruction_it_always_did():
    """The one-shot armed during GrabStack's lift is live when ReleaseTray
    is sent, so that command steps and meets the fault on arrival."""
    engine, subsystem = _rig(start=0.0)
    injector = FaultInjector(engine).install()

    def arm_the_fault():
        yield Delay(5.0)
        injector.inject(PLC_CHANNEL)

    engine.spawn(arm_the_fault())
    with pytest.raises(PLCFaultError, match="sending RELEASETRAY"):
        engine.run_process(subsystem.load_array(0, TrayAddress(0, 1)))
    # five commands arrived and ran, the sixth's wire stretch met the fault
    assert engine.now.hex() == "0x1.8d2f1a9fbe76dp+2"  # 6.206, read off PR 23
    assert subsystem.plc.commands_sent == 5
    assert subsystem.arms[0].hooked and len(subsystem.arms[0].holding) == 12


def test_injector_installed_mid_instruction_is_consulted_by_the_next_send():
    engine, subsystem = _rig(start=0.0)

    def install_late():
        yield Delay(1.0)  # Rotate is 1 ms + 1.9 s, fused
        FaultInjector(engine).install().inject(PLC_CHANNEL)

    engine.spawn(install_late())
    with pytest.raises(PLCFaultError, match="sending MOVEARM"):
        engine.run_process(subsystem.load_array(0, TrayAddress(3, 1)))
    # Rotate ran to its end untouched; MoveArm's wire stretch met the fault.
    assert engine.now == (0.001 + 1.9) + 0.001
    assert subsystem.rollers[0].rotation_count == 1
    assert subsystem.plc.commands_sent == 1


@pytest.mark.parametrize("stepped", [False, True])
def test_a_fault_armed_in_flight_trips_the_next_command(stepped):
    """The one difference from the stepped reference: a one-shot armed
    while Rotate is on the wire is not seen by Rotate, which was sent
    before it existed, but by MoveArm's arrival."""
    engine, subsystem = _rig(stepped, start=0.0)
    injector = FaultInjector(engine).install()

    def arm_in_flight():
        yield Delay(COMMAND_LATENCY / 2)
        injector.inject(PLC_CHANNEL)

    engine.spawn(arm_in_flight())
    with pytest.raises(PLCFaultError) as tripped:
        engine.run_process(subsystem.load_array(0, TrayAddress(3, 1)))
    if stepped:
        assert "sending ROTATE" in str(tripped.value)
        assert engine.now == 0.001
        assert subsystem.rollers[0].rotation_count == 0
    else:
        assert "sending MOVEARM" in str(tripped.value)
        assert engine.now == (0.001 + 1.9) + 0.001
        assert subsystem.rollers[0].rotation_count == 1
    assert [entry["event"] for entry in injector.log] == ["arm", "trip"]


def test_live_answers_for_untargeted_faults_at_the_given_instant():
    engine = Engine()
    injector = FaultInjector(engine).install()
    assert not injector.live(PLC_CHANNEL_SITE, 0.001)
    injector.inject(PLC_CHANNEL, target="rack-b")  # never an any-target trip
    assert not injector.live(PLC_CHANNEL_SITE, 0.001)
    injector.inject(PLC_CHANNEL, duration=2.0)
    assert injector.live(PLC_CHANNEL_SITE, 1.999)
    assert not injector.live(PLC_CHANNEL_SITE, 2.0)
    assert not injector.live("net.link", 1.0)
    injector.inject(PLC_CHANNEL)
    assert injector.live(PLC_CHANNEL_SITE, 1e9)
    assert injector.log[-1]["event"] == "arm"  # asking consumed nothing
    injector.stop()
    assert not injector.live(PLC_CHANNEL_SITE, 0.001)
    assert not hasattr(NULL_FAULTS, "live")  # asked only when enabled


# ----------------------------------------------------------------------
# A refused stack command checks everything before it moves a disc
# ----------------------------------------------------------------------
def _discs_anywhere(subsystem):
    held = sum(len(arm.holding) for arm in subsystem.arms)
    return subsystem.total_discs() + held


def _holding_a_stack_before(tray):
    """A rig whose arm holds tray (2, 1)'s stack and has ``tray``, full
    and never checked out, fanned out in front of it."""
    engine, subsystem = _rig()
    for instruction in (
        Rotate(0, 1), MoveArm(0, 2), HookTray(0), FanOut(0, 2, 1),
        GrabStack(0), ReleaseTray(0), FanIn(0),
        Rotate(0, tray.slot), MoveArm(0, tray.layer), HookTray(0),
        FanOut(0, tray.layer, tray.slot),
    ):
        engine.run_process(subsystem.plc.execute(instruction))
    assert len(subsystem.arms[0].holding) == 12
    assert subsystem.tray_at(0, tray).is_full
    return engine, subsystem


@pytest.mark.parametrize(
    "instruction, message",
    [
        (GrabStack(0), "arm is already holding discs"),
        (LowerStack(0), "was not checked out"),
    ],
)
def test_a_refused_stack_command_loses_no_disc(instruction, message):
    tray = TrayAddress(3, 2)
    engine, subsystem = _holding_a_stack_before(tray)
    before = _discs_anywhere(subsystem)
    sent = engine.now
    with pytest.raises(MechanicsError, match=message):
        engine.run_process(subsystem.plc.execute(instruction))
    assert engine.now == sent + COMMAND_LATENCY  # refused on arrival
    assert _discs_anywhere(subsystem) == before
    assert len(subsystem.arms[0].holding) == 12
    assert subsystem.tray_at(0, tray).is_full
    assert not subsystem.tray_at(0, tray).checked_out



# ----------------------------------------------------------------------
# A PLC command runs in one frame: ``PLCController.execute`` stamps the
# channel's counters and journal, opens the spans only when the engine
# traces, and sleeps the motion.  The load and unload choreographies
# build their instructions once and reuse them.
# ----------------------------------------------------------------------
def _load_and_swap(observed):
    """A load, then a swap to another tray, under a tracer and a flight
    recorder or bare: what the engine and the channel did, and when each
    command was sent."""
    engine, subsystem = _rig(traced=observed)
    recorder = FlightRecorder(engine).install() if observed else None
    sent = []
    send = subsystem.plc.execute

    def timed_send(instruction):
        sent.append((engine.now, instruction.mnemonic))
        return send(instruction)

    subsystem.plc.execute = timed_send
    before = engine.events_issued
    engine.run_process(subsystem.load_array(0, TrayAddress(3, 1)))
    engine.run_process(subsystem.swap_array(0, TrayAddress(40, 4)))
    seen = (
        engine.events_issued - before,
        engine.now.hex(),
        subsystem.plc.commands_sent,
        subsystem.plc.instructions_executed,
        subsystem.health(),
    )
    return seen, sent, recorder, engine.trace


def test_a_swap_does_the_same_work_traced_and_recorded_as_bare():
    bare, bare_sent, _, _ = _load_and_swap(False)
    observed, sent, recorder, tracer = _load_and_swap(True)
    assert observed == bare and sent == bare_sent
    # 7 + 12 to load, then 8 to unload and 7 + 12 to load again
    assert observed[2] == len(sent) == 46
    arrivals = [(now + COMMAND_LATENCY, name) for now, name in sent]
    assert [
        (event["t"], event["mnemonic"])
        for event in recorder.events("plc.instruction")
    ] == [(round(t, 6), name) for t, name in arrivals]
    # each command's span opens at its arrival too
    assert [
        (span.start, span.name)
        for span in tracer.spans
        if span.name.startswith("plc.") and span.name != "plc.collectdisc"
    ] == [(t, f"plc.{name.lower()}") for t, name in arrivals]


def test_two_loads_of_one_tray_send_the_same_instruction_objects():
    engine, subsystem = _rig()
    sent = []
    send = subsystem.plc.execute
    subsystem.plc.execute = lambda instruction: (
        sent.append(instruction) or send(instruction)
    )
    for _ in range(2):
        engine.run_process(subsystem.load_array(0, TrayAddress(3, 1)))
        engine.run_process(subsystem.unload_array(0))
    first, second = sent[:len(sent) // 2], sent[len(sent) // 2:]
    assert len(first) == 7 + 12 + 8
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_a_sent_command_runs_as_a_process_of_its_own():
    from tests.conftest import make_ros

    ros = make_ros(auto_burn=False)
    plc = ros.mech.plc
    start, commands = ros.now, plc.commands_sent
    ros.run(plc.execute(Calibrate(0)), "calibrate")
    assert ros.now == (start + COMMAND_LATENCY) + 1.0
    assert plc.commands_sent == commands + 1
    assert plc.last_command == (start + COMMAND_LATENCY, "CALIBRATE")
