"""The one landing rule ``drives.drive.nap`` and the mechanics share."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mechanics import MechanicalSubsystem, RollerGeometry, geometry
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.plc import Rotate
from repro.sim import Delay, Engine
from repro.sim.landing import delay_until


def sleep_after(engine, lead, seconds):
    """The rule ``PLCController.execute`` inlines: sleep ``seconds``
    starting ``lead`` from now, in one occurrence."""
    if not lead:
        yield Delay(seconds)
        return
    due = (engine.now + lead) + seconds
    while engine.now < due:
        yield Delay(delay_until(engine.now, due))


def test_delay_until_steps_back_from_a_ulp_past_due():
    ulp = 2.0 ** -42  # of a double in [1024, 2048)
    now, due = 1.5 * ulp, 1024 + 5 * ulp
    assert now + (due - now) == due + ulp  # both roundings tie upwards
    delay = delay_until(now, due)
    assert delay < due - now
    assert now + delay <= due


def test_delay_until_is_the_plain_difference_when_that_lands():
    assert delay_until(100.0, 101.9) == 101.9 - 100.0
    assert delay_until(5.0, 5.0) == 0.0


def _end_of(sleeps, start):
    engine = Engine()

    def body():
        yield Delay(start)
        yield from sleeps(engine)

    engine.run_process(body())
    return engine.now, engine.events_issued


def _stepped(lead, seconds):
    def sleeps(engine):
        yield Delay(lead)
        yield Delay(seconds)

    return sleeps


def test_sleep_after_reaches_a_due_no_single_delay_lands_on():
    # ``due`` has an odd mantissa and ``now`` sits half an ULP of it off
    # the grid both ``due`` and the delay lie on: every ``now + delay`` is
    # a tie that rounds to even, so the sleep lands one ULP short and a
    # second hop finishes it.
    now, lead, seconds = 2.0 + 2.0 ** -51, 0.001, 4.5
    due = (now + lead) + seconds
    assert now + delay_until(now, due) < due
    fused = _end_of(lambda engine: sleep_after(engine, lead, seconds), now)
    assert fused == _end_of(_stepped(lead, seconds), now)


def test_sleep_after_without_a_lead_is_the_delay_itself():
    end, events = _end_of(lambda engine: sleep_after(engine, 0.0, 1.9), 0.3)
    assert (end, events) == _end_of(lambda engine: iter([Delay(1.9)]), 0.3)


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(0.0, 1e4),
    lead=st.floats(1e-6, 0.1),
    seconds=st.floats(0.0, 100.0),
)
def test_sleep_after_ends_where_the_two_delays_end(start, lead, seconds):
    fused_end, fused_events = _end_of(
        lambda engine: sleep_after(engine, lead, seconds), start
    )
    stepped_end, stepped_events = _end_of(_stepped(lead, seconds), start)
    assert fused_end.hex() == stepped_end.hex()
    assert fused_events <= stepped_events


@settings(max_examples=60, deadline=None)
@given(start=st.floats(0.0, 1e4), lead=st.floats(1e-6, 0.1))
def test_a_plc_motion_ends_where_sleep_after_does(start, lead):
    engine = Engine()
    small = RollerGeometry(layers=3, slots_per_layer=3, discs_per_tray=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "DEFAULT_GEOMETRY", small)
        plc = MechanicalSubsystem(engine, roller_count=1).plc

    def body():
        yield Delay(start)
        yield from plc.execute(Rotate(0, 1), lead)

    engine.run_process(body())
    reference = _end_of(
        lambda engine: sleep_after(engine, lead, DEFAULT_TIMINGS.rotate),
        start,
    )
    assert (engine.now.hex(), engine.events_issued) \
        == (reference[0].hex(), reference[1])
