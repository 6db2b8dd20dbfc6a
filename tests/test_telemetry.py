"""Tests for the telemetry sampler: a periodic tick on the simulated clock."""

import pytest

from repro.sim import Delay, Engine
from repro.sim.telemetry import Sampler


def test_sampler_collects_series():
    engine = Engine()
    state = {"x": 0.0}
    values = []
    sampler = Sampler(
        engine, period=1.0, on_tick=lambda _now: values.append(state["x"])
    )
    sampler.start()

    def mutator():
        for value in range(5):
            state["x"] = float(value)
            yield Delay(1.0)
        sampler.stop()

    engine.run_process(mutator())
    engine.run(until=engine.now + 2)
    assert values  # ticked while the mutator ran
    assert values == sorted(values)  # monotone, tracks the mutation


def test_sampler_horizon_ends_collection():
    engine = Engine()
    ticks = []
    Sampler(engine, period=1.0, on_tick=ticks.append, horizon=5.0).start()
    engine.run(until=100.0)
    assert len(ticks) == 5


def test_sampler_validation():
    engine = Engine()
    with pytest.raises(ValueError):
        Sampler(engine, period=0.0, on_tick=lambda _now: None)
    with pytest.raises(ValueError):
        Sampler(engine, period=-1.0, on_tick=lambda _now: None)


def test_sampler_stop_is_immediate():
    """stop() interrupts the sampler process instead of waiting a tick."""
    engine = Engine()
    ticks = []
    sampler = Sampler(engine, period=1.0, on_tick=ticks.append).start()
    engine.run(until=2.5)
    sampler.stop()
    # A no-horizon drain returns because the process was interrupted at
    # its mid-period Delay — otherwise it would tick forever.
    engine.run()
    assert engine.is_idle
    assert engine.now == 2.5
    assert ticks == [1.0, 2.0]


def test_sampler_zero_length_series_after_immediate_stop():
    engine = Engine()
    ticks = []
    sampler = Sampler(engine, period=1.0, on_tick=ticks.append).start()
    sampler.stop()
    engine.run()
    assert engine.is_idle
    assert ticks == []


def test_sampler_stop_is_idempotent():
    engine = Engine()
    ticks = []
    sampler = Sampler(engine, period=1.0, on_tick=ticks.append).start()
    sampler.stop()
    sampler.stop()  # second stop must not raise or double-interrupt
    engine.run()
    assert engine.is_idle
    assert ticks == []


def test_sampler_horizon_on_tick_boundary_includes_boundary_sample():
    """A tick landing exactly on the horizon still runs."""
    engine = Engine()
    ticks = []
    Sampler(engine, period=1.5, on_tick=ticks.append, horizon=3.0).start()
    engine.run(until=20.0)
    assert ticks == [1.5, 3.0]


def test_sampler_restarts_after_stop():
    """start() after stop() resumes ticking (the monitor's pause path)."""
    engine = Engine()
    ticks = []
    sampler = Sampler(engine, period=1.0, on_tick=ticks.append).start()
    engine.run(until=2.0)
    sampler.stop()
    engine.run(until=5.0)
    assert ticks == [1.0, 2.0]
    sampler.start()
    engine.run(until=8.0)
    assert ticks == [1.0, 2.0, 6.0, 7.0, 8.0]
    sampler.stop()
    engine.run()
    assert engine.is_idle


def test_sampler_stop_from_on_tick_callback():
    """stop() from inside the running process (no suspension) is safe."""
    engine = Engine()
    ticks = []

    def tick(now):
        ticks.append(now)
        if now >= 2.0:
            sampler.stop()

    sampler = Sampler(engine, period=1.0, on_tick=tick)
    sampler.start()
    engine.run()
    assert engine.is_idle
    assert ticks == [1.0, 2.0]


def test_sampler_on_tick_receives_the_clock():
    engine = Engine()
    ticks = []
    Sampler(engine, period=1.0, on_tick=ticks.append, horizon=3.0).start()
    engine.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_sampler_on_live_system():
    """Sample buffer occupancy while a rack ingests and burns."""
    from tests.conftest import make_ros

    ros = make_ros()
    volume = ros.buffer_volumes[0]
    values = []
    sampler = Sampler(
        ros.engine,
        period=20.0,
        on_tick=lambda _now: values.append(float(volume.used)),
    ).start()
    for index in range(8):
        ros.write(f"/tl/f{index}.bin", b"t" * 25000)
    ros.flush()
    sampler.stop()
    ros.drain_background()
    assert values
    # Occupancy moves over the run (burn + cache eviction release space).
    assert min(values) < max(values)


def test_sampler_stop_raises_what_a_tick_raised():
    """A raising on_tick ends the sampling, and stop() hands its error to
    the caller instead of leaving the run with a silent, empty series."""
    engine = Engine()
    ticks = []

    def tick(now):
        ticks.append(now)
        if now >= 2.0:
            raise ValueError("probe broke")

    sampler = Sampler(engine, period=1.0, on_tick=tick).start()
    engine.run(until=5.0)
    assert ticks == [1.0, 2.0]  # no tick after the one that raised
    with pytest.raises(ValueError, match="probe broke"):
        sampler.stop()
    sampler.stop()  # raised once; idempotent afterwards
    assert engine.is_idle


def test_monitor_finish_raises_what_a_probe_raised():
    from tests.conftest import make_ros

    ros = make_ros(monitoring=True)

    def broken_probe():
        raise RuntimeError("probe broke")

    ros.monitor.probes["broken"] = broken_probe
    ros.engine.run(until=ros.now + 3 * ros.monitor.sampler.period)
    with pytest.raises(RuntimeError, match="probe broke"):
        ros.monitor.finish()
