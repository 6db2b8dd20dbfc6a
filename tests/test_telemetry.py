"""Tests for the telemetry sampler."""

import pytest

from repro.sim import Delay, Engine
from repro.sim.telemetry import Sampler


def test_sampler_collects_series():
    engine = Engine()
    state = {"x": 0.0}
    sampler = Sampler(engine, period=1.0, probes={"x": lambda: state["x"]})
    sampler.start()

    def mutator():
        for value in range(5):
            state["x"] = float(value)
            yield Delay(1.0)
        sampler.stop()

    engine.run_process(mutator())
    engine.run(until=engine.now + 2)
    values = sampler.values("x")
    assert values  # sampled something
    assert values == sorted(values)  # monotone, tracks the mutation


def test_sampler_horizon_ends_collection():
    engine = Engine()
    sampler = Sampler(
        engine, period=1.0, probes={"c": lambda: 1.0}, horizon=5.0
    ).start()
    engine.run(until=100.0)
    assert len(sampler.values("c")) == 5


def test_sampler_statistics():
    engine = Engine()
    counter = {"n": 0.0}

    def probe():
        counter["n"] += 1
        return counter["n"]

    sampler = Sampler(
        engine, period=2.0, probes={"n": probe}, horizon=10.0
    ).start()
    engine.run(until=20.0)
    assert sampler.peak("n") == 5.0
    assert sampler.mean("n") == 3.0


def test_sampler_validation():
    engine = Engine()
    with pytest.raises(ValueError):
        Sampler(engine, period=0.0, probes={"x": lambda: 0})
    with pytest.raises(ValueError):
        Sampler(engine, period=1.0, probes={})


def test_sampler_stop_is_immediate():
    """stop() interrupts the sampler process instead of waiting a tick."""
    engine = Engine()
    sampler = Sampler(engine, period=1.0, probes={"x": lambda: 1.0}).start()
    engine.run(until=2.5)
    sampler.stop()
    # A no-horizon drain returns because the process was interrupted at
    # its mid-period Delay — before the fix it would tick forever.
    engine.run()
    assert engine.is_idle
    assert len(sampler.values("x")) == 2  # t=1 and t=2 only


def test_sampler_zero_length_series_after_immediate_stop():
    engine = Engine()
    sampler = Sampler(engine, period=1.0, probes={"x": lambda: 1.0}).start()
    sampler.stop()
    engine.run()
    assert sampler.values("x") == []
    assert sampler.peak("x") == 0.0
    assert sampler.mean("x") == 0.0


def test_sampler_stop_is_idempotent():
    engine = Engine()
    sampler = Sampler(engine, period=1.0, probes={"x": lambda: 1.0}).start()
    sampler.stop()
    sampler.stop()  # second stop must not raise or double-interrupt
    engine.run()
    assert engine.is_idle


def test_sampler_horizon_on_tick_boundary_includes_boundary_sample():
    """A tick landing exactly on the horizon is still collected."""
    engine = Engine()
    sampler = Sampler(
        engine, period=1.5, probes={"x": lambda: 1.0}, horizon=3.0
    ).start()
    engine.run(until=20.0)
    times = [t for t, _ in sampler.series["x"]]
    assert times == [1.5, 3.0]


def test_sampler_restarts_after_stop():
    """start() after stop() resumes sampling (the monitor's pause path)."""
    engine = Engine()
    sampler = Sampler(engine, period=1.0, probes={"x": lambda: 1.0}).start()
    engine.run(until=2.0)
    sampler.stop()
    engine.run(until=5.0)
    paused_count = len(sampler.values("x"))
    sampler.start()
    engine.run(until=8.0)
    assert len(sampler.values("x")) > paused_count
    sampler.stop()
    engine.run()
    assert engine.is_idle


def test_sampler_stop_from_on_tick_callback():
    """stop() from inside the running process (no suspension) is safe."""
    engine = Engine()
    holder = {}

    def tick(now):
        if now >= 2.0:
            holder["sampler"].stop()

    sampler = Sampler(
        engine, period=1.0, probes={"x": lambda: 1.0}, on_tick=tick
    )
    holder["sampler"] = sampler
    sampler.start()
    engine.run()
    assert engine.is_idle
    assert len(sampler.values("x")) == 2


def test_sampler_on_tick_only_needs_no_probes():
    engine = Engine()
    ticks = []
    sampler = Sampler(
        engine, period=1.0, probes={}, on_tick=ticks.append, horizon=3.0
    ).start()
    engine.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert sampler.series == {}


def test_sampler_on_live_system():
    """Sample buffer occupancy while a rack ingests and burns."""
    from tests.conftest import make_ros

    ros = make_ros()
    volume = ros.buffer_volumes[0]
    sampler = Sampler(
        ros.engine,
        period=20.0,
        probes={"buffer_used": lambda: float(volume.used)},
    ).start()
    for index in range(8):
        ros.write(f"/tl/f{index}.bin", b"t" * 25000)
    ros.flush()
    sampler.stop()
    ros.drain_background()
    values = sampler.values("buffer_used")
    assert values
    # Occupancy moves over the run (burn + cache eviction release space).
    assert min(values) < max(values)
