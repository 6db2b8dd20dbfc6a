"""Deterministic events-per-op budgets, on the benchmark's own workloads.

Engine events per completed op repeat exactly per seed, so they gate a
change without the host noise that forces the 30% tolerance on the
events/s floors.  The workloads are *the ones ``bench/run.py`` reports*
(``bench.workloads.WORKLOADS``, imported read-only) at the size the
benchmark runs them, ``seed=42, scale=1.0`` — so the ``events_per_op``
this file gates and the one ``BENCHMARK.json`` tracks are the same
number.  Budgets live in ``baseline.json``'s ``events_per_op`` section
and only go down — mechanically: a workload that measures more than 2 %
*under* its budget fails too ("stale budget: lower it to ..."), so the
change that saves events lowers the budget in the same commit.

The same runs count the host's side of an event: the generator frames
each engine step resumes, the stepped process's ``gi_yieldfrom`` chain,
as the engine's own :class:`~repro.sim.owners.OwnerCounter` files them.
That count repeats exactly per seed too, so ``frames_per_step`` budgets
in the same file gate the depth of the read and write paths' generator
chains by the same rule.

A third count gates the host cost of the one mechanical operation a cold
read pays for, the array swap: ``calls_per_swap`` is every Python and
builtin call ``cProfile`` sees while the engine runs a fixed sequence of
swaps on the ``rack_cold_read`` rig, the driving generator's own frame
included, over the swap count.  It repeats to the digit too, and its
budget follows the same rule.

Outside tier-1 (the four campaigns cost about 8.5 host-seconds); CI's
``perf`` job and every PR's gate list run it as::

    PYTHONPATH=src:. python -m pytest benchmarks/perf/bench_event_budgets.py -q
"""

import cProfile
import functools
import pathlib
import pstats
import sys

import pytest

from bench.workloads import WORKLOADS
from repro.perf.harness import budget_check, load_baseline
from repro.sim.owners import OwnerCounter

SEED = 42
SCALE = 1.0
BASELINE = str(pathlib.Path(__file__).parent / "baseline.json")
BUDGETS = load_baseline(BASELINE, "events_per_op")
FRAME_BUDGETS = load_baseline(BASELINE, "frames_per_step")
SWAP_BUDGETS = load_baseline(BASELINE, "calls_per_swap")

#: swaps ``calls_per_swap`` averages over, cycling through the rig's
#: first eight trays that hold discs
SWAPS = 1000
SWAP_TRAYS = 8


@functools.cache
def measure(name):
    """One repetition of ``name``: its outcome, the engine steps of its
    timed region with the generator frames they resumed, and each
    engine's gauges (largest heap and run queue, compactions)."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(SEED, SCALE)
    with OwnerCounter() as counter:
        rig = workload.setup(inputs)
        counter.clear()
        outcome = workload.run(inputs, rig)
    # the counter sees every draw events_issued counts
    assert counter.draws.total() == outcome["events"], name
    return outcome, {
        "events": counter.frames.total(), "ops": counter.steps.total()
    }, counter.gauges()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_events_per_op_within_budget(name):
    outcome, _, gauges = measure(name)
    stats = {"events": outcome["events"], "ops": outcome["ok"]}
    print(f"\n{name}: {stats['events']} events / {stats['ops']} ops = "
          f"{stats['events'] / stats['ops']:.3f} (budget {BUDGETS.get(name)}"
          f"; engine gauges {gauges})")
    # budget_check skips what has no budget; a workload must not slip
    # through that way.
    assert name in BUDGETS, f"no events_per_op budget for {name}"
    failures = budget_check({name: stats}, BUDGETS)
    assert not failures, failures


@pytest.mark.parametrize("name", sorted(FRAME_BUDGETS))
def test_frames_per_step_within_budget(name):
    _, frames, _ = measure(name)
    print(f"\n{name}: {frames['events']} frames / {frames['ops']} steps = "
          f"{frames['events'] / frames['ops']:.3f} "
          f"(budget {FRAME_BUDGETS[name]})")
    failures = budget_check({name: frames}, FRAME_BUDGETS,
                            unit="frames/step")
    assert not failures, failures


def count_swap_calls(swaps: int = SWAPS) -> int:
    """Calls ``cProfile`` counts while ``swaps`` array swaps run on a
    fresh ``rack_cold_read`` rig: roller 0 swaps to its first
    ``SWAP_TRAYS`` trays with discs in turn, as a cold read's
    ``ensure_disc_in_drive`` does (``MechanicalSubsystem.swap_array``)."""
    workload = WORKLOADS["rack_cold_read"]
    ros = workload.setup(workload.inputs(SEED, SCALE))
    mech = ros.mech
    roller = mech.rollers[0]
    trays = [
        address for address in mech.geometry.addresses()
        if not roller.tray_at(address).is_empty
    ][:SWAP_TRAYS]

    def swap_all():
        for index in range(swaps):
            yield from mech.swap_array(0, trays[index % len(trays)])

    # cProfile takes over the interpreter's profile hook; hand it back to
    # whoever held it (benchmarks/perf/reach.py's collector)
    previous = sys.getprofile()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        ros.engine.run_process(swap_all())
    finally:
        profiler.disable()
        sys.setprofile(previous)
    return sum(entry[1] for entry in pstats.Stats(profiler).stats.values())


def test_calls_per_swap_within_budget():
    name = "rack_cold_read"
    calls = count_swap_calls()
    print(f"\n{name}: {calls} calls / {SWAPS} swaps = "
          f"{calls / SWAPS:.3f} (budget {SWAP_BUDGETS.get(name)})")
    assert name in SWAP_BUDGETS, f"no calls_per_swap budget for {name}"
    failures = budget_check({name: {"events": calls, "ops": SWAPS}},
                            SWAP_BUDGETS, unit="calls/swap")
    assert not failures, failures
