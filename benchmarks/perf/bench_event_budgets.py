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

Outside tier-1 (the four campaigns cost about 8.5 host-seconds); CI's
``perf`` job and every PR's gate list run it as::

    PYTHONPATH=src:. python -m pytest benchmarks/perf/bench_event_budgets.py -q
"""

import pathlib

import pytest

from bench.workloads import WORKLOADS
from repro.perf.harness import budget_check, load_baseline

SEED = 42
SCALE = 1.0
BUDGETS = load_baseline(
    str(pathlib.Path(__file__).parent / "baseline.json"), "events_per_op"
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_events_per_op_within_budget(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(SEED, SCALE)
    outcome = workload.run(inputs, workload.setup(inputs))
    stats = {"events": outcome["events"], "ops": outcome["ok"]}
    print(f"\n{name}: {stats['events']} events / {stats['ops']} ops = "
          f"{stats['events'] / stats['ops']:.3f} (budget {BUDGETS.get(name)})")
    # budget_check skips what has no budget; a workload must not slip
    # through that way.
    assert name in BUDGETS, f"no events_per_op budget for {name}"
    failures = budget_check({name: stats}, BUDGETS)
    assert not failures, failures
