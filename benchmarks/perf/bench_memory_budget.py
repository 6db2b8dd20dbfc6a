"""Traced-peak memory budgets, on the benchmark's own workloads.

The budget is ``tracemalloc``'s peak, in MB (10^6 bytes), over one
repetition of a ``bench/workloads.py`` workload (imported read-only) at
``seed=42, scale=1.0``: what ``peak_rss_mb`` in ``bench/run.py`` tracks,
without the interpreter, the libraries and the host's allocator under it.
Each measurement runs in a fresh interpreter with ``PYTHONHASHSEED=0``, so
no other test's objects or first imports count, and the figure repeats
from run to run like an event count.  Budgets live in ``baseline.json``'s
``traced_peak_mb`` section and follow the events-per-op rule: they only
go down, a rise of more than 1 % fails, and a budget more than 2 % above
what its workload measures is stale ("lower it to ...").  Run as::

    PYTHONPATH=src:. python -m pytest benchmarks/perf/bench_memory_budget.py -q
    PYTHONPATH=src:. python benchmarks/perf/bench_memory_budget.py serve_rack
"""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from repro.perf.harness import budget_check, load_baseline

SEED = 42
SCALE = 1.0
SLACK = 0.01
BASELINE = str(pathlib.Path(__file__).parent / "baseline.json")
BUDGETS = load_baseline(BASELINE, "traced_peak_mb")


def traced_peak_mb(name: str) -> float:
    """The traced peak of one repetition of workload ``name``, in MB."""
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracemalloc.start()
    inputs = workload.inputs(SEED, SCALE)
    workload.run(inputs, workload.setup(inputs))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_traced_peak_within_budget(name):
    env = dict(os.environ, PYTHONHASHSEED="0")
    measured = subprocess.run(
        [sys.executable, __file__, name],
        capture_output=True, text=True, check=True, env=env,
        cwd=pathlib.Path(__file__).parents[2],
    )
    peak = float(measured.stdout.split()[-1])
    print(f"\n{name}: traced peak {peak:.2f} MB (budget {BUDGETS[name]})")
    failures = budget_check(
        {name: {"events": peak, "ops": 1}}, BUDGETS, slack=SLACK,
        unit="MB traced peak",
    )
    assert not failures, failures


if __name__ == "__main__":
    print(f"{traced_peak_mb(sys.argv[1]):.3f}")
