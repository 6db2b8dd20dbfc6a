"""Performance harness: engine microbenches, perf gate, trajectory.

The simulator's event-loop throughput is the practical ceiling on how many
scenarios we can explore (SimFS makes the same argument for filesystem
simulation), so it is tracked as a first-class metric.  This package holds
only what has to run *inside* the process:

* :mod:`repro.perf.microbench` — synthetic engine workloads measured in
  events per second (delay chains, event ping-pong, spawn/join fan-out,
  shared-bandwidth flow churn);
* :mod:`repro.perf.harness` — runs that suite, appends the results to
  the repo-root ``BENCH_engine.json`` trajectory, gates them against the
  floors in ``benchmarks/perf/baseline.json``, checks deterministic
  events-per-op budgets (:func:`budget_check`, fed by
  ``benchmarks/perf/bench_event_budgets.py``), and drives the cProfile
  hotspot report behind ``python -m repro profile``.

Whole campaigns — wall time, memory, simulated latency, the per-layer
ledger — are measured from outside by ``bench/run.py`` (``BENCHMARK.json``).

CLI entry points: ``python -m repro bench`` and ``python -m repro profile``.
"""

from repro.perf.harness import (
    append_trajectory,
    budget_check,
    gate_check,
    load_baseline,
    profile_target,
    run_benchmarks,
)
from repro.perf.microbench import MICROBENCHES, run_microbenches

__all__ = [
    "MICROBENCHES",
    "append_trajectory",
    "budget_check",
    "gate_check",
    "load_baseline",
    "profile_target",
    "run_benchmarks",
    "run_microbenches",
]
