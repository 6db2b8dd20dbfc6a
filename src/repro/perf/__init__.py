"""Performance harness: engine microbenches, scenario wall-clock, perf gate.

The simulator's event-loop throughput is the practical ceiling on how many
scenarios we can explore (SimFS makes the same argument for filesystem
simulation), so it is tracked as a first-class metric:

* :mod:`repro.perf.microbench` — synthetic engine workloads measured in
  events per second (delay chains, event ping-pong, spawn/join fan-out,
  shared-bandwidth flow churn);
* :mod:`repro.perf.scenarios` — three canonical end-to-end scenarios
  (cold read, longevity slice, chaos campaign) measured in wall seconds;
* :mod:`repro.perf.harness` — runs both suites, appends the results to
  the repo-root ``BENCH_engine.json`` trajectory, gates against the
  committed ``benchmarks/perf/baseline.json``, and drives the cProfile
  hotspot report behind ``python -m repro profile``.

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
from repro.perf.scenarios import SCENARIOS, run_scenarios

__all__ = [
    "MICROBENCHES",
    "SCENARIOS",
    "append_trajectory",
    "budget_check",
    "gate_check",
    "load_baseline",
    "profile_target",
    "run_benchmarks",
    "run_microbenches",
    "run_scenarios",
]
