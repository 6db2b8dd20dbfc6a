"""Perf-gate plumbing: trajectory file, baseline gate, profile runner.

``BENCH_engine.json`` (repo root) is the cross-PR perf trajectory: every
``repro bench`` run appends one entry, so the file reads as a history of
event-loop throughput over the life of the repository.

``benchmarks/perf/baseline.json`` is the committed gate, in two
sections.  ``events_per_sec``: CI runs ``repro bench --check`` and fails
when any microbench drops more than ``tolerance`` (default 30%) below
its floor.  ``events_per_op``: ``benchmarks/perf/bench_event_budgets.py``
runs the benchmark's own workloads (``bench/workloads.py``) and fails
when one spends more engine events per op than its budget
(:func:`budget_check`).  End-to-end wall time, memory and the per-layer
ledger are ``bench/run.py``'s job, not this package's.
"""

from __future__ import annotations

import cProfile
import io
import json
import math
import pstats
import time
from pathlib import Path
from typing import Dict

from repro.perf.microbench import MICROBENCHES, run_microbenches

#: default locations, relative to the repository root / current directory
TRAJECTORY_PATH = "BENCH_engine.json"
BASELINE_PATH = "benchmarks/perf/baseline.json"
DEFAULT_TOLERANCE = 0.30
#: Events per op repeat exactly per seed; the slack only absorbs
#: float/library differences between hosts.
EVENTS_PER_OP_SLACK = 0.005
STALE_BUDGET_SLACK = 0.02  #: a budget this far above its workload is stale


def run_benchmarks(scale: float = 1.0, repeats: int = 3) -> dict:
    """Run the microbench suite; one trajectory entry dict."""
    return {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "events_per_sec": {
            name: round(value)
            for name, value in run_microbenches(scale, repeats).items()
        },
    }


def append_trajectory(entry: dict, path: str = TRAJECTORY_PATH) -> dict:
    """Append ``entry`` to the trajectory file, creating it if missing."""
    target = Path(path)
    if target.exists():
        data = json.loads(target.read_text())
    else:
        data = {
            "unit": "events_per_sec: engine microbench throughput",
            "trajectory": [],
        }
    data["trajectory"].append(entry)
    target.write_text(json.dumps(data, indent=2) + "\n")
    return data


def load_baseline(
    path: str = BASELINE_PATH, section: str = "events_per_sec"
) -> Dict[str, float]:
    """One section of the committed baseline file: ``events_per_sec``
    floors per microbench, or ``events_per_op`` budgets per benchmark
    workload (empty when the file records none)."""
    data = json.loads(Path(path).read_text())
    return {str(k): float(v) for k, v in data.get(section, {}).items()}


def gate_check(
    results: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Failure messages for benches below ``(1 - tolerance) * baseline``.

    Benches present in only one of the two dicts are skipped — adding a
    new microbench must not fail the gate until a baseline is recorded.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures = []
    for name, floor_source in baseline.items():
        measured = results.get(name)
        if measured is None:
            continue
        floor = floor_source * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{name}: {measured:.0f}/s is below the perf gate "
                f"({floor:.0f}/s = baseline {floor_source:.0f}/s "
                f"- {tolerance:.0%})"
            )
    return failures


def budget_check(
    workloads: Dict[str, dict],
    budgets: Dict[str, float],
    slack: float = EVENTS_PER_OP_SLACK,
) -> list[str]:
    """Failure messages for workloads above ``(1 + slack) * budget``
    engine events per op, or more than ``STALE_BUDGET_SLACK`` below it.

    A saving lowers the budget with it, so slack never piles up.  A workload
    with no budget, or that reports no ``events``/``ops``, is not gated.
    """
    failures = []
    for name, budget in budgets.items():
        stats = workloads.get(name, {})
        if not stats.get("ops") or "events" not in stats:
            continue
        measured = stats["events"] / stats["ops"]
        if measured > budget * (1.0 + slack):
            failures.append(
                f"{name}: {measured:.2f} events/op is over its budget "
                f"({budget:.2f} + {slack:.1%}; {stats['events']} events "
                f"/ {stats['ops']} ops)"
            )
        elif measured < budget * (1.0 - STALE_BUDGET_SLACK):
            lower = math.ceil(measured * 100) / 100
            failures.append(f"{name}: stale budget: lower it to {lower} "
                            f"({measured:.3f} events/op against {budget:.2f})")
    return failures


def profile_target(name: str, top: int = 15, scale: float = 1.0) -> str:
    """cProfile one microbench (a key of :data:`MICROBENCHES`); the
    top-``top`` hotspot report by self time."""
    if name not in MICROBENCHES:
        known = ", ".join(sorted(MICROBENCHES))
        raise KeyError(f"unknown profile target {name!r} (known: {known})")
    bench, default_n = MICROBENCHES[name]
    n = max(64, int(default_n * scale))
    profiler = cProfile.Profile()
    profiler.enable()
    bench(n)
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("tottime").print_stats(top)
    return buffer.getvalue()
