"""Perf-gate plumbing: trajectory file, baseline gate, profile runner.

``BENCH_engine.json`` (repo root) is the cross-PR perf trajectory: every
``repro bench`` run appends one entry, so the file reads as a history of
event-loop throughput over the life of the repository.

``benchmarks/perf/baseline.json`` is the committed gate: CI runs
``repro bench --check`` and fails when any microbench drops more than
``tolerance`` (default 30%) below the baseline's events/s, or when a
scenario spends more engine events per op than its budget there.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from pathlib import Path
from typing import Dict, Optional

from repro.perf.microbench import MICROBENCHES, run_microbenches
from repro.perf.scenarios import SCENARIOS, run_scenarios

#: default locations, relative to the repository root / current directory
TRAJECTORY_PATH = "BENCH_engine.json"
BASELINE_PATH = "benchmarks/perf/baseline.json"
DEFAULT_TOLERANCE = 0.30
#: Events per op repeat exactly per seed; the slack only absorbs
#: float/library differences between hosts.
EVENTS_PER_OP_SLACK = 0.005


def run_benchmarks(
    scale: float = 1.0,
    repeats: int = 3,
    scenarios: bool = True,
    monitor: bool = False,
) -> dict:
    """Run the microbench suite (and optionally scenarios); one entry dict.

    ``monitor=True`` attaches :mod:`repro.obs` run monitoring to the
    scenarios that support it — each such scenario's stats then carry a
    ``run_report`` key (the same report ``repro monitor`` emits).
    """
    entry: dict = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "events_per_sec": {
            name: round(value)
            for name, value in run_microbenches(scale, repeats).items()
        },
    }
    if scenarios:
        entry["scenarios"] = run_scenarios(monitor=monitor)
    return entry


def append_trajectory(entry: dict, path: str = TRAJECTORY_PATH) -> dict:
    """Append ``entry`` to the trajectory file, creating it if missing."""
    target = Path(path)
    if target.exists():
        data = json.loads(target.read_text())
    else:
        data = {
            "unit": "events_per_sec: engine microbench throughput; "
                    "scenarios: wall_seconds per canonical scenario",
            "trajectory": [],
        }
    data["trajectory"].append(entry)
    target.write_text(json.dumps(data, indent=2) + "\n")
    return data


def load_baseline(
    path: str = BASELINE_PATH, section: str = "events_per_sec"
) -> Dict[str, float]:
    """One section of the committed baseline file: ``events_per_sec``
    floors per microbench, or ``events_per_op`` budgets per scenario
    (empty when the file records none)."""
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
    scenarios: Dict[str, dict],
    budgets: Dict[str, float],
    slack: float = EVENTS_PER_OP_SLACK,
) -> list[str]:
    """Failure messages for scenarios above ``(1 + slack) * budget``
    engine events per op.

    Only a rise fails: spending fewer events is the point.  A scenario
    with no budget, or that reports no ``events``/``ops``, is not gated.
    """
    failures = []
    for name, budget in budgets.items():
        stats = scenarios.get(name, {})
        if not stats.get("ops") or "events" not in stats:
            continue
        measured = stats["events"] / stats["ops"]
        if measured > budget * (1.0 + slack):
            failures.append(
                f"{name}: {measured:.2f} events/op is over its budget "
                f"({budget:.2f} + {slack:.1%}; {stats['events']} events "
                f"/ {stats['ops']} ops)"
            )
    return failures


def profile_target(
    name: str, top: int = 15, scale: float = 1.0
) -> tuple[str, Optional[dict]]:
    """cProfile a scenario or microbench; (report text, scenario stats).

    ``name`` may be any key of :data:`SCENARIOS` or :data:`MICROBENCHES`.
    """
    stats_out: Optional[dict] = None
    if name in SCENARIOS:
        fn = SCENARIOS[name]
        profiler = cProfile.Profile()
        profiler.enable()
        stats_out = fn()
        profiler.disable()
    elif name in MICROBENCHES:
        bench, default_n = MICROBENCHES[name]
        n = max(64, int(default_n * scale))
        profiler = cProfile.Profile()
        profiler.enable()
        bench(n)
        profiler.disable()
    else:
        known = ", ".join(sorted([*SCENARIOS, *MICROBENCHES]))
        raise KeyError(f"unknown profile target {name!r} (known: {known})")
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("tottime").print_stats(top)
    return buffer.getvalue(), stats_out
