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

:func:`register` adds ``repro bench`` and ``repro profile``, with the
defaults below and those of :func:`run_benchmarks` / :func:`profile_target`.
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
from repro.report import print_rows, run_flags, run_kwargs

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
    unit: str = "events/op",
) -> list[str]:
    """Failure messages for workloads above ``(1 + slack) * budget``
    engine events per op, or more than ``STALE_BUDGET_SLACK`` below it.
    Any other ratio gates the same way, given as ``events`` over ``ops``
    and named by ``unit`` (generator frames resumed per engine step).

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
                f"{name}: {measured:.2f} {unit} is over its budget "
                f"({budget:.2f} + {slack:.1%}; {stats['events']} "
                f"/ {stats['ops']})"
            )
        elif measured < budget * (1.0 - STALE_BUDGET_SLACK):
            lower = math.ceil(measured * 100) / 100
            failures.append(f"{name}: stale budget: lower it to {lower} "
                            f"({measured:.3f} {unit} against {budget:.2f})")
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


def cmd_bench(args) -> int:
    """Engine microbenches (events/s), with the floor gate."""
    entry = run_benchmarks(**run_kwargs(run_benchmarks, args))
    if args.label:
        entry["label"] = args.label

    print_rows([
        {"microbench": name, "events_per_sec": value}
        for name, value in entry["events_per_sec"].items()
    ])

    if args.out:
        append_trajectory(entry, args.out)
        print(f"appended to {args.out}")

    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"perf gate SKIPPED: no baseline at {args.baseline}")
            return 0
        failures = gate_check(
            entry["events_per_sec"], baseline, tolerance=args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"PERF GATE FAILED: {failure}")
            return 1
        print(f"perf gate ok (tolerance {args.tolerance:.0%} "
              f"below {args.baseline})")
    return 0


def cmd_profile(args) -> int:
    """cProfile one microbench and print the top-N hotspots."""
    try:
        report = profile_target(**run_kwargs(profile_target, args))
    except KeyError as error:
        print(error.args[0])
        return 2
    print(report)
    return 0


def register(sub) -> None:
    bench = sub.add_parser(
        "bench", help="engine microbench events/s, perf-floor gate"
    )
    run_flags(bench, run_benchmarks, {
        "repeats": {"aliases": ["--repeat"],
                    "help": "runs per microbench, best kept; best-of-N is "
                            "the noise defence, see docs/performance.md"},
        "scale": "multiplier on microbench event counts",
    })
    bench.add_argument("--label", default="",
                       help="tag for this trajectory entry")
    bench.add_argument("--out", default=TRAJECTORY_PATH,
                       help="trajectory file to append to "
                            "(default %(default)s; '' to skip)")
    bench.add_argument("--check", action="store_true",
                       help="fail if events/s drops below the baseline gate")
    bench.add_argument("--baseline", default=BASELINE_PATH,
                       help="committed baseline for --check "
                            "(default %(default)s)")
    bench.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="allowed fractional drop below baseline "
                            "(default %(default)s)")
    bench.set_defaults(handler=cmd_bench)

    profile = sub.add_parser(
        "profile", help="cProfile an engine microbench, top-N hotspots"
    )
    profile.add_argument("name", metavar="target",
                         help=f"microbench ({', '.join(MICROBENCHES)})")
    run_flags(profile, profile_target, {
        "top": "number of hotspot rows",
        "scale": "multiplier on microbench event counts",
    })
    profile.set_defaults(handler=cmd_profile)
