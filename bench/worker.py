"""One workload measured in one fresh, single-threaded process.

``run.py`` starts this file as a subprocess (never two at once) and reads
the JSON object it prints last.  The process does, in order:

1. imports, input generation and one untimed warm-up repetition at a
   tenth of the size (lazy imports, allocator growth and numpy set-up
   would otherwise land in the first timed repetition);
2. timed repetitions — fresh rig each, rig set-up outside the timed
   region — until ``--seconds`` of host time are used, never fewer than
   ``MIN_REPS``;
3. with ``--trace 1``, further repetitions with ``bench.trace`` wrappers
   installed, from which the per-layer ledger is taken.

Every repetition must yield the same ``report_sha256``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The script directory comes off the path: bench/trace.py must not shadow
# the standard library's ``trace`` for anything the simulator imports.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from repro import units  # noqa: E402

from bench.ledger import per_layer_metrics, rack_counters  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS, latency_summary, report_sha256,
)

MIN_REPS = 2
#: share of a traced run's time spent on untraced repetitions (the
#: baseline the tracing overhead is measured against)
UNTRACED_SHARE = 0.4


def repeat(workload, inputs, seconds: float, one_rep) -> list[dict]:
    """Run ``one_rep`` until ``seconds`` are used; at least MIN_REPS."""
    reps = []
    began = time.perf_counter()
    while True:
        # The previous rig is cyclic garbage (engine <-> processes).  Free
        # it now, outside the timed region, or peak memory and a stray
        # full collection depend on when the collector happens to run.
        gc.collect()
        reps.append(one_rep(workload, inputs))
        elapsed = time.perf_counter() - began
        # Stop when one more repetition would overrun the budget.
        if len(reps) >= MIN_REPS and \
                elapsed + elapsed / len(reps) > seconds:
            return reps


def finished_rep(started: float, wall: float, outcome: dict) -> dict:
    """What is kept of a repetition: the report itself is reduced to its
    sha, so resident memory does not grow with the repetition count."""
    sha = report_sha256(outcome.pop("report"))
    return {"started": started, "wall_s": wall, "sha": sha,
            "outcome": outcome}


def untraced_rep(workload, inputs) -> dict:
    rig = workload.setup(inputs)
    started = time.perf_counter()
    outcome = workload.run(inputs, rig)
    wall = time.perf_counter() - started
    return finished_rep(started, wall, outcome)


def traced_rep(workload, inputs) -> dict:
    # Installed before the rig is built so every object of the run sees
    # the same (wrapped) entry points; what set-up recorded is dropped.
    tracer = Tracer().install()
    try:
        rig = workload.setup(inputs)
        before = rack_counters(rig) if rig is not None else None
        tracer.reset()
        started = time.perf_counter()
        with tracer.root():
            outcome = workload.run(inputs, rig)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    rack = rig if rig is not None else tracer.seen.get("OLFS.settle")
    after = rack_counters(rack) if rack is not None else None
    layers = per_layer_metrics(tracer, outcome, before, after)
    return dict(
        finished_rep(started, wall, outcome), layers=layers, tracer=tracer
    )


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="parent's time.perf_counter() just before it started us",
    )
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.scale)

    warm_started = time.perf_counter()
    small = workload.inputs(args.seed, args.scale * 0.1)
    workload.run(small, workload.setup(small))
    warmup_wall = time.perf_counter() - warm_started

    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    reps = repeat(workload, inputs, budget, untraced_rep)
    traced = []
    if args.trace:
        traced = repeat(
            workload, inputs, args.seconds - budget, traced_rep
        )

    # process start -> first timed repetition, minus the warm-up: imports,
    # input generation and the first rig.
    setup_s = reps[0]["started"] - args.spawned_at - warmup_wall
    first = reps[0]["outcome"]
    shas = [rep["sha"] for rep in reps + traced]
    walls = [rep["wall_s"] for rep in reps]
    summary = latency_summary(first["classes"])
    result = {
        "setup_s": setup_s,
        "warmup_wall_s": warmup_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "walls_s": walls,
        "attempted": first["attempted"],
        "ok": first["ok"],
        # Simulated results: a function of the seed alone.
        "exact": {
            "events_per_op": first["events"] / first["ok"],
            "sim_p50_s": summary["p50_s"],
            "sim_tail_s": summary["tail_s"],
            "sim_throughput_mbps": first["ok_bytes"] / first["sim_s"]
            / units.MB,
            "ok_frac": first["ok"] / first["attempted"],
        },
        "latency_class": summary,
        "checks": first["checks"],
        "report_sha256": shas[0],
        "report_stable": len(set(shas)) == 1,
        "traced_reps": len(traced),
    }
    if traced:
        wall = statistics.median(walls)
        layers = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        layers["sim.engine.events_per_wall_s"] = first["events"] / wall
        layers["bench.trace_overhead_x"] = (
            statistics.median(rep["wall_s"] for rep in traced) / wall
        )
        layers["bench.wall_iqr_frac"] = spread(walls)
        layers["bench.warmup_wall_s"] = warmup_wall
        layers["bench.reps"] = len(reps)
        result["layers"] = layers
        if args.trace_out:
            document = traced[-1]["tracer"].dump()
            document.update(
                workload=args.workload, seed=args.seed, scale=args.scale,
                report_sha256=shas[-1],
            )
            Path(args.trace_out).write_text(json.dumps(document))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
