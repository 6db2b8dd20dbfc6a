"""The benchmark's one command.

    python3 bench/run.py                     # all workloads, end to end
    python3 bench/run.py --workload fleet_xl # one workload
    python3 bench/run.py --trace 1           # the per-layer ledger instead
    python3 bench/run.py --list              # metrics, units, bounds

Every metric name, unit, direction and bound is read from
``BENCHMARK.json`` at the repository root; a measurement whose names
differ from the file's is an error, so the two cannot drift.

Load model: the simulator is single-threaded, so each workload runs in
fresh single-threaded subprocesses (``bench/worker.py``), one after the
other and never two at once, with ``PYTHONHASHSEED=0`` and every
``REPRO_*`` variable removed.  An end-to-end run (``--trace 0``) splits
``--seconds`` over ``WORKERS`` such processes, so set-up is measured
more than once; a traced run (``--trace 1``) uses one.

For each workload the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: worker processes per end-to-end run (set-up samples per run)
WORKERS = 2
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def list_metrics(spec: dict) -> None:
    print("command:", " ".join(spec["command"]))
    print(f"run_seconds: {spec['run_seconds']}")
    print("workloads:")
    for workload in spec["workloads"]:
        print(f"  {workload['name']:16s} {workload['why']}")
    print("end_to_end:")
    for metric in spec["end_to_end"]:
        print(
            f"  {metric['name']:22s} {metric['unit']:8s} "
            f"{metric['better']:7s} bound {metric['bound']:.0%}"
        )
    print("per_layer:")
    for metric in spec["per_layer"]:
        print(
            f"  {metric['name']:36s} {metric['unit']:8s} {metric['better']}"
        )


def worker_env() -> dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    for variable in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    ):
        env[variable] = "1"
    return env


def run_worker(name: str, args, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        command += ["--trace-out", str(OUT / f"trace-{name}.json")]
    command += ["--spawned-at", repr(time.perf_counter())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s")
    if process.returncode != 0:
        raise SystemExit(
            f"{name}: worker exited with code {process.returncode}"
        )
    return json.loads(stdout.splitlines()[-1])


def measure(name: str, args, spec: dict) -> dict:
    """Run one workload; returns its result document."""
    if args.trace:
        workers = [run_worker(name, args, args.seconds, 1)]
    else:
        workers = [
            run_worker(name, args, args.seconds / WORKERS, 0)
            for _ in range(WORKERS)
        ]
    first = workers[0]
    walls = [wall for worker in workers for wall in worker["walls_s"]]
    stable = all(
        worker["report_stable"]
        and worker["report_sha256"] == first["report_sha256"]
        and worker["exact"] == first["exact"]
        for worker in workers
    )
    checks = dict(first["checks"], report_stable=stable)
    reps = len(walls) + first["traced_reps"]

    if args.trace:
        metrics = first["layers"]
        listed = spec["per_layer"]
    else:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "wall_s": wall,
            "ops_per_wall_s": first["ok"] / wall,
            "peak_rss_mb": statistics.median(
                w["peak_rss_mb"] for w in workers
            ),
            **first["exact"],
            "report_stable": float(stable),
        }
        listed = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics measured and metrics in BENCHMARK.json differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    return {
        "correct": all(checks.values()),
        "attempted": first["attempted"] * reps,
        "failed": (first["attempted"] - first["ok"]) * reps,
        "metrics": {
            metric["name"]: {
                "value": metrics[metric["name"]], "unit": metric["unit"],
            }
            for metric in listed
        },
        # beyond the contract's four keys: kept in --out files only
        "checks": checks,
        "ops_per_rep": first["attempted"],
        "report_sha256": first["report_sha256"],
        "latency_class": first["latency_class"],
        "walls_s": walls,
    }


def render(name: str, result: dict, spec: dict, trace: int) -> None:
    """Human-readable block: every metric by name, with unit and n."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    latency = result["latency_class"]
    print(
        f"== {name}  sha256 {result['report_sha256'][:16]}  "
        f"untraced reps {len(result['walls_s'])}  "
        f"ops/rep {result['ops_per_rep']}"
    )
    for metric in listed:
        value = result["metrics"][metric["name"]]["value"]
        note = ""
        if metric["name"] in ("wall_s", "ops_per_wall_s"):
            note = f"median of n={len(result['walls_s'])} repetitions"
        elif metric["name"] in ("sim_p50_s", "sim_tail_s"):
            tail = latency["tail"] if metric["name"] == "sim_tail_s" \
                else "p50_s"
            note = f"{tail} of class {latency['class']}, n={latency['n']}"
        elif metric["name"].startswith("accuracy.") and value < 0:
            note = "unvalidated: the paper gives no reference"
        print(
            f"  {metric['name']:36s} {value:>16.6g} {metric['unit']:8s}"
            f" {note}"
        )
    for check, passed in sorted(result["checks"].items()):
        print(f"  check {check:30s} {'ok' if passed else 'FAILED'}")


def main(argv: list[str]) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=42,
                        help="input-generation seed (1337 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="host seconds one run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer ledger instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke use)")
    parser.add_argument("--out", default=None,
                        help="also write the result set to this file")
    parser.add_argument("--list", action="store_true",
                        help="print metrics, units and bounds, then exit")
    args = parser.parse_args(argv)

    if args.list:
        list_metrics(spec)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ — nothing to "
              "measure", file=sys.stderr)
        return 2

    results = {}
    for name in [args.workload] if args.workload else names:
        result = measure(name, args, spec)
        results[name] = result
        render(name, result, spec, args.trace)
        print(json.dumps({
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "workloads": results,
        }, indent=1))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
