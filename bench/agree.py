"""Do two result sets agree?

    python3 bench/agree.py                       # measure twice, compare
    python3 bench/agree.py --a A.json --b B.json # compare saved sets
    python3 bench/agree.py --a a1.json a2.json --b b1.json b2.json

A result set is what ``bench/run.py --out FILE`` writes.  Several files
on a side are reduced to their per-metric median first (an A/B claim
runs at least ten alternating pairs).  For every workload and end-to-end
metric the table gives both medians, how much worse B is than A as a
share of A, and the metric's bound from ``BENCHMARK.json``.

Exit code 1 when a host-time metric differs by more than its bound in
either direction, or when a simulated metric or a ``report_sha256``
differs at all: those are functions of the seed alone, so two sets of
one commit and one seed must match exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: end-to-end metrics measured on the host clock; the rest repeat exactly
HOST_TIME = {"setup_s", "wall_s", "ops_per_wall_s", "peak_rss_mb"}


def measure(tag: str, seed: int, scale: float) -> Path:
    out = BENCH / "out" / f"agree-{tag}.json"
    out.parent.mkdir(exist_ok=True)
    subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--seed", str(seed), "--scale", str(scale), "--out", str(out),
        ],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return out


def load_side(paths: list[str]) -> tuple[dict, dict, tuple]:
    """-> ({workload: {metric: median}}, {workload: {sha, ...}}, settings)"""
    sets = [json.loads(Path(path).read_text()) for path in paths]
    settings = {
        (s["seed"], s["scale"], s["seconds"], s["trace"]) for s in sets
    }
    if len(settings) != 1:
        raise SystemExit(f"result sets with different settings: {paths}")
    medians, shas = {}, {}
    for name in sets[0]["workloads"]:
        runs = [s["workloads"][name] for s in sets]
        medians[name] = {
            metric: statistics.median(
                run["metrics"][metric]["value"] for run in runs
            )
            for metric in runs[0]["metrics"]
        }
        shas[name] = {run["report_sha256"] for run in runs}
    return medians, shas, settings.pop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--a", nargs="+", default=None)
    parser.add_argument("--b", nargs="+", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if (args.a is None) != (args.b is None):
        parser.error("give both --a and --b, or neither")
    if args.a is None:
        args.a = [str(measure("a", args.seed, args.scale))]
        args.b = [str(measure("b", args.seed, args.scale))]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    medians_a, shas_a, settings_a = load_side(args.a)
    medians_b, shas_b, settings_b = load_side(args.b)
    if settings_a != settings_b:
        raise SystemExit(
            f"sides measured differently: {settings_a} vs {settings_b}"
        )

    disagreements = 0
    for name in medians_a:
        same_sha = shas_a[name] == shas_b[name] and len(shas_a[name]) == 1
        print(f"== {name}  report_sha256 "
              f"{'identical' if same_sha else 'DIFFERS'}")
        disagreements += not same_sha
        for metric in spec["end_to_end"]:
            a = medians_a[name][metric["name"]]
            b = medians_b[name][metric["name"]]
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            if metric["name"] in HOST_TIME:
                agrees = abs(worse) <= metric["bound"]
                rule = f"bound {metric['bound']:.0%}"
            else:
                agrees = a == b
                rule = "exact"
            disagreements += not agrees
            print(
                f"  {metric['name']:22s} A {a:>14.6g}  B {b:>14.6g}  "
                f"B worse by {worse:+8.2%}  {rule:10s} "
                f"{'ok' if agrees else 'DISAGREES'}"
            )
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
