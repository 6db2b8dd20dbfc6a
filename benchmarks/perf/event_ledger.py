"""Where a benchmark workload's engine events go, by resumed generator.

    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py rack_cold_read
    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py serve_rack --seed 7 --top 12

Runs one workload of ``bench/workloads.py`` (imported read-only, like
``bench_event_budgets.py``) once, untraced, and counts every time the
engine resumes a process in the workload's timed region, filed under the
*innermost* generator of the process's ``yield from`` chain — the function
whose ``yield`` asked for the occurrence.  Counts repeat exactly per seed;
they are what the "where the events go" tables in ``docs/performance.md``
are read off, before and after a change.

Resumptions are not quite ``events_issued`` (an alarm callback draws a
sequence number and resumes nobody; one throw can finish several frames),
so both totals are printed.

A stopgap: ROADMAP item 2 gives every occurrence an owner tag at spawn
time, which makes this a report of the engine's own counters instead of a
patched ``Engine._step``.  Until then this file is the one copy of the
ledger PRs 20, 23 and 24 each rebuilt in a scratch directory.
"""

from __future__ import annotations

import argparse
import pathlib
from collections import Counter

import repro
from bench.workloads import WORKLOADS
from repro.sim.engine import Engine

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
LANDING = str(SRC / "repro" / "sim" / "landing.py")


def innermost(generator):
    """The frame a resume lands in: the end of the ``yield from`` chain.

    ``repro.sim.landing`` sleeps on its caller's behalf (which motion is
    the question, not that it slept), so the chain ends at that caller.
    """
    while True:
        inner = getattr(generator, "gi_yieldfrom", None)
        code = getattr(inner, "gi_code", None)
        if code is None or code.co_filename == LANDING:
            return generator
        generator = inner


def where(code) -> str:
    path = pathlib.Path(code.co_filename)
    if path.is_relative_to(SRC):
        path = path.relative_to(SRC)
    name = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{path}:{name}"


def ledger(name: str, seed: int, scale: float) -> tuple[Counter, dict]:
    """Resumption counts of one repetition's timed region, and its outcome."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale)
    rig = workload.setup(inputs)
    counts: Counter = Counter()
    step = Engine._step

    def counting_step(engine, process, value, exception):
        counts[innermost(process._generator).gi_code] += 1
        step(engine, process, value, exception)

    Engine._step = counting_step
    try:
        outcome = workload.run(inputs, rig)
    finally:
        Engine._step = step
    return Counter({where(code): n for code, n in counts.items()}), outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    args = parser.parse_args(argv)

    counts, outcome = ledger(args.workload, args.seed, args.scale)
    ops, events, resumed = outcome["ok"], outcome["events"], sum(counts.values())
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {ops} ok ops, "
          f"{events} events = {events / ops:.2f} per op; "
          f"{resumed} resumptions = {resumed / ops:.2f} per op")
    print(f"{'resumptions':>12} {'per op':>8} {'share':>6}  resumed generator")
    rows = counts.most_common()
    for place, n in rows[: args.top]:
        print(f"{n:>12} {n / ops:>8.2f} {n / resumed:>6.1%}  {place}")
    rest = sum(n for _place, n in rows[args.top:])
    if rest:
        print(f"{rest:>12} {rest / ops:>8.2f} {rest / resumed:>6.1%}  "
              f"({len(rows) - args.top} more)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
