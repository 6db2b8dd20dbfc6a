"""Where a benchmark workload's engine events go, by generator.

    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py rack_cold_read
    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py serve_rack --seed 7 --top 12

Runs one workload of ``bench/workloads.py`` (imported read-only, like
``bench_event_budgets.py``) once, untraced, and keeps two ledgers of the
workload's timed region:

* **sequence draws** — what ``events_issued`` and the events-per-op gate
  count.  Every ``Engine`` the workload builds has its ``_seq_next``
  wrapped; a draw is filed under the innermost generator of the running
  process — the function whose ``yield`` or call asked for it — or, when
  no process is running (an alarm callback, the campaign's own code),
  under the first function outside ``repro/sim/engine.py`` that asked; a
  process's end waking its joiners is filed under the process that ended.
  The draw total must equal ``events_issued`` exactly;
* **resumptions** — every time the engine steps a process, filed under
  the innermost generator of the process's ``yield from`` chain.  The two
  totals differ: an alarm draws to re-arm and resumes nobody, and a
  bandwidth alarm steps the waiters of the flows it finished without a
  draw of their own.

Counts repeat exactly per seed; they are what the "where the events go"
tables in ``docs/performance.md`` are read off, before and after a change.

A stopgap: ROADMAP [owner-tags] gives every occurrence an owner tag at
spawn time, which makes this a report of the engine's own counters instead of a
patched ``Engine``.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import sys
from collections import Counter

import repro
from bench.workloads import WORKLOADS
from repro.sim.engine import Engine

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
ENGINE = inspect.getsourcefile(Engine)
STEP = Engine._step.__code__


def innermost(generator):
    """The frame a resume lands in: the end of the ``yield from`` chain."""
    while True:
        inner = getattr(generator, "gi_yieldfrom", None)
        if getattr(inner, "gi_code", None) is None:
            return generator
        generator = inner


def drawing_site(engine, frame):
    """The code a sequence draw is filed under (``frame`` called
    ``_seq_next``).

    A *running* generator hides its ``yield from`` chain, so the stack is
    walked instead: the first generator frame above the draw is the
    innermost one running.  Reaching ``Engine._step`` first means the
    stepped process has just yielded (a ``Delay``'s heap entry) or ended
    (waking its joiners), so its chain is read as for a resumption.
    """
    running = engine.current_process is not None
    while frame is not None:
        code = frame.f_code
        if code is STEP:
            return innermost(frame.f_locals["process"]._generator).gi_code
        if running:
            if code.co_flags & inspect.CO_GENERATOR:
                return code
        elif code.co_filename != ENGINE:
            return code
        frame = frame.f_back
    raise AssertionError("a sequence draw with no caller outside the engine")


def where(code) -> str:
    path = pathlib.Path(code.co_filename)
    if path.is_relative_to(SRC):
        path = path.relative_to(SRC)
    name = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{path}:{name}"


def ledger(name: str, seed: int, scale: float):
    """Draw and resumption counts of one repetition's timed region, and
    its outcome."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale)
    drawn: Counter = Counter()
    resumed: Counter = Counter()
    counting = False
    init, step = Engine.__init__, Engine._step

    def counting_init(engine):
        init(engine)
        draw = engine._seq_next

        def seq_next():
            if counting:
                drawn[drawing_site(engine, sys._getframe(1))] += 1
            return draw()

        engine._seq_next = seq_next

    def counting_step(engine, process, value, exception):
        if counting:
            resumed[innermost(process._generator).gi_code] += 1
        step(engine, process, value, exception)

    Engine.__init__, Engine._step = counting_init, counting_step
    try:
        rig = workload.setup(inputs)
        counting = True
        outcome = workload.run(inputs, rig)
    finally:
        counting = False
        Engine.__init__, Engine._step = init, step

    def named(counts: Counter) -> Counter:
        return Counter({where(code): n for code, n in counts.items()})

    return named(drawn), named(resumed), outcome


def table(title: str, counts: Counter, ops: int, top: int) -> None:
    total = sum(counts.values())
    print(f"{title:>12} {'per op':>8} {'share':>6}  generator (or caller)")
    rows = counts.most_common()
    for place, n in rows[:top]:
        print(f"{n:>12} {n / ops:>8.2f} {n / total:>6.1%}  {place}")
    rest = sum(n for _place, n in rows[top:])
    if rest:
        print(f"{rest:>12} {rest / ops:>8.2f} {rest / total:>6.1%}  "
              f"({len(rows) - top} more)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    args = parser.parse_args(argv)

    drawn, resumed, outcome = ledger(args.workload, args.seed, args.scale)
    ops, events = outcome["ok"], outcome["events"]
    draws, steps = sum(drawn.values()), sum(resumed.values())
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {ops} ok ops, "
          f"{events} events = {events / ops:.2f} per op; "
          f"{steps} resumptions = {steps / ops:.2f} per op")
    if draws != events:
        raise SystemExit(f"{draws} sequence draws counted, {events} issued")
    table("draws", drawn, ops, args.top)
    print()
    table("resumptions", resumed, ops, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
