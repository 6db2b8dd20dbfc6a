"""Where a benchmark workload's engine events go, by owner.

    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py rack_cold_read
    PYTHONPATH=src:. python benchmarks/perf/event_ledger.py serve_rack --seed 7 --top 12

Runs one workload of ``bench/workloads.py`` (imported read-only, like
``bench_event_budgets.py``) once, untraced, and prints what the engine's
own :class:`~repro.sim.owners.OwnerCounter` filed over the workload's
timed region, per owner — the package of the generator a process was
spawned with:

* **sequence draws** — what ``events_issued`` and the events-per-op gate
  count.  A draw made while a process is stepped (its joiners' wake-ups
  when it ends included) goes under that process's owner; one made with
  no process stepping (an alarm callback, the campaign's own code) under
  the package of the code that asked.  The draw total must equal
  ``events_issued`` exactly;
* **resumptions** — every time the engine steps a process.  The two
  totals differ: an alarm draws to re-arm and resumes nobody, and a
  bandwidth alarm steps the waiters of the flows it finished without a
  draw of their own;
* **frames** — the generator frames those resumptions ran through (the
  stepped process's ``gi_yieldfrom`` chain), what the ``frames_per_step``
  budgets gate;
* **frames by code** — the same frames filed under the package of each
  frame's own code, not its process's owner, so a ``plc`` or
  ``mechanics`` frame an ``olfs`` process resumes shows as such.  Its
  total is the frames total;
* **engine gauges** — per counted engine, the largest heap and run
  queue seen at a draw or after a step, and the heap compactions;
* **shard gauges** — per :class:`~repro.sim.shard.ShardedEngine`
  (``fleet_xl``), the windows its merge ran, the shard advances in them
  that ran no occurrence (stalls), and the deepest mailbox at a
  window's start.

Counts repeat exactly per seed; the "where the events go" tables in
``docs/performance.md`` are read off this ledger, before and after a
change.
"""

from __future__ import annotations

import argparse
from collections import Counter

from bench.workloads import WORKLOADS
from repro.sim.owners import OwnerCounter


def ledger(name: str, seed: int, scale: float):
    """The owner counter of one repetition's timed region, and its
    outcome."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale)
    with OwnerCounter() as counter:
        rig = workload.setup(inputs)
        counter.clear()
        outcome = workload.run(inputs, rig)
    return counter, outcome


def table(title: str, counts: Counter, ops: int, top: int,
          label: str = "owner") -> None:
    total = counts.total()
    print(f"{title:>12} {'per op':>8} {'share':>6}  {label}")
    rows = counts.most_common()
    for owner, n in rows[:top]:
        print(f"{n:>12} {n / ops:>8.2f} {n / total:>6.1%}  {owner}")
    rest = sum(n for _owner, n in rows[top:])
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

    counter, outcome = ledger(args.workload, args.seed, args.scale)
    ops, events = outcome["ok"], outcome["events"]
    draws, steps = counter.draws.total(), counter.steps.total()
    frames = counter.frames.total()
    print(f"{args.workload} seed={args.seed} scale={args.scale}: {ops} ok ops, "
          f"{events} events = {events / ops:.2f} per op; "
          f"{steps} resumptions = {steps / ops:.2f} per op; "
          f"{frames / steps:.2f} frames per resumption")
    if draws != events:
        raise SystemExit(f"{draws} sequence draws counted, {events} issued")
    table("draws", counter.draws, ops, args.top)
    print()
    table("resumptions", counter.steps, ops, args.top)
    print()
    table("frames", counter.frames, ops, args.top)
    print()
    table("frames", counter.code_frames, ops, args.top, "code's package")
    if counter.code_frames.total() != frames:
        raise SystemExit("frames by code do not add up to the frames total")
    print()
    gauges = counter.gauges()
    print(f"{'engine':>6} {'max heap':>9} {'max runq':>9} {'compactions':>12}")
    for number, row in enumerate(row for row in gauges if "heap" in row):
        print(f"{number:>6} {row['heap']:>9} {row['runq']:>9} "
              f"{row['compactions']:>12}")
    shards = [row for row in gauges if "windows" in row]
    if shards:
        print()
        print(f"{'sharded':>7} {'windows':>9} {'stalls':>9} "
              f"{'max mailbox':>12}")
        for number, row in enumerate(shards):
            print(f"{number:>7} {row['windows']:>9} {row['stalls']:>9} "
                  f"{row['mailbox']:>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
