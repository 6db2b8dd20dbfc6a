"""Engine microbenchmarks: synthetic workloads measured in events/second.

Each benchmark builds a fresh :class:`~repro.sim.engine.Engine`, runs a
fixed number of simulated events through one scheduling pattern, and
reports throughput.  The four patterns cover the engine's hot paths:

``delay_chain``
    One process yielding ``Delay`` in a tight loop — pure heap traffic.
``ping_pong``
    Two processes handing values across ``SimEvent``s — run-queue traffic
    (``succeed`` resumes) interleaved with ``Delay(0)``.
``spawn_join``
    Fan-out of short-lived children gathered with ``AllOf`` — process
    creation, completion and join resumes.
``bandwidth_flows``
    Concurrent transfers through one :class:`SharedBandwidth` — flow
    arrival/completion churn plus timer cancellation.

Functions return *events per second* (best of ``repeats`` runs, so a
background hiccup on the host slows a run, never speeds one up).
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.sim.bandwidth import SharedBandwidth
from repro.sim.engine import AllOf, Delay, Engine, Wait


def bench_delay_chain(n: int) -> float:
    engine = Engine()

    def proc():
        for _ in range(n):
            yield Delay(0.001)

    start = time.perf_counter()
    engine.run_process(proc())
    return n / (time.perf_counter() - start)


def bench_ping_pong(n: int) -> float:
    engine = Engine()

    def pinger(events):
        for index in range(n):
            event = engine.event()
            events.append(event)
            yield Delay(0)
            event.succeed(index)

    def ponger(events):
        total = 0
        for _ in range(n):
            while not events:
                yield Delay(0)
            total += yield Wait(events.pop())
        return total

    events: list = []

    def main():
        yield AllOf(
            [engine.spawn(pinger(events)), engine.spawn(ponger(events))]
        )

    start = time.perf_counter()
    engine.run_process(main())
    return 2 * n / (time.perf_counter() - start)


def bench_spawn_join(n: int) -> float:
    engine = Engine()

    def child():
        yield Delay(0)
        return 1

    def main():
        yield AllOf([engine.spawn(child()) for _ in range(n)])

    start = time.perf_counter()
    engine.run_process(main())
    return 2 * n / (time.perf_counter() - start)


#: flows sharing the link in :func:`bench_bandwidth_flows`
FLOW_CONCURRENCY = 8


def bench_bandwidth_flows(n: int) -> float:
    engine = Engine()
    bandwidth = SharedBandwidth(engine, 1e8, name="bench")

    def flow():
        for _ in range(n // FLOW_CONCURRENCY):
            yield from bandwidth.transfer(1e6)

    def main():
        yield AllOf([engine.spawn(flow()) for _ in range(FLOW_CONCURRENCY)])

    start = time.perf_counter()
    engine.run_process(main())
    return n / (time.perf_counter() - start)


#: name -> (benchmark fn taking ``n``, default event count)
MICROBENCHES: Dict[str, tuple[Callable[[int], float], int]] = {
    "delay_chain": (bench_delay_chain, 200_000),
    "ping_pong": (bench_ping_pong, 100_000),
    "spawn_join": (bench_spawn_join, 50_000),
    "bandwidth_flows": (bench_bandwidth_flows, 2_000),
}


def run_microbenches(
    scale: float = 1.0, repeats: int = 3
) -> Dict[str, float]:
    """Run every microbench; events/s per bench, best of ``repeats``.

    ``scale`` multiplies each benchmark's event count (use a small value
    in tests so the suite stays fast).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results: Dict[str, float] = {}
    for name, (fn, default_n) in MICROBENCHES.items():
        n = max(64, int(default_n * scale))
        results[name] = max(fn(n) for _ in range(repeats))
    return results
