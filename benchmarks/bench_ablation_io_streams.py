"""§4.7 ablation: one shared RAID volume vs multiple independent volumes.

The paper identifies four concurrent intensive streams — user writes,
parity reads, parity writes, burn-staging reads — and warns they "might
interfere each other to worsen overall performance", which is why ROS
schedules them onto independent RAID volumes.  The bench runs the four
streams under both policies and reports each stream's completion time.
"""

import pytest

from benchmarks.conftest import print_table, record_result
from repro import units
from repro.sim import AllOf, Engine
from repro.storage import IOStreamScheduler, StreamKind, Volume

STREAMS = [
    (StreamKind.USER_WRITE, "write", 4 * units.GB),
    (StreamKind.PARITY_READ, "read", 4 * units.GB),
    (StreamKind.PARITY_WRITE, "write", 4 * units.GB),
    (StreamKind.BURN_READ, "read", 4 * units.GB),
]


def make_volumes(engine, count):
    return [
        Volume(
            engine,
            f"raid5-{index}",
            read_throughput=1.2 * units.GB,
            write_throughput=1.0 * units.GB,
            capacity=units.TB,
            access_latency=0.0004,
        )
        for index in range(count)
    ]


def run_policy(policy: str, volume_count: int):
    engine = Engine()
    scheduler = IOStreamScheduler(make_volumes(engine, volume_count), policy)
    finish_times = {}

    def stream(kind, direction, nbytes):
        volume = scheduler.volume_for(kind)
        if direction == "read":
            yield from volume.read(nbytes)
        else:
            yield from volume.write(nbytes)
        finish_times[kind.value] = engine.now

    def main():
        procs = []
        for kind, direction, nbytes in STREAMS:
            procs.append(
                engine.spawn(stream(kind, direction, nbytes), name=kind.value)
            )
        yield AllOf(procs)

    engine.run_process(main())
    return finish_times, engine.now


def test_ablation_io_stream_scheduling(benchmark):
    def run_both():
        shared = run_policy("shared", 2)
        partitioned = run_policy("partitioned", 2)
        return shared, partitioned

    (shared, shared_end), (part, part_end) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    rows = []
    for kind, _, nbytes in STREAMS:
        rows.append(
            {
                "stream": kind.value,
                "GB": nbytes / units.GB,
                "shared_s": round(shared[kind.value], 2),
                "partitioned_s": round(part[kind.value], 2),
                "speedup": round(shared[kind.value] / part[kind.value], 2),
            }
        )
    rows.append(
        {
            "stream": "ALL (makespan)",
            "GB": sum(n for _, _, n in STREAMS) / units.GB,
            "shared_s": round(shared_end, 2),
            "partitioned_s": round(part_end, 2),
            "speedup": round(shared_end / part_end, 2),
        }
    )
    print_table("§4.7 ablation: shared vs partitioned volumes", rows)
    record_result("ablation_io_streams", rows)
    # Partitioning finishes every stream sooner, and the user-write
    # stream (the client-visible one) improves the most strongly.
    assert part_end < shared_end
    assert part["user-write"] < shared["user-write"] / 1.5
