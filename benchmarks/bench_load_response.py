"""Extension: cold-read response time under load (queueing behaviour).

The paper measures single-request latencies (Table 1); a datacenter also
cares what happens when cold reads *queue*: one drive set is a single
server whose service time is the ~155 s array swap, so response time
follows the classic open-queue hockey stick as the arrival rate approaches
the service rate (~23 swaps/hour).
"""

import pytest

from benchmarks.conftest import print_table, record_result
from repro.sim import Delay, AllOf
from tests.conftest import make_ros

ARRAYS = 4
SERVICE_ESTIMATE_S = 155.0


def build_rack():
    ros = make_ros(read_cache_images=1)
    paths = []
    for array in range(ARRAYS):
        for index in range(4):
            path = f"/load/a{array}/f{index}.bin"
            ros.write(path, bytes([array * 4 + index + 1]) * 15000)
            paths.append(path)
        ros.flush()
    # One representative file per array, so consecutive requests force
    # array swaps (the worst-case service pattern).
    representatives = []
    seen = set()
    for path in paths:
        image = ros.stat(path)["locations"][0]
        array_address = ros.dim.record(image).array_address
        if array_address is not None and array_address not in seen:
            seen.add(array_address)
            representatives.append(path)
    return ros, representatives


def run_at_interarrival(interarrival_s: float, requests: int = 10):
    ros, reps = build_rack()
    latencies = []

    def client(path, start_delay):
        yield Delay(start_delay)
        image = ros.stat(path)["locations"][0]
        ros.cache.evict(image)
        began = ros.engine.now
        result = yield from ros.pi.read_file(path)
        latencies.append(ros.engine.now - began)

    def main():
        procs = []
        for index in range(requests):
            path = reps[index % len(reps)]
            procs.append(ros.engine.spawn(
                client(path, index * interarrival_s),
                name=f"client-{index}",
            ))
        yield AllOf(procs)

    ros.run(main())
    latencies.sort()
    mean = sum(latencies) / len(latencies)
    p95 = latencies[int(0.95 * (len(latencies) - 1))]
    return mean, p95


def test_load_response_curve(benchmark):
    def sweep():
        rows = []
        for interarrival in (600.0, 180.0, 140.0, 110.0):
            mean, p95 = run_at_interarrival(interarrival)
            rows.append(
                {
                    "interarrival_s": interarrival,
                    "offered_load": round(SERVICE_ESTIMATE_S / interarrival, 2),
                    "mean_response_s": round(mean, 1),
                    "p95_response_s": round(p95, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Cold-read response time vs offered load (one drive set)", rows
    )
    record_result("load_response", rows)
    means = [row["mean_response_s"] for row in rows]
    # Deterministic arrivals + deterministic service: flat below
    # saturation, then the backlog grows without bound past it.
    assert means == sorted(means)
    assert means[-1] > 1.5 * means[0]
    p95s = [row["p95_response_s"] for row in rows]
    assert p95s[-1] > 2 * p95s[0]
    # Lightly loaded requests cost about one swap (~155 s).
    assert means[0] == pytest.approx(SERVICE_ESTIMATE_S, rel=0.25)
