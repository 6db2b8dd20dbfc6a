"""Extension: multi-client NAS scaling over samba+OLFS.

§3.3 positions ROS as a shared NAS node ("providing more than 1 GB/s
external throughput") — but the samba+OLFS stack tops out near 320 MB/s
writes / 236 MB/s reads (Figure 6).  This bench shows how those ceilings
divide across concurrent clients: aggregate throughput saturates at the
stack limit while per-client shares drop 1/N — the case for the
direct-writing mode when many ingest streams arrive at once.
"""

import pytest

from benchmarks.conftest import print_table, record_result
from repro import units
from repro.frontend import make_stack
from repro.sim import AllOf, Engine


def run_clients(direction: str, client_count: int, per_client=512 * units.MB):
    engine = Engine()
    stack = make_stack("samba+OLFS")
    pipes = stack.shared_pipes(engine)
    pipe = pipes[direction]
    finish = []

    def client():
        yield from pipe.transfer(per_client)
        finish.append(engine.now)

    def main():
        procs = []
        for _ in range(client_count):
            procs.append(engine.spawn(client()))
        yield AllOf(procs)

    engine.run_process(main())
    elapsed = max(finish)
    aggregate = client_count * per_client / elapsed / units.MB
    per_client_rate = aggregate / client_count
    return aggregate, per_client_rate


def test_multiclient_scaling(benchmark):
    def sweep():
        rows = []
        for clients in (1, 2, 4, 8):
            agg_w, per_w = run_clients("write", clients)
            agg_r, per_r = run_clients("read", clients)
            rows.append(
                {
                    "clients": clients,
                    "agg_write_mb_s": round(agg_w, 1),
                    "per_client_write": round(per_w, 1),
                    "agg_read_mb_s": round(agg_r, 1),
                    "per_client_read": round(per_r, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Multi-client samba+OLFS scaling", rows)
    record_result("multiclient_nas", rows)
    # Aggregate pins at the stack ceilings regardless of client count.
    for row in rows:
        assert row["agg_write_mb_s"] == pytest.approx(320, rel=0.02)
        assert row["agg_read_mb_s"] == pytest.approx(236, rel=0.02)
    # Per-client shares fall as 1/N (processor sharing fairness).
    assert rows[-1]["per_client_write"] == pytest.approx(
        rows[0]["per_client_write"] / 8, rel=0.05
    )
