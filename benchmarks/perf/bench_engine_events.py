"""Engine throughput suite: events/s per scheduling pattern (ISSUE 3).

Unlike the paper benches (which report *simulated* metrics), this suite
measures the simulator itself: how many engine events per wall-second
each hot scheduling pattern sustains.  The table is printed only: host
events/s varies from run to run, so it stays out of
``benchmarks/results.json`` (whose every value is simulated and repeats
to the digit) and is recorded in ``BENCH_engine.json`` by ``python -m
repro bench``.  The CI perf gate runs the same microbenches through
``python -m repro bench --check`` against
``benchmarks/perf/baseline.json``.  Whole-campaign wall time is
``bench/run.py``'s to measure.
"""

import pathlib

import pytest

from benchmarks.conftest import print_table
from repro.perf.harness import gate_check, load_baseline
from repro.perf.microbench import run_microbenches

#: full-size events counts keep a laptop run under ~5 s; the CLI uses the
#: same defaults, so numbers here are comparable with BENCH_engine.json
SCALE = 1.0
REPEATS = 2


@pytest.fixture(scope="module")
def microbench_results():
    return run_microbenches(scale=SCALE, repeats=REPEATS)


def test_engine_events_per_second(microbench_results):
    rows = [
        {"microbench": name, "events_per_sec": round(value)}
        for name, value in microbench_results.items()
    ]
    print_table("Engine event-loop throughput", rows)
    assert all(value > 0 for value in microbench_results.values())


def test_perf_gate_against_committed_baseline(microbench_results):
    """The committed floors hold on this host (generous 60% tolerance:
    this is a smoke check that the gate plumbing and baseline agree;
    the CI job runs the real 30% gate)."""
    baseline = load_baseline(
        str(pathlib.Path(__file__).parent / "baseline.json")
    )
    failures = gate_check(microbench_results, baseline, tolerance=0.60)
    assert not failures, failures
