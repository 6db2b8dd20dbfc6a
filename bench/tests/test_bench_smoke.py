"""Smoke tests of the benchmark harness itself.

Run with ``python -m pytest bench/tests`` (outside tier-1's testpaths).
Every workload runs at ``--scale 0.05`` for about a second, so the whole
file costs well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from bench.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(tmp_path_factory, workload: str, trace: int, seed: int) -> dict:
    """One ``run.py`` invocation -> its result set plus the last line."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    process = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--scale", "0.05", "--seconds", "1",
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return {
        "last_line": json.loads(process.stdout.splitlines()[-1]),
        "result": json.loads(out.read_text())["workloads"][workload],
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace, seed) -> run, measured once per module."""
    cache: dict[tuple, dict] = {}

    def get(workload: str, trace: int = 0, seed: int = 42) -> dict:
        key = (workload, trace, seed)
        if key not in cache:
            cache[key] = run_bench(tmp_path_factory, workload, trace, seed)
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed(runs, workload):
    line = runs(workload)["last_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {
        name: entry["unit"] for name, entry in line["metrics"].items()
    } == listed
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_partitions_the_wall(
    runs, workload
):
    untraced = runs(workload)["result"]
    traced = runs(workload, trace=1)
    # wrappers may not perturb the simulation
    assert traced["result"]["report_sha256"] == untraced["report_sha256"]
    assert traced["result"]["checks"]["report_stable"] is True
    metrics = traced["last_line"]["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["bench.trace_overhead_x"]["value"] > 0

    trace = json.loads(
        (BENCH / "out" / f"trace-{workload}.json").read_text()
    )
    layer_sum = sum(a["self_wall_s"] for a in trace["aggregates"])
    assert layer_sum == pytest.approx(trace["root_wall_s"], rel=0.01)
    assert trace["spans"], "no op was recorded in full"
    # every recorded span names a parent recorded before it (or the root)
    ids = {span[0] for span in trace["spans"]}
    assert all(span[1] == 0 or span[1] in ids for span in trace["spans"])


def test_layers_a_workload_bypasses_stay_at_zero(runs):
    xl = runs("fleet_xl", trace=1)["last_line"]["metrics"]
    for layer in ("olfs", "drives", "mechanics", "plc"):
        assert xl[f"{layer}.calls"]["value"] == 0
    assert xl["sim.shard.calls"]["value"] > 0
    cold = runs("rack_cold_read", trace=1)["last_line"]["metrics"]
    assert cold["olfs.burn.tasks"]["value"] == 0
    assert cold["mechanics.loads"]["value"] > 0
    assert 0 <= cold["accuracy.table1_occupied_rel_err"]["value"] < 0.05
    for workload in ("serve_rack", "rack_cold_read", "fleet_heal"):
        metrics = runs(workload, trace=1)["last_line"]["metrics"]
        assert metrics["sim.shard.calls"]["value"] == 0


def test_held_out_seed_changes_the_report(runs):
    for workload in WORKLOADS:
        assert (
            runs(workload, seed=1337)["result"]["report_sha256"]
            != runs(workload)["result"]["report_sha256"]
        )


def test_list_reads_names_from_benchmark_json():
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--list"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in process.stdout


# ----------------------------------------------------------------------
# The generator wrapper, on a toy entry point
# ----------------------------------------------------------------------
class Failure(Exception):
    pass


def toy(log: list):
    """Yields what it is sent, records throws, returns on 'stop'."""
    received = None
    try:
        while received != "stop":
            try:
                received = yield ("echo", received)
            except Failure as failure:
                log.append(("thrown", str(failure)))
                received = "recovered"
    finally:
        log.append("closed")
    return "result"


def test_generator_wrapper_forwards_send_throw_close_and_return():
    tracer = Tracer()
    wrapped = tracer.wrap(toy, "toy.layer", "toy")
    log: list = []
    with tracer.root():
        generator = wrapped(log)
        assert generator.__name__ == "toy"
        assert next(generator) == ("echo", None)
        assert generator.send("a") == ("echo", "a")
        assert generator.throw(Failure("boom")) == ("echo", "recovered")
        with pytest.raises(StopIteration) as stop:
            generator.send("stop")
        assert stop.value.value == "result"
        assert log == [("thrown", "boom"), "closed"]

        # yield from sees the same protocol, return value included
        def caller():
            value = yield from wrapped(log)
            return value

        outer = caller()
        next(outer)
        with pytest.raises(StopIteration) as stop:
            outer.send("stop")
        assert stop.value.value == "result"

        # close() reaches the inner generator's finally
        log.clear()
        abandoned = wrapped(log)
        next(abandoned)
        abandoned.close()
        assert log == ["closed"]

        # an exception the inner generator does not catch comes out
        failing = wrapped(log)
        next(failing)
        with pytest.raises(KeyError):
            failing.throw(KeyError("unhandled"))

    totals = tracer.layer_totals()
    assert totals["bench"]["calls"] == 1
    calls, self_wall, errors = tracer.aggregates[("toy.layer", "toy", "bench")]
    assert (calls, errors) == (4, 1)
    layer_sum = sum(entry[1] for entry in tracer.aggregates.values())
    assert layer_sum == pytest.approx(tracer.root_wall_s, rel=1e-9)
    assert 0 < self_wall < tracer.root_wall_s


def test_plain_function_wrapper_times_nested_calls_once():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "toy.inner", "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "toy.outer", "outer")
    with tracer.root():
        assert outer() == 2 * sum(range(1000))
    assert tracer.aggregates[("toy.inner", "inner", "toy.outer")][0] == 2
    layer_sum = sum(entry[1] for entry in tracer.aggregates.values())
    assert layer_sum == pytest.approx(tracer.root_wall_s, rel=1e-9)
