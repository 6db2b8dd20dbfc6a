"""Tests for the operator CLI (`python -m repro`)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def test_mechanics_command(capsys):
    code, output = run_cli(capsys, "mechanics", "--layers", "0", "84")
    assert code == 0
    assert "68.7" in output
    assert "86.5" in output


def test_burncurve_25(capsys):
    code, output = run_cli(capsys, "burncurve", "--disc", "25")
    assert code == 0
    assert "average 8.2" in output


def test_burncurve_100(capsys):
    code, output = run_cli(capsys, "burncurve", "--disc", "100")
    assert code == 0
    assert "5.91X" in output


def test_stacks_command(capsys):
    code, output = run_cli(capsys, "stacks")
    assert code == 0
    assert "samba+OLFS" in output
    assert "235.7" in output


def test_tco_command(capsys):
    code, output = run_cli(capsys, "tco")
    assert code == 0
    assert "optical" in output
    assert "hdd" in output


def test_reliability_command(capsys):
    code, output = run_cli(capsys, "reliability")
    assert code == 0
    assert "11+1" in output
    assert "2.30 TB" in output


def test_power_command(capsys):
    code, output = run_cli(capsys, "power")
    assert code == 0
    assert "185 W" in output
    assert "652 W" in output


def test_demo_command(capsys):
    code, output = run_cli(capsys, "demo")
    assert code == 0
    assert "cold read via" in output


def test_trace_prints_metrics_summary(capsys):
    code, output = run_cli(capsys, "trace", "ops")
    assert code == 0
    assert "spans recorded" in output
    assert "metrics:" in output
    assert "histograms)" in output


def test_trace_prom_export(capsys, tmp_path):
    out = tmp_path / "metrics.prom"
    code, output = run_cli(
        capsys, "trace", "cold-read", "--format", "prom", "--out", str(out)
    )
    assert code == 0
    assert f"wrote prom trace to {out}" in output
    text = out.read_text()
    assert "# TYPE repro_" in text
    assert '_bucket{le="+Inf"}' in text


def test_monitor_cold_read_passes_slos(capsys):
    code, output = run_cli(capsys, "monitor", "--scenario", "cold-read")
    assert code == 0
    assert "SLO verdicts" in output
    assert "VIOLATED" not in output
    assert "read.cold_worst_case" in output
    assert "flight recorder:" in output


def test_monitor_writes_report_and_flight_dump(capsys, tmp_path):
    import json

    report_path = tmp_path / "report.json"
    flight_path = tmp_path / "flight.jsonl"
    code, output = run_cli(
        capsys, "monitor", "--scenario", "write-burn",
        "--out", str(report_path), "--flight-out", str(flight_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["monitor"]["slo"]["violation_count"] == 0
    assert report["flight_recorder"]["recorded"] > 0
    events = [
        json.loads(line) for line in flight_path.read_text().splitlines()
    ]
    assert events
    assert all("t" in event and "kind" in event for event in events)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_command_is_deterministic_and_passes(capsys, tmp_path):
    out = tmp_path / "serve.json"
    code, output = run_cli(
        capsys, "serve", "--seed", "3", "--duration", "4",
        "--prepopulate", "3", "--runs", "2", "--out", str(out),
    )
    assert code == 0
    assert "serve report" in output
    assert "admission audit: PASS" in output
    assert "DETERMINISM VIOLATION" not in output
    import json

    report = json.loads(out.read_text())
    assert report["totals"]["ops"] > 0


def test_chaos_serve_flag_audits_fifth_invariant(capsys):
    code, output = run_cli(
        capsys, "chaos", "--seed", "11", "--ops", "12",
        "--campaigns", "2", "--serve",
    )
    assert code == 0
    assert "invariant no_admitted_request_lost: ok" in output
    assert "serving:" in output
    assert "all 5 invariants hold" in output


def test_chaos_without_serve_keeps_four_invariants(capsys):
    code, output = run_cli(
        capsys, "chaos", "--seed", "7", "--ops", "12", "--campaigns", "1",
    )
    assert code == 0
    assert "all 4 invariants hold" in output
    assert "serving:" not in output


# ----------------------------------------------------------------------
# The run-and-compare harness, driven by stub campaigns
# ----------------------------------------------------------------------
def harness(capsys, run_once, runs=2, out=None, flight_out=None, **kwargs):
    from argparse import Namespace

    from repro.report import run_and_compare

    args = Namespace(runs=runs, out=out, flight_out=flight_out)
    code = run_and_compare(
        args, run_once, lambda report: f"rendered {report['n']}", **kwargs
    )
    return code, capsys.readouterr().out


def test_harness_flags_diverging_reports(capsys):
    counter = iter(range(10))
    code, output = harness(capsys, lambda _flight: {"n": next(counter)})
    assert code == 1
    assert "rendered 0" in output  # run 0 is the one rendered
    assert "DETERMINISM VIOLATION" in output
    assert "byte-identical" not in output


def test_harness_reports_failed_invariant_with_detail(capsys):
    report = {
        "n": 1,
        "ok": False,
        "invariants": [
            {"invariant": "durable", "ok": True, "detail": {}},
            {"invariant": "drained", "ok": False, "detail": {"pending": 3}},
        ],
    }
    code, output = harness(
        capsys, lambda _flight: dict(report), success=lambda r: "fine"
    )
    assert code == 1
    assert "FAILED drained: {'pending': 3}" in output
    assert "FAILED durable" not in output
    assert "fine" not in output and "DETERMINISM" not in output


def test_harness_dumps_on_run_zero_only_and_pops_the_path(capsys, tmp_path):
    import json

    seen = []

    def run_once(flight_out):
        seen.append(flight_out)
        report = {"n": 5}
        if flight_out:
            report["flight_dump"] = flight_out
        return report

    out = tmp_path / "report.json"
    code, output = harness(
        capsys, run_once, runs=3, out=str(out), flight_out="journal.jsonl",
        audit=lambda report: [],
    )
    # run 0 carried a path the others did not, yet the runs compare equal
    assert code == 0
    assert seen == ["journal.jsonl", None, None]
    assert "wrote flight-recorder dump to journal.jsonl" in output
    assert json.loads(out.read_text()) == {"n": 5}  # no flight_dump key
    assert "DETERMINISM VIOLATION" not in output


def test_harness_closing_line_names_what_was_compared(capsys):
    def run(runs):
        return harness(
            capsys, lambda _flight: {"n": 0}, runs=runs,
            audit=lambda report: [], success=lambda report: "all good",
        )

    assert "all good; 2 runs byte-identical" in run(2)[1]
    code, output = run(1)
    assert code == 0
    assert "all good; determinism not checked (1 run)" in output
    assert "byte-identical" not in output


@pytest.mark.parametrize("argv", [
    ["chaos", "--seed", "7", "--ops", "12", "--campaigns", "1"],
    ["fleet", "--seed", "7", "--racks-per-site", "3", "--clients", "120",
     "--duration", "3.0", "--objects", "4", "--arrival-rate", "12.0",
     "--runs", "1"],
])
def test_single_run_does_not_claim_byte_identity(capsys, argv):
    code, output = run_cli(capsys, *argv)
    assert code == 0
    assert "byte-identical" not in output
    assert "determinism not checked (1 run)" in output


# ----------------------------------------------------------------------
# serve / serve --xl: a flag the chosen campaign ignores is an error
# ----------------------------------------------------------------------
@pytest.mark.parametrize("extra, flag", [
    (["--xl", "--faults"], "--faults"),
    (["--xl", "--backend", "cluster"], "--backend"),
    (["--xl", "--prepopulate", "18"], "--prepopulate"),
    (["--xl", "--max-inflight", "4"], "--max-inflight"),
    (["--xl", "--flight-out", "f.jsonl"], "--flight-out"),
    (["--shards", "4"], "--shards"),
    (["--racks", "4"], "--racks"),
])
def test_serve_rejects_flags_of_the_other_campaign(capsys, extra, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--duration", "1", *extra])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert flag in error and "--xl" in error


def test_serve_xl_takes_its_own_flags(capsys):
    code, output = run_cli(
        capsys, "serve", "--xl", "--shards", "2", "--racks", "3",
        "--duration", "5", "--runs", "2",
    )
    assert code == 0
    assert "serve-xl: seed=42 racks=3 shards=2" in output
