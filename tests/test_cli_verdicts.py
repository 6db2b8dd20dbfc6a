"""Every campaign's exit-1 verdict lines, driven by crafted reports.

Each ``run_*`` is monkeypatched to return a hand-made report, so no
campaign runs: the table pins which report shape makes which command
print which line (and exit 1), and that the line stays silent otherwise.
"""

from __future__ import annotations

import copy
import functools
import importlib

import pytest

from repro.cli import main


def _invariants(ok: bool = True) -> list[dict]:
    return [{"invariant": "durable", "ok": ok, "detail": {"checked": 1}}]


def chaos_report(violations=()) -> dict:
    return {
        "seed": 7, "ops": 1, "intensity": 1.0, "plan": [],
        "fault_events": [], "final_time": 60.0, "acked_files": 1,
        "workload": {"writes": 1, "write_errors": 0, "reads": 0,
                     "read_errors": 0, "flushes": 0},
        "workload_violations": list(violations),
        "invariants": _invariants(),
        "ok": not violations,
    }


def serve_report(ops=5, audit_ok=True, slo_met=True) -> dict:
    tenant = {
        "ops": ops, "outcomes": {"ok": ops, "rejected": 0, "timeout": 0},
        "throughput_mbps": 1.0, "p50_s": 0.1, "p95_s": 0.2, "p99_s": 0.3,
        "slo_met": slo_met,
    }
    return {
        "seed": 42, "backend": "olfs", "duration_s": 1.0,
        "tenants": {"gold": tenant, "bulk": dict(tenant, slo_met=True)},
        "totals": {"ops": 2 * ops},
        "link": {"bytes_in": 0.0, "utilization_in": 0.0, "bytes_out": 0.0,
                 "utilization_out": 0.0, "drops": 0},
        "admission_audit": {"ok": audit_ok, "detail": "conserved"},
    }


def xl_report(ops=5, events=100) -> dict:
    return {
        "seed": 42, "duration_s": 60.0, "events_issued": events,
        "racks": {"rack00": {"outage": False}},
        "totals": {"ops": ops, "ok": ops, "failed": 0, "remote": 0},
    }


def preserve_report(metric: float) -> dict:
    return {
        "seed": 7, "files": 1, "years": 30.0, "intensity": 1.0,
        "config": {"scrub": True, "audit": True, "migrate": True,
                   "faults": True},
        "plan": [], "fault_events": [], "final_time": 60.0, "aging": [],
        "scrub": [], "audit": None, "invariants": _invariants(),
        "verdict": {"bytes_lost": int(metric), "stored_bytes": 10,
                    "files_lost": [], "bytes_lost_per_exabyte_decade": metric},
        "ok": True,
    }


def fleet_report(bytes_lost=0) -> dict:
    return {
        "seed": 7, "topology": {"sites": 3, "racks_per_site": 2},
        "layout": {"k": 2, "m": 2}, "clients": 6, "plan": [],
        "tenants": {"site0": {"ops": 1, "outcomes": {"ok": 1, "failed": 0},
                              "p50_s": 0.1, "p99_s": 0.2}},
        "store": {"racks_up": 6, "racks": 6, "objects": 1, "lost_shards": 0},
        "recovery": {"campaigns": 0, "shards_rebuilt": 0,
                     "objects_unrecoverable": 0},
        "invariants": _invariants(), "bytes_lost": bytes_lost,
        "ok": not bytes_lost,
    }


def monitor_report(telemetry=True, rack_loss=True, remediations=0) -> dict:
    report = fleet_report()
    report.update({
        "plan": [{"kind": "rack.loss", "at": 1.0}] if rack_loss else [],
        "rollup": {"site0": {"racks": 2, "up": 2, "drained": 0,
                             "reporting": 2}},
        "slo_burn": [],
        "telemetry": {"enabled": False},
        "supervisor": None,
        "remediations": remediations,
    })
    if telemetry:
        report["telemetry"] = {
            "enabled": True,
            "central": {"points_ingested": 1, "batches_ingested": 1,
                        "agents_seen": 1},
            "store": {"live_points": 1, "series": 1, "shards_evicted": 0},
        }
    return report


def _patch(monkeypatch, target: str, respond) -> None:
    """Replace ``module.attr`` with a wrapper of the real function that
    answers ``respond(kwargs)`` (a deep copy: the harness pops keys)."""
    module, _, attr = target.rpartition(".")
    real = getattr(importlib.import_module(module), attr)

    @functools.wraps(real)
    def fake(*args, **kwargs):
        return copy.deepcopy(respond(kwargs))

    monkeypatch.setattr(f"{module}.{attr}", fake)


CHAOS = "repro.faults.campaign.run_campaign"
SERVE = "repro.serve.run_serve"
XL = "repro.serve.xl.run_serve_xl"
PRESERVE = "repro.preserve.campaign.run_preserve"
FLEET = "repro.fleet.campaign.run_fleet"
MONITOR = "repro.fleet.monitor.run_fleet_monitor"


def _fixed(report: dict):
    return lambda kwargs: report


def _by_shards(sharded: dict, single: dict):
    return lambda kwargs: single if kwargs.get("shards") == 1 else sharded


def _attended(attended: float, unattended: float):
    return lambda kwargs: preserve_report(
        attended if kwargs["scrub"] else unattended
    )


#: (line, argv, target, respond when triggered, respond when not)
CASES = [
    ("MID-CAMPAIGN VIOLATIONS", ["chaos", "--campaigns", "1"], CHAOS,
     _fixed(chaos_report([{"path": "/x", "problem": "mismatch"}])),
     _fixed(chaos_report())),
    ("EMPTY RUN", ["serve", "--runs", "1"], SERVE,
     _fixed(serve_report(ops=0)), _fixed(serve_report())),
    ("ADMISSION AUDIT FAILED", ["serve", "--runs", "1"], SERVE,
     _fixed(serve_report(audit_ok=False)), _fixed(serve_report())),
    ("SLO MISSED by: gold", ["serve", "--runs", "1"], SERVE,
     _fixed(serve_report(slo_met=False)), _fixed(serve_report())),
    ("EMPTY RUN", ["serve", "--xl", "--runs", "1"], XL,
     _fixed(xl_report(ops=0)), _fixed(xl_report())),
    ("SHARD-LAYOUT VIOLATION", ["serve", "--xl", "--shards", "2",
                                "--runs", "1"], XL,
     _by_shards(xl_report(), xl_report(events=99)),
     _by_shards(xl_report(), xl_report())),
    ("NO PRESERVATION BENEFIT", ["preserve", "--compare", "--runs", "1"],
     PRESERVE, _attended(5.0, 5.0), _attended(1.0, 5.0)),
    ("NO PRESERVATION BENEFIT", ["preserve", "--compare", "--runs", "1"],
     PRESERVE, _attended(5.0, 0.0), _attended(0.0, 0.0)),
    ("BYTES LOST: 9", ["fleet", "--runs", "1"], FLEET,
     _fixed(fleet_report(bytes_lost=9)), _fixed(fleet_report())),
    ("BYTES LOST: 9", ["fleet-monitor", "--runs", "1"], MONITOR,
     _fixed(dict(monitor_report(remediations=1), bytes_lost=9)),
     _fixed(monitor_report(remediations=1))),
    ("NO REMEDIATION", ["fleet-monitor", "--runs", "1"], MONITOR,
     _fixed(monitor_report()), _fixed(monitor_report(remediations=1))),
]


def _run(capsys, monkeypatch, argv, target, respond):
    _patch(monkeypatch, target, respond)
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "line, argv, target, triggered, quiet", CASES,
    ids=[f"{case[1][0]}-{case[0]}" for case in CASES],
)
def test_verdict_line_on_its_trigger_only(
    capsys, monkeypatch, line, argv, target, triggered, quiet
):
    code, output = _run(capsys, monkeypatch, argv, target, triggered)
    assert code == 1
    assert line in output
    code, output = _run(capsys, monkeypatch, argv, target, quiet)
    assert code == 0
    assert line not in output


@pytest.mark.parametrize("flag, report", [
    ("--no-telemetry", monitor_report(telemetry=False)),
    ("--no-rack-loss", monitor_report(rack_loss=False)),
])
def test_no_remediation_is_silent_without_telemetry_or_rack_loss(
    capsys, monkeypatch, flag, report
):
    code, output = _run(capsys, monkeypatch,
                        ["fleet-monitor", "--runs", "1", flag], MONITOR,
                        _fixed(report))
    assert code == 0
    assert "NO REMEDIATION" not in output
