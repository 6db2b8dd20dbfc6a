"""Per-tenant serving reports: throughput, percentiles, SLO verdicts.

``build_report`` reduces a finished load run into one deterministic dict
(sorted tenants, rounded floats) and ``render_text`` renders the human
table; ``report_to_json`` — the canonical byte form the CLI and CI
compare across runs — is :func:`repro.report.report_to_json`, re-exported.
"""

from __future__ import annotations

from repro import units
from repro.report import (  # noqa: F401  (report_to_json re-exported)
    report_to_json,
    tenant_outcomes,
)
from repro.serve.tenancy import AdmissionController
from repro.sim.tracing import MetricsRegistry


def build_report(
    seed: int,
    duration_s: float,
    metrics: MetricsRegistry,
    admission: AdmissionController,
    link_health: dict,
    backend: str,
) -> dict:
    """One deterministic dict summarizing a serve run."""
    tenants = {}
    for name in sorted(admission.tenants):
        spec = admission.tenants[name]
        stats = admission.stats[name]
        entry = tenant_outcomes(metrics, admission, name)
        entry.update({
            "admitted_bytes": round(stats["admitted_bytes"], 3),
            "mean_queue_s": round(
                stats["queue_seconds"] / stats["admitted"], 6
            ) if stats["admitted"] else 0.0,
            "throughput_mbps": round(
                entry["ok_bytes"] / duration_s / units.MB, 3
            ) if duration_s > 0 else 0.0,
            "weight": spec.weight,
            "rate_bytes": spec.rate_bytes,
            "rate_ops": spec.rate_ops,
        })
        tenants[name] = entry
    audit_ok, audit_detail = admission.audit()
    return {
        "seed": seed,
        "backend": backend,
        "duration_s": round(duration_s, 6),
        "tenants": tenants,
        "totals": {
            "ops": sum(entry["ops"] for entry in tenants.values()),
            "ok": sum(
                entry["outcomes"]["ok"] for entry in tenants.values()
            ),
            "rejected": sum(
                entry["outcomes"]["rejected"] for entry in tenants.values()
            ),
            "timeouts": sum(
                entry["outcomes"]["timeout"] for entry in tenants.values()
            ),
            "ok_bytes": round(
                sum(entry["ok_bytes"] for entry in tenants.values()), 3
            ),
        },
        "link": {
            "bytes_in": round(link_health["bytes_in"], 3),
            "bytes_out": round(link_health["bytes_out"], 3),
            "requests": link_health["requests"],
            "responses": link_health["responses"],
            "drops": link_health["drops"],
            "utilization_in": round(
                link_health["bytes_in"]
                / (link_health["capacity_bps"] * duration_s),
                4,
            ) if duration_s > 0 else 0.0,
            "utilization_out": round(
                link_health["bytes_out"]
                / (link_health["capacity_bps"] * duration_s),
                4,
            ) if duration_s > 0 else 0.0,
        },
        "admission_audit": {"ok": audit_ok, "detail": audit_detail},
    }


def render_text(report: dict) -> str:
    """Human-readable per-tenant table plus link/audit footer."""
    lines = [
        f"serve report  seed={report['seed']}  "
        f"backend={report['backend']}  "
        f"duration={report['duration_s']:.1f}s",
        "",
    ]
    header = (
        f"{'tenant':<12} {'ops':>6} {'ok':>6} {'rej':>5} {'t/o':>5} "
        f"{'MB/s':>8} {'p50 s':>9} {'p95 s':>9} {'p99 s':>9} {'slo':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in report["tenants"].items():
        slo = "-"
        if "slo_met" in entry:
            slo = "ok" if entry["slo_met"] else "MISS"
        lines.append(
            f"{name:<12} {entry['ops']:>6} "
            f"{entry['outcomes']['ok']:>6} "
            f"{entry['outcomes']['rejected']:>5} "
            f"{entry['outcomes']['timeout']:>5} "
            f"{entry['throughput_mbps']:>8.2f} "
            f"{entry['p50_s']:>9.4f} {entry['p95_s']:>9.4f} "
            f"{entry['p99_s']:>9.4f} {slo:>4}"
        )
    link = report["link"]
    lines.append("")
    lines.append(
        f"link: in {link['bytes_in'] / units.MB:.1f} MB "
        f"({link['utilization_in'] * 100:.1f}%)  "
        f"out {link['bytes_out'] / units.MB:.1f} MB "
        f"({link['utilization_out'] * 100:.1f}%)  "
        f"drops {link['drops']}"
    )
    audit = report["admission_audit"]
    lines.append(
        f"admission audit: {'PASS' if audit['ok'] else 'FAIL'} "
        f"({audit['detail']})"
    )
    return "\n".join(lines)


def failures(report: dict) -> list[str]:
    """The first exit-1 line that applies: empty run, audit, missed SLO."""
    if not report["totals"]["ops"]:
        return ["EMPTY RUN: no operations were issued"]
    if not report["admission_audit"]["ok"]:
        return [f"ADMISSION AUDIT FAILED: "
                f"{report['admission_audit']['detail']}"]
    missed = [
        name for name, entry in report["tenants"].items()
        if entry.get("slo_met") is False
    ]
    return [f"SLO MISSED by: {', '.join(missed)}"] if missed else []
