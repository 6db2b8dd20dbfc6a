"""Self-contained run reports: health + SLO verdicts + spans + metrics.

``build_report`` assembles everything the observability layer knows about
a finished run into one deterministic dict (health timeline from the
:class:`~repro.obs.health.SystemMonitor`, SLO verdicts from the watchdog,
a top-spans table aggregated from the tracer, the full metrics snapshot,
and flight-recorder statistics); ``render_report`` prints it for humans
and ``report_json`` (:func:`repro.report.report_to_json`, re-exported)
serialises it canonically for artifacts and diffing.
"""

from __future__ import annotations

from repro.report import report_to_json as report_json  # noqa: F401
from repro.sim.tracing import Tracer


#: rows :func:`top_spans` keeps, by total duration
TOP_SPANS = 12


def top_spans(tracer: Tracer) -> list[dict]:
    """Aggregate finished spans by name: count, total/max duration."""
    totals: dict[str, dict] = {}
    for span in tracer.spans:
        if not span.finished or span.instant:
            continue
        entry = totals.setdefault(
            span.name, {"name": span.name, "count": 0, "total_s": 0.0,
                        "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["max_s"] = max(entry["max_s"], span.duration)
    rows = sorted(
        totals.values(), key=lambda row: (-row["total_s"], row["name"])
    )[:TOP_SPANS]
    for row in rows:
        row["total_s"] = round(row["total_s"], 6)
        row["max_s"] = round(row["max_s"], 6)
    return rows


def build_report(ros) -> dict:
    """One dict holding the run's complete observability picture: the
    rack's monitor (finished here) and whatever tracer and flight
    recorder its engine carries."""
    engine = ros.engine
    report: dict = {"final_time": round(engine.now, 6)}
    report["health"] = ros.health()
    if ros.monitor is not None:
        report["monitor"] = ros.monitor.finish()
        report["health_timeline"] = list(ros.monitor.timeline)
    if engine.trace.enabled:
        report["top_spans"] = top_spans(engine.trace)
        report["span_count"] = len(engine.trace.spans)
    report["metrics"] = ros.metrics.snapshot()
    recorder = engine.recorder
    if recorder.enabled:
        report["flight_recorder"] = {
            "capacity": recorder.capacity,
            "recorded": recorder.recorded,
            "retained": len(recorder),
            "dropped": recorder.dropped,
        }
    return report


def _render_health(health: dict, indent: str = "  ") -> list[str]:
    lines = []
    for key in sorted(health):
        value = health[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_health(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {len(value)} item(s)")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def render_report(report: dict) -> str:
    """Human-readable multi-section report for the CLI."""
    lines = [f"run report @ t={report['final_time']:.3f}s", ""]
    monitor = report.get("monitor")
    if monitor is not None:
        slo = monitor.get("slo")
        lines.append(
            f"health timeline: {monitor['samples']} sample(s)"
        )
        for name, stats in monitor.get("series", {}).items():
            lines.append(
                f"  {name:<16s} peak={stats['peak']:g} mean={stats['mean']:g}"
            )
        lines.append("")
        if slo is not None:
            lines.append(
                f"SLO verdicts ({slo['spans_checked']} spans checked, "
                f"{slo['violation_count']} violation(s)):"
            )
            for name, verdict in sorted(slo["verdicts"].items()):
                status = "OK" if verdict["ok"] else (
                    f"VIOLATED x{verdict['violations']}"
                )
                lines.append(
                    f"  {name:<24s} {status:<14s} [{verdict['source']}]"
                )
            for violation in slo["violations"]:
                lines.append(
                    f"    t={violation['t']:.3f}s {violation['span']}: "
                    f"{violation['detail']}"
                )
            lines.append("")
    if "top_spans" in report:
        lines.append(f"top spans ({report['span_count']} total):")
        for row in report["top_spans"]:
            lines.append(
                f"  {row['name']:<28s} n={row['count']:<5d} "
                f"total={row['total_s']:>10.3f}s max={row['max_s']:>9.3f}s"
            )
        lines.append("")
    recorder = report.get("flight_recorder")
    if recorder is not None:
        lines.append(
            f"flight recorder: {recorder['retained']} event(s) retained "
            f"({recorder['recorded']} recorded, {recorder['dropped']} "
            f"dropped)"
        )
        lines.append("")
    metrics = report.get("metrics", {})
    lines.append(f"metrics: {len(metrics)} registered")
    lines.append("")
    lines.append("final health:")
    lines.extend(_render_health(report["health"]))
    return "\n".join(lines)
