"""The one report module: canonical bytes, outcome reduction, shared text.

Every campaign (chaos, serve, serve-xl, preserve, fleet, fleet-monitor,
and the ``repro monitor`` run report) reduces a finished run to a plain
dict and hands it here:

* :func:`report_to_json` is *the* canonical serializer — sorted keys,
  compact separators — whose output the determinism checks byte-compare.
  ``repro.serve.report``, ``repro.serve.xl``, ``repro.fleet``,
  ``repro.fleet.monitor``, ``repro.preserve``, ``repro.faults.campaign``
  (as ``report_to_json``) and ``repro.obs`` (as ``report_json``)
  re-export this one function.
* :func:`tenant_outcomes` / :func:`latency_percentiles` are the
  per-tenant "status counts + p50/p95/p99" reduction over the serve
  layer's metrics that the serve, fleet and serve-xl reports share.
* :func:`render_fleet_footer` is the store / recovery / invariant /
  verdict text block under both fleet campaign summaries.
"""

from __future__ import annotations

import json


def report_to_json(report) -> str:
    """Canonical byte form — what determinism checks compare."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def latency_percentiles(histogram) -> dict:
    """The p50/p95/p99 triple every latency table reports (rounded)."""
    return {
        "p50_s": round(histogram.quantile(0.50), 6),
        "p95_s": round(histogram.quantile(0.95), 6),
        "p99_s": round(histogram.quantile(0.99), 6),
    }


def tenant_outcomes(metrics, admission, name: str) -> dict:
    """One tenant's outcome counts, acked bytes and latency percentiles.

    Reads the instruments :class:`~repro.serve.session.ClientSession`
    writes (``serve.ops.<tenant>.<status>``, ``serve.bytes.<tenant>``,
    ``serve.latency_s.<tenant>``) and the admission controller's
    per-tenant stats; a tenant that declares a p99 SLO also gets its
    verdict, judged on the unrounded tail.
    """
    # serve's package init imports this module (via serve.report)
    from repro.serve.session import LATENCY_BOUNDS, STATUSES

    histogram = metrics.histogram(f"serve.latency_s.{name}", LATENCY_BOUNDS)
    counts = {
        status: int(metrics.counter(f"serve.ops.{name}.{status}").value)
        for status in STATUSES
    }
    entry = {
        "ops": sum(counts.values()),
        "outcomes": counts,
        "admitted": int(admission.stats[name]["admitted"]),
        "ok_bytes": round(metrics.counter(f"serve.bytes.{name}").value, 3),
        **latency_percentiles(histogram),
    }
    slo_p99_s = admission.tenants[name].slo_p99_s
    if slo_p99_s is not None:
        entry["slo_p99_s"] = slo_p99_s
        entry["slo_met"] = bool(
            histogram.count == 0 or histogram.quantile(0.99) <= slo_p99_s
        )
    return entry


def render_fleet_footer(report: dict) -> list[str]:
    """Store, recovery, invariant and verdict lines of a fleet report."""
    store = report["store"]
    recovery = report["recovery"]
    lines = [
        "",
        f"store: {store['racks_up']}/{store['racks']} racks up, "
        f"{store['objects']} objects, "
        f"{store['lost_shards']} shards still lost",
        f"recovery: {recovery['campaigns']} campaigns, "
        f"{recovery['shards_rebuilt']} shards rebuilt, "
        f"{recovery['objects_unrecoverable']} objects unrecoverable",
    ]
    for inv in report["invariants"]:
        status = "PASS" if inv["ok"] else "FAIL"
        lines.append(f"invariant {inv['invariant']}: {status}")
    lines.append(
        f"bytes lost: {report['bytes_lost']}  "
        f"verdict: {'OK' if report['ok'] else 'VIOLATION'}"
    )
    return lines
