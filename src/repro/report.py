"""The one report module: canonical bytes, outcome reduction, shared text,
and the determinism harness every campaign command runs through.

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
* :func:`run_and_compare` is the determinism harness of every campaign
  command: run ``--runs`` times, byte-compare, exit 1 on ``failures``.
  :func:`run_flags` / :func:`run_kwargs` read each flag's default from
  the campaign's ``run_*`` signature, so it is stated there only.
"""

from __future__ import annotations

import inspect
import json
from typing import Callable, Optional


def report_to_json(report) -> str:
    """Canonical byte form — what determinism checks compare."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def print_rows(rows: list[dict]) -> None:
    """Print ``rows`` as a left-aligned table headed by their keys."""
    if not rows:
        return
    keys = list(rows[0].keys())
    widths = {
        key: max(len(str(key)), *(len(str(row.get(key, ""))) for row in rows))
        for key in keys
    }
    print("  ".join(str(key).ljust(widths[key]) for key in keys))
    for row in rows:
        print("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in keys))


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


def failed_invariants(report: dict) -> list[str]:
    """One ``FAILED`` line per invariant the report records as broken."""
    return [
        f"FAILED {inv['invariant']}: {inv['detail']}"
        for inv in report["invariants"]
        if not inv["ok"]
    ]


def invariants_hold(report: dict, extra: str = "") -> str:
    return f"all {len(report['invariants'])} invariants hold{extra}"


def run_and_compare(
    args,
    run_once: Callable[[Optional[str]], dict],
    render: Callable[[dict], str],
    audit: Callable[[dict], list] = failed_invariants,
    success: Optional[Callable[[dict], str]] = None,
    indent: str = "",
) -> int:
    """The determinism contract behind every campaign command.

    Calls ``run_once(flight_out)`` ``args.runs`` times (at least once)
    and byte-compares the canonical JSON of the reports.  Only run 0 is
    handed ``args.flight_out`` (one dump of a deterministic run is all
    anyone needs), and the ``flight_dump`` path a run embeds is popped
    before serializing, so neither the compared bytes nor ``--out``
    depend on where the journal went.  Then, in order: print
    ``render(report)``; write run 0's bytes to ``--out``; exit 1 on
    ``DETERMINISM VIOLATION`` if any two runs differ; exit 1 printing
    every line ``audit(report)`` returns (failed invariants by default);
    otherwise exit 0, closing with ``success(report)`` and what was
    compared — a single run compares nothing, and says so.
    """
    flight_out = getattr(args, "flight_out", None)
    runs = []
    for index in range(max(1, args.runs)):
        report = run_once(flight_out if index == 0 else None)
        dump = report.pop("flight_dump", None)
        if index == 0 and dump:
            print(f"wrote flight-recorder dump to {dump}")
        runs.append(report_to_json(report))
    report = json.loads(runs[0])

    print(render(report))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(runs[0])
        print(f"{indent}wrote report to {args.out}")
    if any(run != runs[0] for run in runs[1:]):
        print("DETERMINISM VIOLATION: reports differ across identical runs")
        return 1
    failures = audit(report)
    if failures:
        print("\n".join(failures))
        return 1
    compared = (
        f"{len(runs)} runs byte-identical" if len(runs) > 1
        else "determinism not checked (1 run)"
    )
    if success is not None:
        print(f"{indent}{success(report)}; {compared}")
    elif len(runs) == 1:
        print(compared)
    return 0


def campaign_parser(
    sub, name: str, summary: str, handler: Callable, seed: int,
    runs_flag: str = "--runs",
    flight_help: Optional[str] = "dump the run's flight recorder (JSONL) here",
):
    """Add campaign ``name``'s subparser with the flags
    :func:`run_and_compare` reads; ``flight_help=None`` leaves
    ``--flight-out`` off (campaigns that cannot attach a recorder)."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(runs_flag, dest="runs", type=int, default=2,
                        help="identical runs to byte-compare (default 2)")
    parser.add_argument("--out", help="write the JSON report here")
    if flight_help:
        parser.add_argument("--flight-out", help=flight_help)
    parser.set_defaults(handler=handler)
    return parser


def run_flags(parser, run: Callable, flags: dict) -> None:
    """Add a flag for each parameter of ``run`` that ``flags`` names.

    ``flags`` maps it to its help, or to ``add_argument`` options (plus
    ``aliases``).  ``duration_s`` is ``--duration``; a bool is a switch
    away from its default (``--monitor``, ``--no-scrub``).  A valued
    flag's help shows the signature default; left off, it parses to None.
    """
    params = inspect.signature(run).parameters
    for name, options in flags.items():
        options = {"help": options} if isinstance(options, str) else {**options}
        default = params[name].default
        flag = name.removesuffix("_s").replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(
                f"--no-{flag}" if default else f"--{flag}", dest=name,
                action="store_false" if default else "store_true", **options,
            )
            continue
        options["help"] += f" (default {default})"
        if flag != name.replace("_", "-"):
            options["metavar"] = flag.upper()
        parser.add_argument(f"--{flag}", *options.pop("aliases", ()),
                            dest=name, type=type(default), **options)


def run_kwargs(run: Callable, args, **given) -> dict:
    """``run``'s keyword arguments: the flag of each parameter that has
    one and was given, else the parameter's default; then ``given``."""
    kwargs = {}
    for name, param in inspect.signature(run).parameters.items():
        value = getattr(args, name, None)
        kwargs[name] = param.default if value is None else value
    return {**kwargs, **given}
