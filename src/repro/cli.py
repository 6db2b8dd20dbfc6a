"""Operator console: ``python -m repro <command>``.

Inspection tooling over the models — no persistent state, every command
builds what it needs and prints a report:

    demo         end-to-end write -> burn -> robotic fetch walkthrough
    mechanics    Table-3 load/unload times for any layer
    burncurve    Figure-8/10 speed curves for 25/100 GB media
    stacks       Figure-6 throughput of every frontend configuration
    tco          the §2.1 cost comparison, with adjustable scenario
    reliability  §4.7 array error rates and §4.2 MV sizing
    power        §5.1 power corner points
    trace        run a traced scenario, print the span tree, export JSON
    monitor      run a scenario under full monitoring, emit the run report
    chaos        seeded fault-injection campaign with invariant checks
    serve        multi-tenant serving load run with QoS percentile report
    preserve     decades-scale preservation campaign, loss-rate verdict
    fleet        multi-site fleet campaign: site loss, recovery, I8 audit
    fleet-monitor  telemetry agents + closed-loop supervisor, I9 audit
    bench        engine microbench events/s, perf-floor gate check
    profile      cProfile an engine microbench, top-N hotspots
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from repro import units
from repro.report import report_to_json


def _print_rows(rows: list[dict]) -> None:
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


def cmd_demo(_args) -> int:
    from repro import small_rack

    ros = small_rack()
    print("writing 9 files ...")
    for index in range(9):
        ros.write(f"/demo/file-{index}.bin", bytes([index]) * 9000)
    print("burning ...")
    ros.flush()
    status = ros.status()
    print(f"arrays used: {status['arrays']['Used']}, "
          f"sim clock {ros.now / 60:.1f} min")
    path = "/demo/file-0.bin"
    ros.cache.evict(ros.stat(path)["locations"][0])
    result = ros.read(path)
    print(f"cold read via {result.source}: {result.total_seconds:.1f} s "
          f"(first byte {result.first_byte_seconds * 1e3:.1f} ms)")
    return 0


def cmd_mechanics(args) -> int:
    from repro.mechanics.timing import DEFAULT_TIMINGS

    rows = []
    for layer in args.layers:
        fraction = layer / 84.0
        rows.append(
            {
                "layer": layer,
                "load_s": round(DEFAULT_TIMINGS.load_total(fraction), 2),
                "unload_s": round(DEFAULT_TIMINGS.unload_total(fraction), 2),
                "load_parallel_s": round(
                    DEFAULT_TIMINGS.load_total(fraction, parallel=True), 2
                ),
            }
        )
    _print_rows(rows)
    return 0


def cmd_burncurve(args) -> int:
    from repro.drives.speed import FailSafeCurve, ZonedCAVCurve
    from repro.media.disc import BD25, BD100

    if args.disc == 25:
        curve, capacity = ZonedCAVCurve(), BD25.capacity
    else:
        curve, capacity = FailSafeCurve(seed=5), BD100.capacity
    rows = [
        {
            "progress": f"{p:.0%}",
            "speed_x": round(curve.speed_multiple(p / 1.0), 2),
            "mb_s": round(
                curve.speed_multiple(p) * units.BLU_RAY_1X / units.MB, 1
            ),
        }
        for p in [i / 10 for i in range(11)]
    ]
    _print_rows(rows)
    print(f"total burn: {curve.burn_seconds(capacity):.0f} s, "
          f"average {curve.average_multiple(capacity):.2f}X")
    return 0


def cmd_stacks(_args) -> int:
    from repro.frontend import CONFIGURATIONS, make_stack

    base = make_stack("ext4")
    rows = []
    for name in CONFIGURATIONS:
        stack = make_stack(name)
        read, write = stack.normalized(base)
        rows.append(
            {
                "config": name,
                "read_mb_s": round(stack.read_throughput() / units.MB, 1),
                "write_mb_s": round(stack.write_throughput() / units.MB, 1),
                "norm_read": round(read, 3),
                "norm_write": round(write, 3),
            }
        )
    _print_rows(rows)
    return 0


def cmd_tco(args) -> int:
    from repro.reliability.tco import TCOInputs, compare_all

    inputs = TCOInputs(
        capacity_pb=args.capacity_pb, horizon_years=args.years
    )
    rows = []
    for name, data in compare_all(inputs).items():
        rows.append(
            {
                "media": name,
                "total_k$": round(data["total"] / 1000, 1),
                "vs_optical": round(data["vs_optical"], 2),
            }
        )
    print(f"scenario: {args.capacity_pb} PB for {args.years} years")
    _print_rows(rows)
    return 0


def cmd_reliability(_args) -> int:
    from repro.reliability import (
        mv_capacity_bytes,
        raid5_array_error_rate,
        raid6_array_error_rate,
    )

    print(f"11+1 array error rate: {raid5_array_error_rate():.2e}")
    print(f"10+2 array error rate: {raid6_array_error_rate():.2e}")
    print(f"MV for 1B files + 1B dirs: "
          f"{mv_capacity_bytes() / units.TB:.2f} TB")
    return 0


def cmd_power(_args) -> int:
    from repro.power import PowerModel

    print(f"idle power: {PowerModel.idle_power_w():.0f} W")
    print(f"peak power: {PowerModel.peak_power_w():.0f} W")
    return 0


#: Scenarios ``python -m repro trace`` / ``python -m repro monitor`` can run.
TRACE_SCENARIOS = ("cold-read", "write-burn", "ops")


def _run_scenario(ros, scenario: str) -> str:
    """Drive one canonical scenario; returns its headline summary line."""
    tracer = ros.tracer
    if scenario == "cold-read":
        for index in range(3):
            ros.write(f"/trace/file-{index}.bin", bytes([index]) * 9000)
        ros.flush()
        path = "/trace/file-0.bin"
        ros.cache.evict(ros.stat(path)["locations"][0])
        tracer.clear()
        result = ros.read(path)
        ros.drain_background()
        return (
            f"cold read served from {result.source} in "
            f"{result.total_seconds:.3f} s\n"
        )
    if scenario == "write-burn":
        tracer.clear()
        for index in range(3):
            ros.write(f"/trace/file-{index}.bin", bytes([index]) * 9000)
        ros.flush()
        ros.drain_background()
        return f"3 files written and burned in {ros.now:.1f} s (simulated)\n"
    # ops: the Figure-7 sequence, everything warm
    ros.mkdir("/trace")
    ros.write("/trace/warm.bin", b"w" * 4096)
    tracer.clear()
    ros.stat("/trace/warm.bin")
    ros.read("/trace/warm.bin")
    ros.readdir("/trace")
    return "stat/read/readdir on a warm file\n"


def cmd_trace(args) -> int:
    """Run one traced scenario end to end and report its span trees."""
    from repro import small_rack
    from repro.sim.tracing import to_chrome_trace, to_flat_json

    ros = small_rack(tracing=True, trace_seed=args.seed)
    tracer = ros.tracer
    print(_run_scenario(ros, args.scenario))

    for root in tracer.roots():
        print(tracer.render_tree(root))
        print()
    print(f"{len(tracer.spans)} spans recorded")
    snapshot = ros.metrics.snapshot()
    histograms = sum(
        1 for value in snapshot.values() if isinstance(value, dict)
    )
    print(f"metrics: {len(snapshot)} registered "
          f"({len(snapshot) - histograms} counters/gauges, "
          f"{histograms} histograms)")

    if args.out:
        if args.format == "prom":
            from repro.obs import to_prometheus

            exported = to_prometheus(ros.metrics)
        else:
            exporter = (
                to_chrome_trace if args.format == "chrome" else to_flat_json
            )
            exported = exporter(tracer)
        with open(args.out, "w") as handle:
            handle.write(exported)
        print(f"wrote {args.format} trace to {args.out}")
    return 0


def cmd_monitor(args) -> int:
    """Run a scenario under full monitoring; emit the run report."""
    from repro import small_rack
    from repro.obs import build_report, render_report

    ros = small_rack(
        tracing=True, trace_seed=args.seed, monitoring=True,
        monitor_period=args.period,
    )
    print(_run_scenario(ros, args.scenario))

    report = build_report(ros, monitor=ros.monitor, recorder=ros.recorder)
    print(render_report(report))

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report_to_json(report) + "\n")
        print(f"wrote run report to {args.out}")
    if args.flight_out:
        count = ros.recorder.dump(args.flight_out)
        print(f"wrote {count} flight-recorder events to {args.flight_out}")

    slo = report.get("monitor", {}).get("slo")
    violations = slo["violation_count"] if slo else 0
    if violations:
        print(f"SLO VIOLATIONS: {violations}")
        return 1
    return 0


def _failed_invariants(report: dict) -> list[str]:
    return [
        f"FAILED {inv['invariant']}: {inv['detail']}"
        for inv in report["invariants"]
        if not inv["ok"]
    ]


def _invariants_hold(report: dict, extra: str = "") -> str:
    return f"all {len(report['invariants'])} invariants hold{extra}"


def _run_and_compare(
    args,
    run_once: Callable[[Optional[str]], dict],
    render: Callable[[dict], str],
    audit: Callable[[dict], list] = _failed_invariants,
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


def cmd_chaos(args) -> int:
    """Run a seeded chaos campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time; any
    divergence or invariant violation is a non-zero exit.
    """
    from repro.faults.campaign import render_text, run_campaign

    def audit(report: dict) -> list[str]:
        violations = report["workload_violations"]
        if violations:
            return [f"MID-CAMPAIGN VIOLATIONS: {violations}"]
        return _failed_invariants(report)

    return _run_and_compare(
        args,
        # Chaos only dumps when an invariant fails under --monitor, and
        # every failing run rewrites the same path: all runs get it.
        lambda _flight_out: run_campaign(
            args.seed,
            args.ops,
            intensity=args.intensity,
            monitor=args.monitor,
            flight_out=args.flight_out,
            serve=args.serve,
            fleet=args.fleet,
        ),
        lambda report: render_text(report, runs=max(1, args.runs)),
        audit,
        _invariants_hold,
        indent="  ",
    )


#: ``serve`` flags only one of its two campaigns reads, with the default
#: each gets once the combination is known to be valid (argparse leaves
#: them None, so a flag given to the wrong campaign can be rejected)
_SERVE_RACK_ONLY = {"prepopulate": 18, "backend": "olfs", "max_inflight": 8,
                    "faults": False, "flight_out": None}
_SERVE_XL_ONLY = {"shards": 1, "racks": 8}


def cmd_serve(args) -> int:
    """Run the multi-tenant serving harness and print the QoS report.

    Runs the identical experiment ``--runs`` times and byte-compares the
    canonical reports — the determinism contract ``python -m repro
    chaos`` enforces, extended to serving.
    """
    from repro.serve import render_text, run_serve

    for name in _SERVE_RACK_ONLY if args.xl else _SERVE_XL_ONLY:
        if getattr(args, name) not in (None, False):
            flag = "--" + name.replace("_", "-")
            args.error(
                f"{flag} is not read by the --xl campaign" if args.xl
                else f"{flag} requires --xl"
            )
    for name, default in {**_SERVE_RACK_ONLY, **_SERVE_XL_ONLY}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.xl:
        return _cmd_serve_xl(args)

    def audit(report: dict) -> list[str]:
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

    return _run_and_compare(
        args,
        lambda flight_out: run_serve(
            args.seed,
            duration_s=args.duration,
            prepopulate=args.prepopulate,
            backend=args.backend,
            faults=args.faults,
            max_inflight=args.max_inflight,
            flight_out=flight_out,
        ),
        render_text,
        audit,
    )


def _cmd_serve_xl(args) -> int:
    """Run the sharded XL campaign; byte-compare runs *and* layouts.

    With ``--shards N > 1`` the same campaign is re-run single-shard and
    the canonical reports must match byte for byte — the sharded event
    loop's determinism contract, checked from the operator console.
    """
    from repro.serve.xl import run_serve_xl

    def one(shards: int) -> dict:
        return run_serve_xl(
            args.seed, racks=args.racks, shards=shards,
            duration_s=args.duration,
        )

    def render(report: dict) -> str:
        totals = report["totals"]
        outages = [name for name, entry in report["racks"].items()
                   if entry["outage"]]
        return (
            f"serve-xl: seed={args.seed} racks={args.racks} "
            f"shards={args.shards} duration={args.duration:.0f}s\n"
            f"  ops={totals['ops']} ok={totals['ok']} "
            f"failed={totals['failed']} remote={totals['remote']} "
            f"events={report['events_issued']}\n"
            f"  outages: {', '.join(outages) if outages else 'none'}"
        )

    def audit(report: dict) -> list[str]:
        if args.shards > 1 and (
            report_to_json(one(1)) != report_to_json(report)
        ):
            return [f"SHARD-LAYOUT VIOLATION: shards={args.shards} report "
                    f"differs from the single-shard report"]
        if not report["totals"]["ops"]:
            return ["EMPTY RUN: no operations were issued"]
        return []

    return _run_and_compare(
        args, lambda _flight_out: one(args.shards), render, audit
    )


def cmd_preserve(args) -> int:
    """Run a preservation campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time.  With
    ``--compare`` the same campaign also runs with scrub/audit/migration
    disabled, and the run fails unless the preservation machinery made
    the loss-rate metric strictly better (or kept a lossless archive
    lossless).
    """
    from repro.preserve.campaign import render_text, run_preserve

    def run(attended: bool = True) -> dict:
        return run_preserve(
            args.seed,
            files=args.files,
            years=args.years,
            intensity=args.intensity,
            scrub=attended and not args.no_scrub,
            audit=attended and not args.no_audit,
            migrate=attended and not args.no_migrate,
            faults=not args.no_faults,
        )

    def audit(report: dict) -> list[str]:
        failures = _failed_invariants(report)
        if failures or not args.compare:
            return failures
        baseline = run(attended=False)["verdict"]
        base_metric = baseline["bytes_lost_per_exabyte_decade"]
        metric = report["verdict"]["bytes_lost_per_exabyte_decade"]
        print(f"  unattended baseline: "
              f"{baseline['bytes_lost']} bytes lost -> "
              f"{base_metric:.3g} per exabyte-decade")
        if metric < base_metric or (metric == 0 and base_metric == 0):
            return []
        return ["NO PRESERVATION BENEFIT: metric not strictly below "
                "the unattended baseline"]

    return _run_and_compare(
        args,
        lambda _flight_out: run(),
        lambda report: render_text(report, runs=max(1, args.runs)),
        audit,
        _invariants_hold,
        indent="  ",
    )


def _fleet_geometry(args) -> dict:
    """The shared fleet flags as ``run_fleet*`` keyword arguments."""
    return dict(
        sites=args.sites,
        racks_per_site=args.racks_per_site,
        clients=args.clients,
        duration_s=args.duration,
        objects=args.objects,
        arrival_rate=args.arrival_rate,
        rack_loss=not args.no_rack_loss,
    )


def _fleet_failures(report: dict) -> list[str]:
    failures = _failed_invariants(report)
    if report["bytes_lost"]:
        failures.append(f"BYTES LOST: {report['bytes_lost']}")
    return failures


def cmd_fleet(args) -> int:
    """Run a fleet campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time; any
    divergence, invariant violation, or lost byte is a non-zero exit.
    """
    from repro.fleet import render_text, run_fleet

    return _run_and_compare(
        args,
        lambda flight_out: run_fleet(
            args.seed,
            site_loss=not args.no_site_loss,
            flight_out=flight_out,
            **_fleet_geometry(args),
        ),
        render_text,
        _fleet_failures,
        lambda report: _invariants_hold(report, ", 0 bytes lost"),
    )


def cmd_fleet_monitor(args) -> int:
    """Run a monitored fleet campaign (twice, by default) and audit it.

    Telemetry agents replicate rack health into the central store, the
    closed-loop supervisor remediates what the rules detect, and the
    audit demands I9 ("remediation converges").  Non-zero exit on any
    divergence between runs, invariant violation, lost byte, or —
    with the rack-loss fault enabled — an empty remediation log (a
    campaign where the closed loop never closed proves nothing).
    """
    from repro.fleet.monitor import render_text, run_fleet_monitor

    def audit(report: dict) -> list[str]:
        failures = _fleet_failures(report)
        if not failures and not args.no_telemetry \
                and not args.no_rack_loss and not report["remediations"]:
            failures.append("NO REMEDIATION: rack loss was injected but "
                            "the supervisor never fired an action")
        return failures

    return _run_and_compare(
        args,
        lambda flight_out: run_fleet_monitor(
            args.seed,
            site_loss=args.site_loss,
            telemetry=not args.no_telemetry,
            flight_out=flight_out,
            **_fleet_geometry(args),
        ),
        render_text,
        audit,
        lambda report: _invariants_hold(
            report, f", {report['remediations']} remediation action(s), "
                    f"0 bytes lost"
        ),
    )


def cmd_bench(args) -> int:
    """Engine microbenches (events/s), with the floor gate."""
    from repro.perf.harness import (
        append_trajectory,
        gate_check,
        load_baseline,
        run_benchmarks,
    )

    entry = run_benchmarks(scale=args.scale, repeats=args.repeats)
    if args.label:
        entry["label"] = args.label

    rows = [
        {"microbench": name, "events_per_sec": value}
        for name, value in entry["events_per_sec"].items()
    ]
    _print_rows(rows)

    if args.out:
        append_trajectory(entry, args.out)
        print(f"appended to {args.out}")

    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"perf gate SKIPPED: no baseline at {args.baseline}")
            return 0
        failures = gate_check(
            entry["events_per_sec"], baseline, tolerance=args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"PERF GATE FAILED: {failure}")
            return 1
        print(f"perf gate ok (tolerance {args.tolerance:.0%} "
              f"below {args.baseline})")
    return 0


def cmd_profile(args) -> int:
    """cProfile one microbench and print the top-N hotspots."""
    from repro.perf.harness import profile_target

    try:
        report = profile_target(args.target, top=args.top, scale=args.scale)
    except KeyError as error:
        print(error.args[0])
        return 2
    print(report)
    return 0


def _campaign_flags(
    seed: int,
    runs_flag: str = "--runs",
    flight_help: Optional[str] = "dump the run's flight recorder (JSONL) "
                                 "here",
) -> argparse.ArgumentParser:
    """Parent parser: the flags ``_run_and_compare`` reads.

    ``flight_help=None`` leaves ``--flight-out`` off (campaigns that
    cannot attach a recorder).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=seed)
    parent.add_argument(runs_flag, dest="runs", type=int, default=2,
                        help="identical runs to byte-compare (default 2)")
    parent.add_argument("--out", help="write the JSON report here")
    if flight_help:
        parent.add_argument("--flight-out", help=flight_help)
    return parent


def _fleet_flags(**defaults) -> argparse.ArgumentParser:
    """Parent parser: the fleet geometry ``_fleet_geometry`` reads
    (``defaults`` differ between the bare and the monitored campaign)."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kind, text in (
        ("--sites", int, "failure-domain sites"),
        ("--racks-per-site", int, "optical racks per site"),
        ("--clients", int, "pooled open-loop clients across the fleet"),
        ("--duration", float, "serving horizon, simulated seconds"),
        ("--objects", int, "erasure-coded images pre-populated"),
        ("--arrival-rate", float, "per-site arrival rate, ops/second"),
    ):
        parent.add_argument(flag, type=kind,
                            help=f"{text} (default %(default)s)")
    parent.add_argument("--no-rack-loss", action="store_true",
                        help="skip the early rack-destruction fault")
    parent.set_defaults(sites=3, **defaults)
    return parent


def build_parser() -> argparse.ArgumentParser:
    from repro.perf.microbench import MICROBENCHES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ROS reproduction operator console",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="end-to-end walkthrough").set_defaults(
        handler=cmd_demo
    )

    mech = sub.add_parser("mechanics", help="Table-3 timings by layer")
    mech.add_argument(
        "--layers", type=int, nargs="+", default=[0, 42, 84]
    )
    mech.set_defaults(handler=cmd_mechanics)

    burn = sub.add_parser("burncurve", help="Figure-8/10 burn curves")
    burn.add_argument("--disc", type=int, choices=(25, 100), default=25)
    burn.set_defaults(handler=cmd_burncurve)

    sub.add_parser("stacks", help="Figure-6 stack throughput").set_defaults(
        handler=cmd_stacks
    )

    tco = sub.add_parser("tco", help="§2.1 cost comparison")
    tco.add_argument("--years", type=float, default=100.0)
    tco.add_argument("--capacity-pb", type=float, default=1.0)
    tco.set_defaults(handler=cmd_tco)

    sub.add_parser(
        "reliability", help="§4.7 error rates + §4.2 MV sizing"
    ).set_defaults(handler=cmd_reliability)

    sub.add_parser("power", help="§5.1 power corner points").set_defaults(
        handler=cmd_power
    )

    trace = sub.add_parser(
        "trace", help="trace a scenario and export spans as JSON"
    )
    trace.add_argument(
        "scenario",
        choices=TRACE_SCENARIOS,
        help="what to run under the tracer",
    )
    trace.add_argument("--out", help="write the exported trace here")
    trace.add_argument(
        "--format",
        choices=("chrome", "flat", "prom"),
        default="chrome",
        help="export format (chrome://tracing JSON, a flat span list, "
             "or Prometheus metrics exposition)",
    )
    trace.add_argument("--seed", type=int, default=0x7ACE)
    trace.set_defaults(handler=cmd_trace)

    monitor = sub.add_parser(
        "monitor", help="run a scenario under monitoring, emit the report"
    )
    monitor.add_argument(
        "--scenario",
        choices=TRACE_SCENARIOS,
        default="cold-read",
        help="what to run under the monitor (default cold-read)",
    )
    monitor.add_argument("--seed", type=int, default=0x7ACE)
    monitor.add_argument("--period", type=float, default=5.0,
                         help="health sampling period, simulated seconds")
    monitor.add_argument("--out", help="write the JSON run report here")
    monitor.add_argument("--flight-out",
                         help="dump the flight recorder (JSONL) here")
    monitor.set_defaults(handler=cmd_monitor)

    chaos = sub.add_parser(
        "chaos", help="seeded fault campaign + invariant audit",
        parents=[_campaign_flags(
            seed=7, runs_flag="--campaigns",
            flight_help="flight-recorder dump path on invariant failure "
                        "(default chaos-flight-<seed>.jsonl)",
        )],
    )
    chaos.add_argument("--ops", type=int, default=200,
                       help="workload operations per campaign")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="fault-plan hazard multiplier")
    chaos.add_argument("--monitor", action="store_true",
                       help="attach run monitoring (health sampler, SLO "
                            "watchdog, flight recorder) to each campaign")
    chaos.add_argument("--serve", action="store_true",
                       help="run the campaign under a serving workload and "
                            "audit the fifth invariant (no admitted "
                            "request lost)")
    chaos.add_argument("--fleet", action="store_true",
                       help="co-host a multi-site fleet store, add "
                            "rack/site-loss faults and audit invariant I8 "
                            "(fleet recoverability)")
    chaos.set_defaults(handler=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="multi-tenant serving load run + QoS report",
        parents=[_campaign_flags(seed=42)],
    )
    serve.add_argument("--duration", type=float, default=60.0,
                       help="serving horizon, simulated seconds")
    serve.add_argument("--prepopulate", type=int,
                       help="files written before serving starts "
                            "(default 18)")
    serve.add_argument("--backend", choices=("olfs", "cluster"),
                       help="single rack (olfs, the default) or a 2-rack "
                            "replicated cluster")
    serve.add_argument("--faults", action="store_true",
                       help="run under a randomized fault plan (incl. "
                            "link flaps and client disconnects)")
    serve.add_argument("--max-inflight", type=int,
                       help="admission controller inflight cap (default 8)")
    serve.add_argument("--xl", action="store_true",
                       help="run the sharded XL campaign (repro.serve.xl) "
                            "instead of the single-rack QoS harness; takes "
                            "--shards/--racks, not --prepopulate/--backend/"
                            "--faults/--max-inflight/--flight-out")
    serve.add_argument("--shards", type=int,
                       help="event-loop shards for --xl (default 1); >1 "
                            "also byte-compares against the single-shard "
                            "report")
    serve.add_argument("--racks", type=int,
                       help="rack count for --xl (default 8)")
    serve.set_defaults(handler=cmd_serve, error=serve.error)

    preserve = sub.add_parser(
        "preserve", help="decades-scale preservation campaign + verdict",
        parents=[_campaign_flags(seed=7, flight_help=None)],
    )
    preserve.add_argument("--files", type=int, default=12,
                          help="archive files written before the campaign")
    preserve.add_argument("--years", type=float, default=30.0,
                          help="simulated media-years the campaign covers")
    preserve.add_argument("--intensity", type=float, default=1.0,
                          help="fault-plan hazard multiplier")
    preserve.add_argument("--compare", action="store_true",
                          help="also run with scrub/audit/migration off and "
                               "require a strictly better loss metric")
    preserve.add_argument("--no-scrub", action="store_true",
                          help="disable the background scrubber")
    preserve.add_argument("--no-audit", action="store_true",
                          help="disable the cross-rack anti-entropy audit")
    preserve.add_argument("--no-migrate", action="store_true",
                          help="disable age-triggered media migration")
    preserve.add_argument("--no-faults", action="store_true",
                          help="aging only: no chaos fault storm")
    preserve.set_defaults(handler=cmd_preserve)

    fleet = sub.add_parser(
        "fleet", help="multi-site fleet campaign + recovery + I8 audit",
        parents=[_campaign_flags(seed=7), _fleet_flags(
            racks_per_site=8, clients=105_000, duration=12.0, objects=18,
            arrival_rate=60.0,
        )],
    )
    fleet.add_argument("--no-site-loss", action="store_true",
                       help="skip the mid-run whole-site destruction")
    fleet.set_defaults(handler=cmd_fleet)

    fmon = sub.add_parser(
        "fleet-monitor",
        help="fleet telemetry pipeline + closed-loop supervisor, I9 audit",
        parents=[_campaign_flags(seed=7), _fleet_flags(
            racks_per_site=4, clients=24_000, duration=10.0, objects=12,
            arrival_rate=40.0,
        )],
    )
    fmon.add_argument("--site-loss", action="store_true",
                      help="also destroy a whole site mid-run")
    fmon.add_argument("--no-telemetry", action="store_true",
                      help="baseline: same fleet, loss-event recovery, "
                           "no agents and no supervisor")
    fmon.set_defaults(handler=cmd_fleet_monitor)

    bench = sub.add_parser(
        "bench", help="engine microbench events/s, perf-floor gate"
    )
    bench.add_argument("--repeats", "--repeat", type=int, default=3,
                       help="runs per microbench; best is kept (default 3) "
                            "— best-of-N is the noise defence, see "
                            "docs/performance.md")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="multiplier on microbench event counts")
    bench.add_argument("--label", default="",
                       help="tag for this trajectory entry")
    bench.add_argument("--out", default="BENCH_engine.json",
                       help="trajectory file to append to "
                            "(default BENCH_engine.json; '' to skip)")
    bench.add_argument("--check", action="store_true",
                       help="fail if events/s drops below the baseline gate")
    bench.add_argument("--baseline", default="benchmarks/perf/baseline.json",
                       help="committed baseline for --check")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional drop below baseline")
    bench.set_defaults(handler=cmd_bench)

    profile = sub.add_parser(
        "profile", help="cProfile an engine microbench, top-N hotspots"
    )
    profile.add_argument(
        "target", help=f"microbench ({', '.join(MICROBENCHES)})"
    )
    profile.add_argument("--top", type=int, default=15,
                         help="number of hotspot rows (default 15)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="multiplier on microbench event counts")
    profile.set_defaults(handler=cmd_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
