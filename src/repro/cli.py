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

From ``chaos`` on, each command is registered beside the ``run_*`` it
drives; the campaigns share :func:`repro.report.run_and_compare`.
"""

from __future__ import annotations

import argparse
import sys

from repro import units
from repro.report import print_rows, report_to_json


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
    print_rows(rows)
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
    print_rows(rows)
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
    print_rows(rows)
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
    print_rows(rows)
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


def _traced_rack(seed: int):
    """The scenario rack, with a tracer on its engine."""
    from repro import small_rack
    from repro.sim.tracing import Tracer

    ros = small_rack()
    return ros, Tracer(ros.engine, seed=seed).install()


def _run_scenario(ros, scenario: str) -> str:
    """Drive one canonical scenario; returns its headline summary line."""
    tracer = ros.engine.trace
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
    from repro.sim.tracing import to_chrome_trace, to_flat_json

    ros, tracer = _traced_rack(args.seed)
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
    from repro.obs import (
        FlightRecorder, SystemMonitor, build_report, render_report,
    )

    ros, _ = _traced_rack(args.seed)
    recorder = FlightRecorder(ros.engine).install()
    SystemMonitor(ros, period=args.period).start()
    print(_run_scenario(ros, args.scenario))

    report = build_report(ros)
    print(render_report(report))

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report_to_json(report) + "\n")
        print(f"wrote run report to {args.out}")
    if args.flight_out:
        count = recorder.dump(args.flight_out)
        print(f"wrote {count} flight-recorder events to {args.flight_out}")

    slo = report.get("monitor", {}).get("slo")
    violations = slo["violation_count"] if slo else 0
    if violations:
        print(f"SLO VIOLATIONS: {violations}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import serve
    from repro.faults import campaign as chaos
    from repro.fleet import campaign as fleet
    from repro.perf import harness as perf
    from repro.preserve import campaign as preserve

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

    for package in (chaos, serve, preserve, fleet, perf):
        package.register(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
