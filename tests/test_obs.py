"""Tests for repro.obs: health API, flight recorder, SLO watchdog, export.

The observability layer must be a pure observer — the determinism tests
at the bottom pin the null-object default (no monitoring, no recorder)
to byte-identical behaviour — while the monitored path must see every
interesting event: drive transitions, PLC traffic, cache evictions,
fault injections and the retries they trigger.
"""

import json

import numpy as np
import pytest

import repro.obs.recorder as recorder_module
from repro import small_rack, units
from repro.faults import DRIVE_HARD, DRIVE_TRANSIENT, FaultInjector, FaultPlan
from repro.obs import (
    PAPER_SLOS,
    FlightRecorder,
    SLO,
    SLOWatchdog,
    SystemMonitor,
    build_report,
    evaluate,
    render_report,
    report_json,
    to_prometheus,
    top_spans,
)
from repro.sim.engine import Delay, Engine, NULL_RECORDER
from repro.sim.tracing import MetricsRegistry, Tracer
from tests.conftest import make_ros, write_batch


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def test_recorder_ring_buffer_drops_oldest(monkeypatch):
    monkeypatch.setattr(recorder_module, "CAPACITY", 4)
    engine = Engine()
    recorder = FlightRecorder(engine)
    for index in range(6):
        recorder.record("tick", n=index)
    assert len(recorder) == 4
    assert recorder.recorded == 6
    assert recorder.dropped == 2
    assert [event["n"] for event in recorder.events()] == [2, 3, 4, 5]


def test_recorder_kind_prefix_filter():
    recorder = FlightRecorder(Engine())
    recorder.record("drive.transition", drive_id="d0")
    recorder.record("drive.retry", drive_id="d0")
    recorder.record("driver.other")
    recorder.record("plc.instruction", mnemonic="ROTATE")
    assert len(recorder.events("drive")) == 2
    assert len(recorder.events("drive.transition")) == 1
    assert len(recorder.events("plc")) == 1


def test_recorder_dump_roundtrips_as_jsonl(tmp_path):
    engine = Engine()
    recorder = FlightRecorder(engine)
    recorder.record("a", x=1)
    recorder.record("b", y="z")
    path = tmp_path / "flight.jsonl"
    assert recorder.dump(str(path)) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == recorder.events()


def test_recorder_install_and_null_default():
    engine = Engine()
    assert engine.recorder is NULL_RECORDER
    assert not engine.recorder.enabled
    engine.recorder.record("ignored", x=1)  # no-op, must not raise
    recorder = FlightRecorder(engine).install()
    assert engine.recorder is recorder
    assert recorder.enabled


# ----------------------------------------------------------------------
# SLO specs and watchdog
# ----------------------------------------------------------------------
def _traced_engine():
    engine = Engine()
    tracer = Tracer(engine, seed=1)
    engine.trace = tracer
    return engine, tracer


def test_slo_latency_ceiling_detects_violation():
    engine, tracer = _traced_engine()

    def slow_load():
        with tracer.span("mech.load_array", "mech"):
            yield Delay(120.0)  # budget is 73.2 * 1.05

    engine.run_process(slow_load())
    violations = evaluate(PAPER_SLOS, tracer.spans)
    assert len(violations) == 1
    assert violations[0]["slo"] == "mech.load_array"
    assert violations[0]["source"] == "Table 3"
    assert "budget" in violations[0]["detail"]


def test_slo_rate_floor_detects_slow_burn_and_skips_interrupted():
    engine, tracer = _traced_engine()

    def burns():
        # A healthy 6X burn: above the 4X floor.
        with tracer.span("drive.burn", "drive",
                         {"bytes": int(6.0 * units.BLU_RAY_1X * 10)}):
            yield Delay(10.0)
        # A crawling burn: far below the floor.
        with tracer.span("drive.burn", "drive", {"bytes": int(1 * units.MB)}):
            yield Delay(10.0)
        # Same crawl, but interrupted: the bytes tag holds the requested
        # size, so the rate is meaningless and must be skipped.
        with tracer.span("drive.burn", "drive",
                         {"bytes": int(1 * units.MB)}) as span:
            span.tag("interrupted", True)
            yield Delay(10.0)

    engine.run_process(burns())
    violations = evaluate(PAPER_SLOS, tracer.spans)
    assert len(violations) == 1
    assert violations[0]["slo"] == "burn.speed_floor"
    assert "floor" in violations[0]["detail"]


def test_slo_ignores_other_spans_and_unfinished():
    slo = SLO(name="x", span_name="op.read", max_seconds=1.0)
    engine, tracer = _traced_engine()

    def other():
        with tracer.span("op.write", "posix"):
            yield Delay(5.0)

    engine.run_process(other())
    assert evaluate([slo], tracer.spans) == []


def test_watchdog_incremental_poll_revisits_open_spans():
    engine, tracer = _traced_engine()
    watchdog = SLOWatchdog(tracer)

    def slow_read():
        with tracer.span("op.read", "posix"):
            yield Delay(500.0)  # way past the Table-1 worst case

    process = engine.spawn(slow_read(), "read")
    engine.run(until=100.0)
    # Span is open: no violation yet, but it is parked for re-checking.
    assert watchdog.poll() == []
    assert watchdog._pending
    engine.run()
    assert process.done
    new = watchdog.poll()
    assert [v["slo"] for v in new] == ["read.cold_worst_case"]
    summary = watchdog.summary()
    assert summary["violation_count"] == 1
    assert not summary["verdicts"]["read.cold_worst_case"]["ok"]
    assert summary["verdicts"]["mech.load_array"]["ok"]


def test_watchdog_survives_tracer_clear():
    engine, tracer = _traced_engine()
    watchdog = SLOWatchdog(tracer)

    def load(seconds):
        with tracer.span("mech.load_array", "mech"):
            yield Delay(seconds)

    engine.run_process(load(10.0))
    watchdog.poll()
    tracer.clear()
    engine.run_process(load(200.0))  # violating span in the new stream
    assert [v["slo"] for v in watchdog.poll()] == ["mech.load_array"]


def test_paper_slos_hold_on_unfaulted_cold_read():
    """The acceptance scenario: zero violations without faults."""
    ros = make_ros(tracing=True)
    write_batch(ros, count=8)
    ros.flush()
    path = "/inj/f00.bin"
    ros.cache.evict(ros.stat(path)["locations"][0])
    ros.read(path)
    ros.drain_background()
    assert evaluate(PAPER_SLOS, ros.engine.trace.spans) == []


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_exposition_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("cache.misses").inc(3)
    registry.gauge("queue-depth").set(2.5)
    text = to_prometheus(registry)
    assert "# TYPE repro_cache_misses counter" in text
    assert "repro_cache_misses 3" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_queue_depth 2.5" in text
    assert text.endswith("\n")


def test_prometheus_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", (1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.5, 2.0, 7.0):
        histogram.observe(value)
    text = to_prometheus(registry)
    # le semantics: 1.0 lands in le="1" (v <= bound), 2.0 in le="2".
    assert 'repro_lat_bucket{le="1"} 2' in text
    assert 'repro_lat_bucket{le="2"} 4' in text
    assert 'repro_lat_bucket{le="5"} 4' in text
    assert 'repro_lat_bucket{le="+Inf"} 5' in text
    assert "repro_lat_count 5" in text
    assert "repro_lat_sum 12" in text


def test_prometheus_empty_registry_is_empty_string():
    assert to_prometheus(MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# Health API
# ----------------------------------------------------------------------
def test_health_snapshot_covers_every_subsystem_and_is_json_safe():
    ros = make_ros()
    write_batch(ros, count=8)
    ros.flush()
    health = ros.health()
    assert set(health) == {
        "mech", "mc", "scheduler", "cache", "btm", "ftm", "wbm", "foreparts"
    }
    json.dumps(health)  # must be JSON-serialisable as-is
    drive_set = health["mech"]["drive_sets"][0]
    assert drive_set["drives"] == len(drive_set["per_drive"])
    assert sum(drive_set["states"].values()) == drive_set["drives"]
    assert drive_set["loaded"] <= drive_set["drives"]
    assert health["mc"]["da_index"]["Used"] >= 1
    assert health["scheduler"]["policy"] == "partitioned"
    assert health["wbm"]["created"] >= health["wbm"]["closed"]


def test_health_includes_fault_injector_when_installed():
    ros = make_ros(fault_plan=FaultPlan())
    health = ros.health()
    assert health["faults"]["active"] is True
    drive = ros.mech.drive_sets[0].drives[0]
    ros.engine.faults.inject(DRIVE_TRANSIENT, target=drive.drive_id)
    assert ros.health()["faults"]["oneshots_armed"] == 1


def test_drive_health_reports_state_machine():
    ros = make_ros()
    drive = ros.mech.drive_sets[0].drives[0]
    snapshot = drive.health()
    assert snapshot["state"] == "empty"
    assert snapshot["disc"] is None
    assert snapshot["interrupt_requested"] is False


# ----------------------------------------------------------------------
# SystemMonitor
# ----------------------------------------------------------------------
def test_monitor_builds_timeline_on_the_simulated_clock():
    ros = make_ros(monitoring=True, monitor_period=10.0)
    write_batch(ros, count=8)
    ros.flush()
    assert ros.monitor is not None and ros.engine.recorder.enabled
    timeline = list(ros.monitor.timeline)
    assert timeline
    times = [snap["t"] for snap in timeline]
    assert times == sorted(times)
    assert set(timeline[-1]) > {"t", "mech", "cache", "btm"}
    store = ros.monitor.store
    names = {"cache_images", "burning_drives", "burn_tasks", "mech_queue"}
    assert {name for name in names if store.series(name)} == names
    # one raw point per series per tick, stamped with the tick's clock
    ticks = ros.monitor.counters["ticks"]
    for name in names:
        points = store.series(name).raw_points()
        assert len(points) == ticks
        assert [t for t, _v in points] == sorted(t for t, _v in points)


def test_monitor_summary_peak_and_mean():
    """finish()'s series section: peak is max, mean rounds to 3 places."""
    ros = make_ros()
    monitor = SystemMonitor(ros, period=2.0)
    readings = iter([1.0, 2.0, 2.0])
    monitor.probes = {"n": lambda: next(readings)}
    monitor.start()
    ros.engine.run(until=6.5)
    summary = monitor.finish()
    assert [v for _t, v in monitor.store.series("n").raw_points()] == [
        1.0, 2.0, 2.0
    ]
    assert summary["series"] == {"n": {"peak": 2.0, "mean": 1.667}}


def test_monitor_summary_of_a_tickless_run_reads_zero():
    """A monitor finished before its first tick reports 0.0, not a crash."""
    ros = make_ros()
    monitor = SystemMonitor(ros).start()
    summary = monitor.finish()
    ros.engine.run()
    assert ros.engine.is_idle
    assert summary["counters"]["ticks"] == 0
    assert summary["series"] == {
        name: {"peak": 0.0, "mean": 0.0}
        for name in (
            "burn_tasks", "burning_drives", "cache_images", "mech_queue"
        )
    }


def test_monitor_finish_is_terminal_and_engine_drains():
    ros = make_ros(monitoring=True)
    write_batch(ros, count=4)
    ros.flush()
    summary = ros.monitor.finish()
    assert summary["samples"] == len(ros.monitor.timeline)
    assert summary["slo"] is None  # no tracer on this rack
    ros.drain_background()
    assert ros.engine.is_idle
    # start() after finish() must not resurrect the sampler.
    ros.monitor.start()
    ros.drain_background()
    assert ros.engine.is_idle


def test_monitored_run_journals_transitions_plc_and_evictions():
    ros = make_ros(monitoring=True)
    write_batch(ros, count=8)
    ros.flush()
    # Evict an image that is certainly cached so the manual cause appears.
    ros.cache.evict(ros.cache.cached_ids[0])
    kinds = {event["kind"] for event in ros.engine.recorder.events()}
    assert "drive.transition" in kinds
    assert "plc.instruction" in kinds
    assert "cache.eviction" in kinds
    transitions = ros.engine.recorder.events("drive.transition")
    assert all(
        {"drive_id", "from", "to", "reason"} <= set(event)
        for event in transitions
    )
    manual = [event for event in ros.engine.recorder.events("cache.eviction")
              if event["cause"] == "manual"]
    assert manual


def test_chaos_hard_fault_produces_flight_dump_with_retry_chain(tmp_path):
    """Acceptance: fault event + subsequent retry chain in the dump."""
    ros = make_ros(fault_plan=FaultPlan(), monitoring=True, auto_burn=False)
    write_batch(ros)
    drive = ros.mech.drive_sets[0].drives[0]
    ros.engine.faults.inject(DRIVE_HARD, target=drive.drive_id,
                              duration=600.0)
    ros.flush()
    path = tmp_path / "flight.jsonl"
    count = ros.engine.recorder.dump(str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == count
    kinds = [event["kind"] for event in events]
    fault_index = kinds.index("fault.arm")
    assert events[fault_index]["fault_kind"] == DRIVE_HARD
    retries = [
        (index, event) for index, event in enumerate(events)
        if event["kind"] == "btm.retry"
    ]
    assert retries, "hard fault produced no burn retries"
    # The retry chain follows the injection in event order...
    assert all(index > fault_index for index, _ in retries)
    # ...and names the injected fault as its cause.
    assert any("injected fault" in event["error"] for _, event in retries)


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def _monitored_cold_read():
    ros = make_ros(monitoring=True, tracing=True)
    payloads = write_batch(ros, count=8)
    ros.flush()
    path = next(iter(payloads))
    ros.cache.evict(ros.stat(path)["locations"][0])
    ros.read(path)
    ros.drain_background()
    return ros


def test_build_report_sections_and_rendering():
    ros = _monitored_cold_read()
    report = build_report(ros)
    assert report["monitor"]["slo"]["violation_count"] == 0
    assert report["health_timeline"]
    assert report["span_count"] == len(ros.engine.trace.spans)
    assert report["flight_recorder"]["recorded"] > 0
    names = [row["name"] for row in report["top_spans"]]
    assert "op.read" in names
    # Canonical JSON round-trips.
    assert json.loads(report_json(report)) == json.loads(
        report_json(json.loads(report_json(report)))
    )
    text = render_report(report)
    assert "SLO verdicts" in text
    assert "read.cold_worst_case" in text
    assert "flight recorder:" in text


def test_top_spans_aggregates_by_name():
    engine, tracer = _traced_engine()

    def work():
        for _ in range(3):
            with tracer.span("a", "t"):
                yield Delay(2.0)
        with tracer.span("b", "t"):
            yield Delay(10.0)

    engine.run_process(work())
    rows = top_spans(tracer)
    assert rows[0]["name"] == "b" and rows[0]["count"] == 1
    assert rows[1]["name"] == "a" and rows[1]["count"] == 3
    assert rows[1]["total_s"] == pytest.approx(6.0)
    assert rows[1]["max_s"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Determinism: monitoring must not perturb the simulation
# ----------------------------------------------------------------------
def _cold_read_fingerprint(**kwargs):
    ros = make_ros(tracing=True, **kwargs)
    payloads = write_batch(ros, count=8)
    ros.flush()
    path = next(iter(payloads))
    ros.cache.evict(ros.stat(path)["locations"][0])
    result = ros.read(path)
    ros.drain_background()
    return (
        round(ros.now, 9),
        round(result.total_seconds, 9),
        [(span.name, round(span.start, 9)) for span in ros.engine.trace.spans],
    )


def test_monitoring_does_not_perturb_the_simulation():
    """Same clock, same result, same span stream — monitor on or off."""
    bare = _cold_read_fingerprint()
    monitored = _cold_read_fingerprint(monitoring=True)
    assert bare == monitored


def test_unmonitored_rack_keeps_null_objects():
    ros = make_ros()
    assert ros.monitor is None
    assert ros.engine.recorder is NULL_RECORDER


def test_monitor_counters_survive_the_timeline_ring():
    """finish() reports monotonic counters the bounded ring can't lose."""
    ros = make_ros(monitoring=True, monitor_period=5.0)
    write_batch(ros, count=6)
    ros.flush()
    summary = ros.monitor.finish()
    counters = summary["counters"]
    assert set(counters) == {"ticks", "snapshots", "slo_violations"}
    assert counters["ticks"] > 0
    # every tick snapshots, plus one extra per explicit snapshot() call
    # (finish() itself takes the final one)
    assert counters["snapshots"] >= counters["ticks"] + 1
    assert counters["slo_violations"] == 0  # no tracer on this rack
    assert all(isinstance(v, int) for v in counters.values())


# ----------------------------------------------------------------------
# Observing costs zero events: a tracer and a flight recorder (or an
# injector with no channel fault armed) leave the schedule untouched, so
# the event count — and every report byte — is the bare run's.
# ----------------------------------------------------------------------
def _cold_read_run(tracing=False, fault_plan=None):
    """bench/workloads.py's ``rack_cold_read`` at scale 0.05: 60 files of
    9000 bytes, written and burned, then 200 Zipf reads through the
    4-image read cache.  Returns (events, what each read saw, the rack)."""
    rng = np.random.default_rng(42)
    files, reads, size = 60, 200, 9000
    blob = rng.integers(0, 256, size=files * size, dtype=np.uint8).tobytes()
    paths = [f"/cold/d{index % 37:02d}/f{index:05d}.bin"
             for index in range(files)]
    order = rng.permutation(files)[rng.zipf(1.2, size=reads) % files]
    ros = small_rack()
    if tracing:
        Tracer(ros.engine).install()
        FlightRecorder(ros.engine).install()
    if fault_plan is not None:
        FaultInjector(ros.engine, fault_plan).bind(ros).install().start()
    for index, path in enumerate(paths):
        ros.write(path, blob[index * size:(index + 1) * size])
    ros.flush()
    ros.drain_background()
    setup_events = ros.engine.events_issued
    log = []
    for index in order:
        result = ros.read(paths[index])
        log.append((int(index), result.source, result.total_seconds.hex()))
    return (setup_events, ros.engine.events_issued), log, ros


def test_observing_a_cold_read_run_costs_zero_events():
    bare_events, bare_log, _ = _cold_read_run()
    events, log, ros = _cold_read_run(tracing=True)
    assert events == bare_events
    assert log == bare_log
    # not vacuous: the PLC path ran under both observers
    assert sum(source == "roller" for _, source, _ in log) > 50
    assert ros.engine.trace.find("plc.rotate")
    assert ros.engine.trace.find("arm.grab")
    assert ros.engine.recorder.events("plc.instruction")


def test_an_injector_with_no_channel_fault_armed_costs_zero_events():
    bare_events, bare_log, _ = _cold_read_run()
    events, log, ros = _cold_read_run(fault_plan=FaultPlan())
    assert isinstance(ros.engine.faults, FaultInjector)
    assert (events, log) == (bare_events, bare_log)


def test_observing_a_serve_run_costs_zero_events(monkeypatch, tmp_path):
    import repro
    from repro.serve.loadgen import run_serve

    bare = run_serve(7, duration_s=4, prepopulate=3, include_events=True)
    racks = []

    def traced_rack(**kwargs):
        racks.append(repro.OLFS(**kwargs))
        Tracer(racks[-1].engine).install()
        return racks[-1]

    monkeypatch.setattr(repro, "ROS", traced_rack)
    flight = tmp_path / "flight.jsonl"
    observed = run_serve(
        7, duration_s=4, prepopulate=3, include_events=True,
        flight_out=str(flight),
    )
    assert observed["events_issued"] == bare["events_issued"]
    assert observed.pop("flight_dump") == str(flight)
    assert observed == bare
    assert racks[0].engine.trace.find("plc.rotate")
    assert '"kind":"plc.instruction"' in flight.read_text()


# ----------------------------------------------------------------------
# Observers attach to the engine once, for every rack on it
# ----------------------------------------------------------------------
def test_one_tracer_and_one_injector_serve_every_rack_of_an_engine():
    """A cluster's racks take no observer keywords; one tracer and one
    injector on the shared engine see both racks, and a one-spec plan
    fires once, not once per rack."""
    from repro.cluster import RackCluster
    from repro.faults import OLFS_CRASH
    from repro.faults.invariants import check_spans

    with pytest.raises(TypeError):
        small_rack(RackCluster, rack_count=2, replicas=0, tracing=True)
    cluster = small_rack(RackCluster, rack_count=2, replicas=0)
    tracer = Tracer(cluster.engine).install()
    plan = FaultPlan()
    plan.add(OLFS_CRASH, at=1.0, duration=5.0)
    injector = FaultInjector(cluster.engine, plan)
    injector.bind(cluster.racks[1]).install().start()
    homes = {}
    for index in range(32):
        path = f"/shared/f{index:02d}.bin"
        homes.setdefault(cluster.home_rack(path), path)
    assert sorted(homes) == [0, 1]
    for path in homes.values():
        cluster.write(path, b"x" * 4096)
    for rack in cluster.racks:
        rack.settle()
    written = {span.tags["path"] for span in tracer.find("posix.write")}
    assert written == set(homes.values())
    assert all(rack.engine.trace is tracer for rack in cluster.racks)
    assert check_spans(cluster)["ok"]
    assert [entry["kind"] for entry in injector.log] == [OLFS_CRASH]
