"""Tests for the multi-tenant serving subsystem (repro.serve)."""

import pytest

from repro import units
from repro.errors import (
    AdmissionRejectedError,
    LinkDownError,
    SessionDisconnectedError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CLIENT_DISCONNECT, NET_LINK_FLAP, FaultPlan
from repro.olfs.config import OLFSConfig
from repro.serve import (
    AdmissionController,
    ClientSession,
    FleetSpec,
    NetworkLink,
    ServeOp,
    TenantSpec,
    TokenBucket,
    default_fleets,
    report_to_json,
    run_serve,
)
from repro.serve.session import LATENCY_BOUNDS
from repro.sim.engine import Delay, Engine
from repro.sim.tracing import MetricsRegistry


# ----------------------------------------------------------------------
# Network link
# ----------------------------------------------------------------------
def test_link_single_stream_tops_out_at_stack_rate():
    """One stream pays wire time + the stack's surplus per byte."""
    engine = Engine()
    link = NetworkLink(engine)
    nbytes = 10 * units.MB

    def proc():
        yield from link.request(nbytes)
        return engine.now

    elapsed = engine.run_process(proc())
    # Total per-byte time must equal the Figure-6 sustained write rate
    # of the samba+OLFS stack (0.320 GB/s), not the raw 1.25 GB/s wire.
    expected = (
        link.rtt_seconds / 2
        + link.per_op_seconds
        + nbytes / link.stack.write_throughput()
    )
    assert elapsed == pytest.approx(expected, rel=1e-6)
    assert link.requests == 1


def test_link_full_duplex_directions_do_not_contend():
    engine = Engine()
    link = NetworkLink(engine)
    nbytes = 5 * units.MB
    ends = {}

    def up():
        yield from link.request(nbytes)
        ends["up"] = engine.now

    def down():
        yield from link.respond(nbytes)
        ends["down"] = engine.now

    def main():
        first = engine.spawn(up())
        second = engine.spawn(down())
        yield from _join_all(engine, [first, second])

    engine.run_process(main())
    # Each direction finishes in exactly its solo time: a shared
    # half-duplex pipe would stretch both transfers.
    solo_up = (
        link.rtt_seconds / 2 + link.per_op_seconds
        + nbytes / link.stack.write_throughput()
    )
    solo_down = (
        nbytes / link.capacity + link.read_extra_spb * nbytes
        + link.rtt_seconds / 2
    )
    assert ends["up"] == pytest.approx(solo_up, rel=1e-6)
    assert ends["down"] == pytest.approx(solo_down, rel=1e-6)


def _join_all(engine, processes):
    from repro.sim.engine import AllOf

    yield AllOf(processes)


def test_link_flap_window_drops_requests():
    engine = Engine()
    plan = FaultPlan()
    plan.add(NET_LINK_FLAP, at=1.0, duration=2.0)
    injector = FaultInjector(engine, plan, seed=1).install()
    injector.start()
    link = NetworkLink(engine)
    results = []

    def proc():
        # Before the window: fine.
        yield from link.request(1000)
        results.append("before")
        yield Delay(1.5)  # now inside [1.0, 3.0)
        try:
            yield from link.request(1000)
            results.append("inside-ok")
        except LinkDownError:
            results.append("inside-down")
        yield Delay(2.0)  # now past the window
        yield from link.respond(1000)
        results.append("after")

    engine.run_process(proc())
    assert results == ["before", "inside-down", "after"]
    assert link.drops == 1


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
def test_token_bucket_refills_on_sim_clock():
    engine = Engine()
    bucket = TokenBucket(engine, rate=10.0, burst=5.0)
    assert bucket.try_take(3.0)
    assert not bucket.try_take(3.0)  # only 2 tokens left
    assert bucket.seconds_until(3.0) == pytest.approx(0.1)

    def wait():
        yield Delay(0.1)

    engine.run_process(wait())
    assert bucket.try_take(3.0)


def test_token_bucket_oversized_request_uses_debt():
    """Requests above the bucket depth wait for a full bucket, then
    drive it negative — they are spaced, not deadlocked."""
    engine = Engine()
    bucket = TokenBucket(engine, rate=10.0, burst=5.0)
    assert bucket.try_take(20.0)  # full bucket covers min(20, burst)
    assert bucket.tokens == pytest.approx(-15.0)
    # The debt spaces the next grant at the contracted rate.
    assert bucket.seconds_until(5.0) == pytest.approx(2.0)
    assert bucket.granted == pytest.approx(20.0)


def test_token_bucket_rejects_bad_parameters():
    engine = Engine()
    with pytest.raises(ValueError):
        TokenBucket(engine, rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(engine, rate=1.0, burst=0.0)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def _client(engine, admission, tenant, order, service_s=0.05, nbytes=1000.0):
    def proc():
        grant = yield from admission.admit(tenant, nbytes)
        order.append(tenant)
        yield Delay(service_s)
        grant.release()

    return proc()


def test_admission_sfq_weights_shape_dispatch_order():
    """Weight 4 vs weight 1 -> about 4 of every 5 early grants."""
    engine = Engine()
    admission = AdmissionController(
        engine,
        [TenantSpec("gold", weight=4.0), TenantSpec("bulk", weight=1.0)],
        max_inflight=1,
    )
    order = []
    for _ in range(5):
        engine.spawn(_client(engine, admission, "gold", order))
    for _ in range(5):
        engine.spawn(_client(engine, admission, "bulk", order))
    engine.run()
    admission.close()
    engine.run()
    assert len(order) == 10
    # SFQ finish tags: gold advances 1/4 per op, bulk 1 per op, so the
    # first four grants all go to gold before bulk's first finish tag.
    assert order[:4] == ["gold", "gold", "gold", "gold"]
    ok, detail = admission.audit()
    assert ok, detail


def test_admission_queue_full_rejects_immediately():
    engine = Engine()
    admission = AdmissionController(
        engine,
        [TenantSpec("t", max_queue=1)],
        max_inflight=1,
    )
    statuses = []

    def holder():
        grant = yield from admission.admit("t", 10.0)
        yield Delay(1.0)
        grant.release()

    def waiter():
        grant = yield from admission.admit("t", 10.0)
        statuses.append("admitted")
        grant.release()

    def overflow():
        try:
            yield from admission.admit("t", 10.0)
        except AdmissionRejectedError:
            statuses.append("rejected")

    def main():
        first = engine.spawn(holder())
        yield Delay(0.01)  # holder admitted, slot busy
        second = engine.spawn(waiter())  # fills the queue (depth 1)
        yield Delay(0.01)
        third = engine.spawn(overflow())  # bounces off the full queue
        yield from _join_all(engine, [first, second, third])

    engine.run_process(main())
    admission.close()
    engine.run()
    assert statuses == ["rejected", "admitted"]
    assert admission.stats["t"]["rejected"] == 1


def test_admission_deadline_times_out_queued_request():
    from repro.errors import AdmissionTimeoutError

    engine = Engine()
    admission = AdmissionController(
        engine,
        [TenantSpec("t", deadline_s=0.5)],
        max_inflight=1,
    )
    outcome = []

    def holder():
        grant = yield from admission.admit("t", 10.0)
        yield Delay(2.0)  # outlives the waiter's deadline
        grant.release()

    def waiter():
        try:
            yield from admission.admit("t", 10.0)
            outcome.append("admitted")
        except AdmissionTimeoutError:
            outcome.append(("timeout", engine.now))

    def main():
        first = engine.spawn(holder())
        yield Delay(0.01)
        second = engine.spawn(waiter())
        yield from _join_all(engine, [first, second])

    engine.run_process(main())
    admission.close()
    engine.run()
    status, at = outcome[0]
    assert status == "timeout"
    assert at == pytest.approx(0.51, abs=1e-6)
    assert admission.stats["t"]["timed_out"] == 1
    ok, detail = admission.audit()
    assert ok, detail


def test_admission_rate_limit_spaces_grants():
    engine = Engine()
    admission = AdmissionController(
        engine,
        [TenantSpec("t", rate_ops=10.0, burst_ops=1.0)],
        max_inflight=8,
    )
    grant_times = []

    def client():
        grant = yield from admission.admit("t", 10.0)
        grant_times.append(engine.now)
        grant.release()

    for _ in range(4):
        engine.spawn(client())
    engine.run()
    admission.close()
    engine.run()
    assert len(grant_times) == 4
    gaps = [b - a for a, b in zip(grant_times, grant_times[1:])]
    for gap in gaps:
        assert gap == pytest.approx(0.1, abs=1e-3)


def test_admission_close_rejects_queued_and_drains():
    engine = Engine()
    admission = AdmissionController(
        engine, [TenantSpec("t")], max_inflight=1
    )
    statuses = []

    def holder():
        grant = yield from admission.admit("t", 10.0)
        yield Delay(5.0)
        grant.release()

    def waiter():
        try:
            yield from admission.admit("t", 10.0)
            statuses.append("admitted")
        except AdmissionRejectedError:
            statuses.append("rejected")

    engine.spawn(holder())

    def late():
        yield Delay(0.01)
        engine.spawn(waiter())
        yield Delay(0.01)
        admission.close()

    engine.spawn(late())
    engine.run()
    assert statuses == ["rejected"]
    # Dispatcher exited after close: the engine is fully drained once
    # the holder finished (invariant I2 compatibility).
    assert engine.is_idle


# ----------------------------------------------------------------------
# Sessions against a real rack
# ----------------------------------------------------------------------
def _session_over(engine, backend):
    link = NetworkLink(engine)
    admission = AdmissionController(
        engine, [TenantSpec("t")], max_inflight=4
    )
    metrics = MetricsRegistry()
    session = ClientSession(
        engine, "t-0", "t", link, admission, backend, metrics
    )
    return link, admission, metrics, session


def _serving_rack(factory=None, **kwargs):
    """One small rack — or, with ``factory=RackCluster``, a cluster of them."""
    from repro import ROS

    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests()
    return (factory or ROS)(
        config=config,
        roller_count=1,
        buffer_volume_capacity=1 * units.GB,
        **kwargs,
    )


def _serving_rig(plan=None):
    ros = _serving_rack()
    if plan is not None:
        FaultInjector(ros.engine, plan, seed=3).bind(ros).install().start()
    return (ros, *_session_over(ros.engine, ros.pi))


def _rack_backend():
    ros = _serving_rack()
    return ros.engine, ros.pi


def _cluster_backend():
    from repro.cluster import RackCluster

    cluster = _serving_rack(RackCluster, rack_count=2, replicas=1)
    return cluster.engine, cluster.pi


def _fleet_backend():
    from repro.fleet import FleetBackend, FleetStore, FleetTopology, Layout

    store = FleetStore(
        Engine(),
        topology=FleetTopology(sites=3, racks_per_site=2),
        layout=Layout(k=2, m=2),
    )
    return store.engine, FleetBackend(store, "site-0")


@pytest.mark.parametrize(
    "make_backend",
    [_rack_backend, _cluster_backend, _fleet_backend],
    ids=["rack", "cluster", "fleet"],
)
def test_session_write_read_stat_ok(make_backend):
    """The rack contract — ``write_file`` / ``read_file`` / ``stat`` — on
    each thing that implements it: a backend that drops or renames one
    fails here by name."""
    engine, backend = make_backend()
    link, admission, metrics, session = _session_over(engine, backend)
    payload = b"serve-me" * 100

    def proc():
        out1 = yield from session.perform(
            ServeOp("write", "/s/a.bin", float(len(payload)), data=payload,
                    logical_size=len(payload))
        )
        out2 = yield from session.perform(
            ServeOp("read", "/s/a.bin", float(len(payload)))
        )
        out3 = yield from session.perform(ServeOp("stat", "/s/a.bin", 0.0))
        return [out1, out2, out3]

    outcomes = engine.run_process(proc(), "serve-test")
    admission.close()
    engine.run()
    assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
    assert all(o.latency_s > 0 for o in outcomes)
    assert session.outcomes["ok"] == 3
    histogram = metrics.histogram("serve.latency_s.t", LATENCY_BOUNDS)
    assert histogram.count == 3


def test_session_backend_error_is_a_failed_outcome():
    ros, link, admission, metrics, session = _serving_rig()

    def proc():
        outcome = yield from session.perform(
            ServeOp("read", "/missing.bin", 100.0)
        )
        return outcome

    outcome = ros.run(proc(), "serve-test")
    admission.close()
    ros.settle()
    assert outcome.status == "failed"
    # The grant was still released: nothing admitted was lost.
    ok, detail = admission.audit()
    assert ok, detail


def test_session_disconnect_fault_kills_the_session():
    plan = FaultPlan()
    plan.add(CLIENT_DISCONNECT, at=0.0)
    ros, link, admission, metrics, session = _serving_rig(plan=plan)

    def proc():
        yield Delay(0.1)  # let the one-shot arm
        try:
            yield from session.perform(ServeOp("stat", "/x", 0.0))
            return "survived"
        except SessionDisconnectedError:
            return "disconnected"

    result = ros.run(proc(), "serve-test")
    admission.close()
    ros.settle()
    assert result == "disconnected"
    assert session.disconnected
    assert session.outcomes["disconnected"] == 1


# ----------------------------------------------------------------------
# run_serve end to end
# ----------------------------------------------------------------------
def _tiny_fleets():
    return [
        FleetSpec(
            tenant=TenantSpec("alpha", weight=2.0),
            clients=2,
            mode="closed",
            think_s=0.2,
            read_fraction=0.5,
            profile="iot",
            max_file_bytes=64 * 1024,
        ),
        FleetSpec(
            tenant=TenantSpec(
                "beta", rate_ops=20.0, rate_bytes=4 * units.MB,
                deadline_s=3.0,
            ),
            clients=1,
            mode="open",
            arrival_rate=4.0,
            read_fraction=0.5,
            profile="iot",
            max_file_bytes=64 * 1024,
        ),
    ]


def test_run_serve_report_is_byte_deterministic():
    reports = [
        report_to_json(
            run_serve(5, fleets=_tiny_fleets(), duration_s=6.0,
                      prepopulate=4)
        )
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


def test_run_serve_totals_and_audit():
    report = run_serve(9, fleets=_tiny_fleets(), duration_s=6.0,
                       prepopulate=4)
    assert report["totals"]["ops"] > 0
    assert report["admission_audit"]["ok"], report["admission_audit"]
    assert set(report["tenants"]) == {"alpha", "beta"}
    for entry in report["tenants"].values():
        assert set(entry["outcomes"]) == {
            "ok", "rejected", "timeout", "failed", "disconnected",
            "link_down",
        }
    assert report["link"]["requests"] > 0


def test_run_serve_qos_demo_bounds_gold_p99_under_bulk_saturation():
    """The acceptance demo: an unthrottled bulk tenant saturates the
    rack while the rate-limited gold tenant's p99 stays inside its SLO."""
    report = run_serve(42, fleets=default_fleets(), duration_s=15.0,
                       prepopulate=9)
    gold = report["tenants"]["gold"]
    bulk = report["tenants"]["bulk"]
    assert gold["slo_met"] is True
    assert gold["p99_s"] <= gold["slo_p99_s"]
    # Bulk moved at least an order of magnitude more bytes than gold.
    assert bulk["throughput_mbps"] > 10 * gold["throughput_mbps"]
    assert report["admission_audit"]["ok"]


def test_run_serve_cluster_backend():
    report = run_serve(7, fleets=_tiny_fleets(), duration_s=5.0,
                       prepopulate=4, backend="cluster")
    assert report["backend"] == "cluster"
    assert report["totals"]["ops"] > 0
    assert report["admission_audit"]["ok"]


def test_run_serve_under_faults_stays_audited():
    report = run_serve(11, fleets=_tiny_fleets(), duration_s=8.0,
                       prepopulate=4, faults=True)
    assert report["faults"] is True
    assert report["fault_events"] >= 1
    assert report["admission_audit"]["ok"], report["admission_audit"]


def test_run_serve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_serve(1, backend="tape")
    with pytest.raises(ValueError):
        run_serve(1, fleets=[])
    with pytest.raises(ValueError):
        FleetSpec(tenant=TenantSpec("x"), mode="sideways")


def test_run_serve_scrub_tenant_keeps_gold_p99_green():
    """Preservation acceptance: the background scrubber at full budget,
    admitted through serve QoS, must not push the gold tenant out of its
    p99 SLO — and the scrubber must actually be admitted."""
    report = run_serve(42, fleets=default_fleets(), duration_s=15.0,
                       prepopulate=9, scrub=True)
    gold = report["tenants"]["gold"]
    assert gold["slo_met"] is True
    assert gold["p99_s"] <= gold["slo_p99_s"]
    scrub = report["scrub"]
    # The scrubber made progress through the shared controller — either
    # it was admitted and scrubbed, or QoS (correctly) deferred it.
    assert scrub["arrays_scrubbed"] + scrub["deferred"] > 0
    assert scrub["bytes_scrubbed"] > 0 or scrub["deferred"] > 0
    assert report["admission_audit"]["ok"]


def test_run_serve_scrub_report_is_byte_deterministic():
    reports = [
        report_to_json(
            run_serve(5, fleets=_tiny_fleets(), duration_s=6.0,
                      prepopulate=4, scrub=True)
        )
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


def test_run_serve_scrub_off_report_unchanged():
    """Adding the scrub feature must not perturb scrub-off runs: the
    tenant list and RNG draws only change when scrub=True."""
    baseline = report_to_json(
        run_serve(5, fleets=_tiny_fleets(), duration_s=6.0, prepopulate=4)
    )
    again = report_to_json(
        run_serve(5, fleets=_tiny_fleets(), duration_s=6.0, prepopulate=4,
                  scrub=False)
    )
    assert baseline == again
    assert "scrub" not in __import__("json").loads(baseline)


# ----------------------------------------------------------------------
# Open-loop arrival pooling (the fleet-scale loadgen path)
# ----------------------------------------------------------------------
def _open_fleet(clients, pooling, arrival_rate=24.0):
    return [
        FleetSpec(
            tenant=TenantSpec("iot", weight=1.0),
            clients=clients,
            mode="open",
            arrival_rate=arrival_rate,
            read_fraction=0.6,
            profile="iot",
            max_file_bytes=64 * 1024,
            pooling=pooling,
        )
    ]


def _bucket_index(value):
    """Index of ``value`` on the latency-histogram grid."""
    for index, bound in enumerate(LATENCY_BOUNDS):
        if value <= bound:
            return index
    return len(LATENCY_BOUNDS)


def test_pooling_rejects_retired_and_unknown_modes():
    assert FleetSpec(tenant=TenantSpec("iot")).pooling == "sessions"
    for retired_or_unknown in ("auto", "legacy", "merged"):
        with pytest.raises(ValueError):
            _open_fleet(2, retired_or_unknown)


def test_pool_aggregate_mode_is_statistically_equivalent():
    """One superposed Poisson stream at the fleet rate must look like
    the per-client fleet: every op lands in a terminal bucket, totals
    agree to sampling noise, and the latency percentiles sit within one
    histogram bucket of the per-client path on the same seed."""
    kwargs = dict(duration_s=8.0, prepopulate=4)
    per_client = run_serve(17, fleets=_open_fleet(96, "sessions"), **kwargs)
    pooled = run_serve(17, fleets=_open_fleet(96, "aggregate"), **kwargs)
    for report in (per_client, pooled):
        assert report["admission_audit"]["ok"], report["admission_audit"]
        entry = report["tenants"]["iot"]
        assert entry["ops"] == sum(entry["outcomes"].values())
    lt, pt = per_client["tenants"]["iot"], pooled["tenants"]["iot"]
    assert lt["ops"] > 50
    assert abs(pt["ops"] - lt["ops"]) / lt["ops"] < 0.25
    for quantile in ("p50_s", "p95_s", "p99_s"):
        assert abs(
            _bucket_index(pt[quantile]) - _bucket_index(lt[quantile])
        ) <= 1, (quantile, lt[quantile], pt[quantile])


def test_pool_aggregate_report_is_byte_deterministic():
    kwargs = dict(duration_s=6.0, prepopulate=4)
    reports = [
        report_to_json(
            run_serve(19, fleets=_open_fleet(128, "aggregate"), **kwargs)
        )
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# Failover under live faults never double-counts admitted work
# ----------------------------------------------------------------------
def test_failover_read_is_one_admitted_request():
    """Hard-fail every drive under the home rack mid-run: the cluster
    backend fails the read over to the replica *inside* one admitted
    grant, so the admission audit sees exactly one ticket per op — a
    failover must never re-enter the controller."""
    from repro.cluster import RackCluster
    from repro.faults import DRIVE_HARD

    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    cluster = RackCluster(
        rack_count=2, replicas=1, config=config,
        roller_count=1, buffer_volume_capacity=200 * units.MB,
    )
    payload = b"fault-tolerant" * 500
    cluster.write("/ha/asset.bin", payload)
    cluster.flush()
    home = cluster.home_rack("/ha/asset.bin")
    injector = (
        FaultInjector(cluster.engine, FaultPlan(), seed=1)
        .bind(cluster.racks[home])
        .install()
    )
    image_id = cluster.racks[home].stat("/ha/asset.bin")["locations"][0]
    cluster.racks[home].cache.evict(image_id)
    for drive_set in cluster.racks[home].mech.drive_sets:
        for drive in drive_set.drives:
            injector.inject(
                DRIVE_HARD, target=drive.drive_id, duration=3600.0
            )
    link, admission, metrics, session = _session_over(
        cluster.engine, cluster.pi
    )

    def proc():
        outcome = yield from session.perform(
            ServeOp("read", "/ha/asset.bin", float(len(payload)))
        )
        return outcome

    outcome = cluster.engine.run_process(proc(), "failover-read")
    injector.stop()
    admission.close()
    cluster.engine.run()
    assert outcome.status == "ok"
    stats = admission.stats["t"]
    assert int(stats["submitted"]) == 1
    assert int(stats["admitted"]) == 1
    assert int(stats["released"]) == 1
    ok, detail = admission.audit()
    assert ok, detail
    assert session.outcomes["ok"] == 1
    histogram = metrics.histogram("serve.latency_s.t", LATENCY_BOUNDS)
    assert histogram.count == 1  # one op observed once, despite failover
