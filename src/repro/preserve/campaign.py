"""Decades-scale preservation campaigns and the loss-rate verdict.

``run_preserve(seed, ...)`` compresses a preservation decade-scale
timeline into one simulated run: a two-rack replicated cluster is
populated with a seeded archive, every disc then ages on an accelerated
clock (optionally with a chaos fault storm and an accelerated-aging
shock on top), while — when enabled — the background scrubber patrols
each rack, the anti-entropy auditor compares and repairs replicas
across racks, and old arrays are migrated onto fresh media.  The final
verdict evicts every cache and reads each archived file back from
media, counting what survived, and reduces the damage to the headline
preservation metric: **bytes lost per exabyte-decade**.

Everything derives from the one seed, so a campaign is a pure function
of its arguments and its JSON report is byte-reproducible; the CLI
(``python -m repro preserve``) runs each configuration twice and fails
on any byte difference.
"""

from __future__ import annotations

from repro.errors import ROSError
from repro.faults.campaign import CAMPAIGN_CONFIG, repair_rack
from repro.faults.invariants import (
    check_audit_convergence,
    check_engine_drained,
    check_metadata_consistency,
    check_spans,
)
from repro.faults.plan import FaultPlan
from repro.media.errors_model import SectorErrorModel
from repro.olfs.filesystem import small_rack
from repro.preserve.aging import AgingClock
from repro.preserve.audit import AntiEntropyAuditor
from repro.preserve.scrubber import BackgroundScrubber
from repro.report import (  # noqa: F401  (report_to_json re-exported)
    campaign_parser,
    failed_invariants,
    invariants_hold,
    report_to_json,
    run_and_compare,
    run_flags,
    run_kwargs,
)
from repro.sim.engine import Delay
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import Tracer

#: campaign clock: this many simulated seconds cover ``years``
CAMPAIGN_SECONDS = 600.0

#: aging ticker period (decay lands in steps, not one cliff)
TICK_PERIOD = 30.0

#: anti-entropy round period during the campaign window
AUDIT_PERIOD = 150.0

#: year-zero sector hazard of campaign media (elevated so that a
#: simulation-scale archive actually decays within ``years``; the
#: paper-rate reliability math lives in repro.reliability).  Tuned so an
#: unattended archive loses data within three decades while the damage
#: accumulating between patrol scrubs stays within one array's parity.
CAMPAIGN_SECTOR_ERROR_RATE = 1.8e-4

#: hazard growth per year of disc age (media degrade faster when old)
CAMPAIGN_GROWTH_PER_YEAR = 0.35

#: arrays whose oldest disc passes this age are migrated to fresh media
MIGRATE_AFTER_YEARS = 18.0


def _build_cluster(seed: int):
    """The campaign cluster: two chaos-sized racks, one replica."""
    from repro.cluster import RackCluster

    cluster = small_rack(
        RackCluster, config=CAMPAIGN_CONFIG, rack_count=2, replicas=1
    )
    return cluster, Tracer(cluster.engine, seed=seed).install()


def _populate(cluster, rng, files: int) -> dict:
    """Seeded archive: ``files`` files written through the namespace."""
    acked: dict[str, bytes] = {}
    for index in range(files):
        path = f"/archive/f{index:04d}.bin"
        size = 6000 + rng.integers(0, 18000)
        pattern = rng.bytes(16)
        data = (pattern * (size // len(pattern) + 1))[:size]
        try:
            cluster.write(path, data)
        except ROSError:
            continue
        acked[path] = data
    try:
        cluster.flush()
    except ROSError:
        pass
    for rack in cluster.racks:
        rack.settle()
    return acked


def _evict_everything(rack) -> None:
    """Drop every cached/buffered copy so the verdict reads real media."""
    for image_id in list(rack.cache.cached_ids):
        try:
            rack.cache.evict(image_id)
        except ROSError:
            # A cached image superseded mid-campaign (scrub migration
            # marked it lost); its MV entries point elsewhere already.
            pass
    rack.ftm.forget_file_cache()
    for image_id in sorted(rack.dim.records):
        record = rack.dim.records[image_id]
        if record.state == "burned" and record.image is not None:
            rack.dim.evict_content(image_id)


def _verdict(cluster, acked: dict, years: float) -> dict:
    """Read every archived file back from media; reduce to the metric.

    Plain per-holder reads — no scrub, no parity rescue, no repair: the
    verdict measures what the *campaign* preserved, not what a heroic
    recovery could still salvage afterwards.
    """
    stored_bytes = sum(len(data) for data in acked.values())
    copies = cluster.replicas + 1
    bytes_lost = 0
    files_lost = []
    copy_losses = 0
    copies_checked = 0
    for path in sorted(acked):
        expected = acked[path]
        survivors = 0
        for index in cluster._alive(cluster.placement(path)):
            copies_checked += 1
            try:
                data = cluster.racks[index].read(path).data
            except ROSError:
                copy_losses += 1
                continue
            if data != expected:
                copy_losses += 1
                continue
            survivors += 1
        if survivors == 0:
            bytes_lost += len(expected)
            files_lost.append(path)
    for rack in cluster.racks:
        rack.settle()
    decades = years / 10.0
    per_exabyte_decade = (
        0.0
        if stored_bytes == 0 or decades == 0
        else bytes_lost / stored_bytes * 1e18 / decades
    )
    return {
        "files": len(acked),
        "stored_bytes": stored_bytes,
        "copies": copies,
        "copies_checked": copies_checked,
        "copy_losses": copy_losses,
        "files_lost": files_lost,
        "bytes_lost": bytes_lost,
        "bytes_lost_per_exabyte_decade": round(per_exabyte_decade, 6),
    }


def run_preserve(
    seed: int,
    files: int = 12,
    years: float = 30.0,
    intensity: float = 1.0,
    scrub: bool = True,
    audit: bool = True,
    migrate: bool = True,
    faults: bool = True,
) -> dict:
    """One preservation campaign; returns the (JSON-safe) report dict."""
    rng = DeterministicRNG(seed).child("preserve")
    plan = None
    if faults:
        # Drawn over [0, CAMPAIGN_SECONDS] relative time, then shifted
        # onto the campaign window once populate has finished — the
        # storm tests preservation under load, not archive ingestion.
        plan = FaultPlan.randomized(
            rng.child("plan"),
            CAMPAIGN_SECONDS,
            intensity=intensity,
            preserve=True,
        )

    cluster, tracer = _build_cluster(seed)
    engine = cluster.engine

    models = [
        SectorErrorModel(
            rng.child(f"media-{index}"),
            sector_error_rate=CAMPAIGN_SECTOR_ERROR_RATE,
            growth_per_year=CAMPAIGN_GROWTH_PER_YEAR,
        )
        for index in range(len(cluster.racks))
    ]
    clocks = [
        AgingClock(rack, model, years_per_second=years / CAMPAIGN_SECONDS)
        for rack, model in zip(cluster.racks, models)
    ]

    acked = _populate(cluster, rng.child("workload"), files)
    paths = sorted(acked)

    # The campaign window starts once the archive is burned; the aging
    # clocks then cover exactly ``years`` over CAMPAIGN_SECONDS.
    t0 = engine.now
    horizon = t0 + CAMPAIGN_SECONDS

    injector = None
    if plan is not None:
        from repro.faults.injector import FaultInjector

        plan = plan.shifted(t0)
        injector = (
            FaultInjector(engine, plan, seed=seed)
            .bind(cluster.racks[0])
            .install()
        )
        for clock in clocks:
            injector.bind_aging(clock)
        injector.start()
    for clock in clocks:
        clock.tick()  # register every disc's birth at t0

    def ticker():
        while engine.now < horizon:
            yield Delay(min(TICK_PERIOD, horizon - engine.now))
            for clock in clocks:
                clock.tick()

    engine.spawn(ticker(), name="preserve-aging-ticker")

    scrubbers = []
    if scrub:
        for index, rack in enumerate(cluster.racks):
            scrubber = BackgroundScrubber(
                rack,
                clock=clocks[index],
                migrate_after_years=(
                    MIGRATE_AFTER_YEARS if migrate else None
                ),
            )
            scrubbers.append(scrubber)
            engine.spawn(
                scrubber.run(horizon), name=f"preserve-scrubber-{index}"
            )

    auditor = None
    if audit:
        auditor = AntiEntropyAuditor(cluster)
        engine.spawn(
            auditor.run(paths, horizon, AUDIT_PERIOD),
            name="preserve-auditor",
        )

    engine.run(until=horizon)
    # Apply the last slice of decay, then freeze the clocks: the
    # post-horizon tail must not age the media further, so every
    # configuration accumulates the exact same dose.
    for clock in clocks:
        clock.tick()
        clock.freeze()
    if injector is not None:
        injector.stop()
    # Let in-flight scrubs/audits finish and the fault tail drain.
    for rack in cluster.racks:
        rack.settle()
    # Post-storm administration — no scrubbing: that is the feature
    # under test, not part of the baseline repair.
    for rack in cluster.racks:
        repair_rack(rack, "preserve")

    # The campaign ends as it ran: one last patrol (parity-repairs the
    # final decay slice) and one last anti-entropy round (restores any
    # copy a whole rack lost), when those features are on.  The clocks
    # are frozen, so neither adds damage.
    if scrubbers:
        for index, scrubber in enumerate(scrubbers):
            engine.run_process(
                scrubber.scrub_pass(), f"preserve-final-scrub-{index}"
            )
        for rack in cluster.racks:
            rack.settle()
    final_audit = None
    if auditor is not None:
        final_audit = engine.run_process(
            auditor.audit_round(paths), "preserve-final-audit"
        )
        for rack in cluster.racks:
            rack.settle()

    invariants = [
        check_engine_drained(cluster.racks[0]),
        check_spans(cluster.racks[0]),
    ]
    for rack in cluster.racks:
        invariants.append(check_metadata_consistency(rack))
    if auditor is not None:
        invariants.append(check_audit_convergence(cluster, paths))

    for rack in cluster.racks:
        _evict_everything(rack)
    verdict = _verdict(cluster, acked, years)

    from repro.obs.slo import PRESERVE_SLOS, evaluate

    slo_violations = evaluate(PRESERVE_SLOS, tracer.spans)

    ok = all(inv["ok"] for inv in invariants)
    report = {
        "seed": seed,
        "files": files,
        "years": years,
        "intensity": intensity,
        "config": {
            "scrub": scrub,
            "audit": audit,
            "migrate": migrate,
            "faults": faults,
        },
        "horizon": round(horizon, 6),
        "campaign_start": round(t0, 6),
        "final_time": round(engine.now, 6),
        "plan": [spec.to_dict() for spec in plan] if plan else [],
        "fault_events": injector.log if injector is not None else [],
        "aging": [clock.health() for clock in clocks],
        "scrub": [scrubber.health() for scrubber in scrubbers],
        "audit": auditor.health() if auditor is not None else None,
        "final_audit": final_audit,
        "invariants": invariants,
        "slo_violations": slo_violations,
        "verdict": verdict,
        "ok": ok,
    }
    return report


def render_text(report: dict, runs: int = 1) -> str:
    """Human-readable campaign summary (``runs``: how many were compared)."""
    config = report["config"]
    verdict = report["verdict"]
    lines = [
        f"preserve campaign: seed={report['seed']} files={report['files']} "
        f"years={report['years']} intensity={report['intensity']} "
        f"(x{runs} runs)",
        f"  config: scrub={config['scrub']} audit={config['audit']} "
        f"migrate={config['migrate']} faults={config['faults']}",
        f"  plan: {len(report['plan'])} fault specs, "
        f"{len(report['fault_events'])} injector events, "
        f"sim clock {report['final_time'] / 60:.1f} min",
    ]
    for index, aging in enumerate(report["aging"]):
        lines.append(
            f"  rack {index} aging: {aging['discs_tracked']} discs to "
            f"{aging['max_age_years']:.1f} years "
            f"({aging['shocks']} shock(s), "
            f"{aging['newly_bad_total']} sectors decayed)"
        )
    for index, scrub in enumerate(report["scrub"]):
        lines.append(
            f"  rack {index} scrub: {scrub['passes']} passes, "
            f"{scrub['arrays_scrubbed']} arrays, "
            f"{scrub['errors_found']} errors found, "
            f"{scrub['images_repaired']} repaired, "
            f"{scrub['images_migrated']} migrated"
        )
    audit = report.get("audit")
    if audit is not None:
        lines.append(
            f"  audit: {audit['rounds']} rounds, "
            f"{audit['repairs']} cross-rack repairs, "
            f"{audit['unreadable']} unreadable copies seen"
        )
    for inv in report["invariants"]:
        mark = "ok" if inv["ok"] else "VIOLATED"
        lines.append(f"  invariant {inv['invariant']}: {mark}")
    lines.append(
        f"  verdict: {verdict['bytes_lost']} / "
        f"{verdict['stored_bytes']} bytes lost "
        f"({len(verdict['files_lost'])} files) -> "
        f"{verdict['bytes_lost_per_exabyte_decade']:.3g} "
        f"bytes lost per exabyte-decade"
    )
    return "\n".join(lines)


#: exit-1 lines: every failed invariant
failures = failed_invariants


def cmd_preserve(args) -> int:
    """Run a preservation campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time.  With
    ``--compare`` the same campaign also runs with scrub/audit/migration
    disabled, and the run fails unless the preservation machinery made
    the loss-rate metric strictly better (or kept a lossless archive
    lossless).
    """
    def audit(report: dict) -> list[str]:
        found = failures(report)
        if found or not args.compare:
            return found
        baseline = run_preserve(**run_kwargs(
            run_preserve, args, scrub=False, audit=False, migrate=False
        ))["verdict"]
        base_metric = baseline["bytes_lost_per_exabyte_decade"]
        metric = report["verdict"]["bytes_lost_per_exabyte_decade"]
        print(f"  unattended baseline: "
              f"{baseline['bytes_lost']} bytes lost -> "
              f"{base_metric:.3g} per exabyte-decade")
        if metric < base_metric or (metric == 0 and base_metric == 0):
            return []
        return ["NO PRESERVATION BENEFIT: metric not strictly below "
                "the unattended baseline"]

    return run_and_compare(
        args,
        lambda _flight_out: run_preserve(**run_kwargs(run_preserve, args)),
        lambda report: render_text(report, runs=max(1, args.runs)),
        audit,
        invariants_hold,
        indent="  ",
    )


def register(sub) -> None:
    preserve = campaign_parser(
        sub, "preserve", "decades-scale preservation campaign + verdict",
        cmd_preserve, seed=7, flight_help=None,
    )
    run_flags(preserve, run_preserve, {
        "files": "archive files written before the campaign",
        "years": "simulated media-years the campaign covers",
        "intensity": "fault-plan hazard multiplier",
        "scrub": "disable the background scrubber",
        "audit": "disable the cross-rack anti-entropy audit",
        "migrate": "disable age-triggered media migration",
        "faults": "aging only: no chaos fault storm",
    })
    preserve.add_argument("--compare", action="store_true",
                          help="also run with scrub/audit/migration off and "
                               "require a strictly better loss metric")
