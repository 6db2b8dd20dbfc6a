"""Monitored fleet campaigns: telemetry pipeline + closed-loop repair.

``run_fleet_monitor(seed, ...)`` is the observability experiment in one
call: a multi-site fleet serves pooled tenant traffic (the PR-7 fleet
rig, :class:`~repro.fleet.campaign.FleetRig`)
while every rack hosts a :class:`~repro.fleet.telemetry.TelemetryAgent`
replicating health samples over the site's 10GbE link — real bytes
competing with tenant traffic — into one central
:class:`~repro.tsdb.TimeSeriesStore`.  A
:class:`~repro.fleet.supervisor.FleetSupervisor` closes the loop:
declarative trigger rules over the central store detect the injected
``rack.loss`` (the dead rack's series go stale), drain the rack out of
placement and kick :meth:`~repro.fleet.recovery.RecoveryManager.
rebuild_all` migrations until the fleet is whole again.

The audit adds invariant I9 ("remediation converges": zero acked bytes
lost *and* zero shards still missing once the supervisor has run its
course) on top of the fleet campaign's I8/I5/drain checks.  With
``telemetry=False`` the campaign degrades to the classic loss-event
driven recovery loop — same faults, no agents, no supervisor — which
is what the perf guard compares against.

Everything derives from the one seed; the report is byte-reproducible
and the CLI (``python -m repro fleet-monitor``) runs the campaign twice
and fails on any diff.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.faults.invariants import check_remediation_converges
from repro.faults.plan import RACK_LOSS
from repro.fleet import campaign
from repro.fleet.store import FleetStore
from repro.fleet.supervisor import FleetSupervisor, TriggerRule
from repro.fleet.telemetry import (
    CentralTelemetry,
    TelemetryAgent,
    rack_probes,
    site_probes,
)
from repro.report import (
    invariants_hold,
    render_fleet_footer,
    report_to_json,
    run_and_compare,
    run_kwargs,
)
from repro.serve.session import STATUSES

__all__ = ["run_fleet_monitor", "report_to_json", "render_text"]

#: how long past the serving window the agents and supervisor keep
#: running — the remediation tail (stale detection + rebuild) needs it
GRACE_S = 8.0

#: staleness (seconds) after which a rack's telemetry is presumed dead;
#: > 2 flush intervals so a congested link never reads as a dead rack
STALE_AFTER_S = 3.0


def _default_rules() -> list[TriggerRule]:
    """The standard monitored-fleet rule set (see docs/fleet-telemetry.md)."""
    return [
        # A rack that stops reporting is presumed lost: drain it out of
        # placement and kick a rebuild of whatever it held.
        TriggerRule(
            name="rack-stale",
            series="fleet.rack.up",
            mode="stale",
            threshold=STALE_AFTER_S,
            clear=STALE_AFTER_S / 2,
            action="remediate_rack",
            clear_action="undrain_rack",
            cooldown_s=3.0,
            target_label="rack",
        ),
        # A rack that *is* reporting but throwing fetch errors gets
        # drained (reads deprioritize it, placements avoid it) until
        # the error rate subsides.
        TriggerRule(
            name="rack-error-rate",
            series="fleet.rack.fetch_errors",
            mode="rate",
            threshold=1.0,
            clear=0.25,
            window_s=5.0,
            action="drain_rack",
            clear_action="undrain_rack",
            cooldown_s=3.0,
            target_label="rack",
        ),
        # A site burning its SLO budget (failed tenant ops per second)
        # gets a rebuild kicked — failures at the frontend usually mean
        # shards are missing underneath.
        TriggerRule(
            name="site-slo-burn",
            series="fleet.site.ops_failed",
            mode="rate",
            threshold=0.5,
            clear=0.1,
            window_s=5.0,
            action="start_rebuild",
            cooldown_s=4.0,
            target_label="site",
        ),
    ]


def run_fleet_monitor(
    seed: int,
    sites: int = 3,
    racks_per_site: int = 4,
    k: int = 4,
    m: int = 2,
    clients: int = 24_000,
    duration_s: float = 10.0,
    objects: int = 12,
    arrival_rate: float = 40.0,
    rack_loss: bool = True,
    site_loss: bool = False,
    telemetry: bool = True,
    flight_out: Optional[str] = None,
) -> dict:
    """One monitored fleet campaign; returns the (JSON-safe) report.

    With the defaults: 24 000 pooled clients over 12 racks in 3 sites,
    one rack destroyed early, per-rack telemetry agents and the
    closed-loop supervisor detecting and repairing the loss while
    serving continues.  ``telemetry=False`` runs the identical fleet
    with the classic loss-event recovery loop instead — the baseline
    the perf guard measures agent overhead against.  Each agent samples
    every :data:`~repro.fleet.telemetry.SAMPLE_PERIOD_S` and flushes every
    :data:`~repro.fleet.telemetry.FLUSH_EVERY` samples; the rest of the
    fleet is :class:`~repro.fleet.campaign.FleetRig`'s.
    """
    rig = campaign.FleetRig(
        seed, "fleet-monitor", True,
        sites=sites, racks_per_site=racks_per_site, k=k, m=m,
        clients=clients, duration_s=duration_s, objects=objects,
        arrival_rate=arrival_rate, rack_loss=rack_loss, site_loss=site_loss,
    )
    engine, store, manager = rig.engine, rig.store, rig.manager
    links, metrics = rig.links, rig.metrics
    horizon_s = duration_s + GRACE_S

    # -- telemetry pipeline + closed-loop supervisor ---------------------
    central = CentralTelemetry()
    agents: list[TelemetryAgent] = []
    supervisor: Optional[FleetSupervisor] = None
    if telemetry:
        def start_agent(agent_id: str, site: str, **source) -> None:
            agents.append(
                TelemetryAgent(
                    engine,
                    agent_id=agent_id,
                    central=central,
                    link=links[site],
                    horizon_s=horizon_s,
                    **source,
                ).start()
            )

        for rack_id, rack in sorted(store.racks.items()):
            start_agent(
                rack_id,
                rack.site,
                probes=rack_probes(rack),
                labels={"rack": rack_id, "site": rack.site},
                source_up=lambda r=rack: r.up,
            )
        for site in rig.site_names:
            start_agent(
                f"frontend.{site}",
                site,
                probes=site_probes(site, links[site], metrics, STATUSES),
                labels={"site": site},
            )

        rebuild_state = {"active": False}

        def _kick_rebuild() -> bool:
            if rebuild_state["active"] or not store.lost_shards():
                return False
            rebuild_state["active"] = True

            def one_shot() -> Generator:
                try:
                    yield from manager.rebuild_all()
                finally:
                    rebuild_state["active"] = False

            engine.spawn(one_shot(), name="supervised-rebuild")
            return True

        def set_drained(target: str, drained: bool) -> bool:
            return target in store.racks and store.set_drained(target, drained)

        def drain_rack(target: str) -> dict:
            return {"drained": set_drained(target, True)}

        def undrain_rack(target: str) -> dict:
            return {"undrained": set_drained(target, False)}

        def remediate_rack(target: str) -> dict:
            detail = drain_rack(target)
            detail["rebuild_kicked"] = _kick_rebuild()
            return detail

        def start_rebuild(target: str) -> dict:
            return {"rebuild_kicked": _kick_rebuild()}

        supervisor = FleetSupervisor(
            engine,
            central.store,
            rules=_default_rules(),
            actions={
                "drain_rack": drain_rack,
                "undrain_rack": undrain_rack,
                "remediate_rack": remediate_rack,
                "start_rebuild": start_rebuild,
            },
            eval_period_s=0.75,
            horizon_s=horizon_s,
        ).start()
    else:
        # Classic loss-event driven recovery (the bare-fleet baseline).
        rig.start_recovery_loop()

    # Serve; the drain runs agents + supervisor out to the horizon, then
    # stops them (agents seal tail batches; replicators drain or abandon).
    rig.serve(
        "fleet-monitor-main",
        control_plane=[*agents, supervisor] if telemetry else (),
    )
    central.store.flush()  # finalize open rollup buckets for the report

    # -- audit + the control plane's report sections ---------------------
    i9 = [check_remediation_converges(store, supervisor)] if telemetry else []
    report = rig.report(flight_out, leading_invariants=i9)
    report.update({
        "events_issued": engine.events_issued,
        "telemetry": _telemetry_section(central, agents, telemetry),
        "rollup": _site_rollup(store, central, telemetry),
        "slo_burn": _slo_burn(report["tenants"]),
        "supervisor": (
            {"log": supervisor.log, **supervisor.health()}
            if supervisor is not None
            else None
        ),
        "remediations": len(supervisor.log) if supervisor is not None else 0,
        "flight_recorder": {
            "events": len(rig.recorder),
            "recorded": rig.recorder.recorded,
            "dropped": rig.recorder.dropped,
        },
    })
    return report


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------
def _telemetry_section(
    central: CentralTelemetry, agents: list[TelemetryAgent], enabled: bool
) -> dict:
    if not enabled:
        return {"enabled": False}
    return {
        "enabled": True,
        "central": central.health(),
        "store": central.store.snapshot_stats(),
        "agents": {
            agent.agent_id: agent.health() for agent in agents
        },
    }


def _site_rollup(
    store: FleetStore, central: CentralTelemetry, enabled: bool
) -> dict:
    """Per-site health rollup as the *central store* sees the fleet —
    ground truth (`store`) and telemetry can disagree, and the gap
    (racks down vs racks merely silent) is the interesting part."""
    rollup: dict[str, dict] = {}
    for rack_id, rack in sorted(store.racks.items()):
        entry = rollup.setdefault(
            rack.site,
            {"racks": 0, "up": 0, "drained": 0, "reporting": 0,
             "reported_up": 0},
        )
        entry["racks"] += 1
        entry["up"] += 1 if rack.up else 0
        entry["drained"] += 1 if rack.drained else 0
        if not enabled:
            continue
        newest = central.store.latest(
            "fleet.rack.up", {"rack": rack_id, "site": rack.site}
        )
        if newest is None:
            continue
        entry["reporting"] += 1
        entry["reported_up"] += 1 if newest[1] >= 1.0 else 0
    return rollup


def _slo_burn(tenants: dict) -> list[dict]:
    """Per-site SLO burn rate, worst first: bad ops over total ops."""
    burns = []
    for name, entry in tenants.items():
        total = entry["ops"]
        bad = total - entry["outcomes"].get("ok", 0)
        burns.append(
            {
                "site": name,
                "ops": total,
                "bad": bad,
                "burn": round(bad / total, 6) if total else 0.0,
            }
        )
    burns.sort(key=lambda entry: (-entry["burn"], entry["site"]))
    return burns


# ----------------------------------------------------------------------
def render_text(report: dict) -> str:
    """Human-readable monitored-campaign summary."""
    topo = report["topology"]
    layout = report["layout"]
    lines = [
        f"fleet-monitor report  seed={report['seed']}  "
        f"{topo['sites']}x{topo['racks_per_site']} racks  "
        f"layout {layout['k']}+{layout['m']}  "
        f"clients={report['clients']}",
        "",
        f"{'site':<10} {'racks':>5} {'up':>3} {'drained':>7} "
        f"{'reporting':>9} {'burn':>8}",
    ]
    lines.append("-" * len(lines[-1]))
    burn_by_site = {entry["site"]: entry for entry in report["slo_burn"]}
    for site, entry in sorted(report["rollup"].items()):
        burn = burn_by_site.get(site, {}).get("burn", 0.0)
        lines.append(
            f"{site:<10} {entry['racks']:>5} {entry['up']:>3} "
            f"{entry['drained']:>7} {entry['reporting']:>9} {burn:>8.4f}"
        )
    telemetry = report["telemetry"]
    if telemetry.get("enabled"):
        central = telemetry["central"]
        tsdb = telemetry["store"]
        lines.append("")
        lines.append(
            f"telemetry: {central['points_ingested']} points in "
            f"{central['batches_ingested']} batches from "
            f"{central['agents_seen']} agents; store holds "
            f"{tsdb['live_points']} points / {tsdb['series']} series "
            f"({tsdb['shards_evicted']} shards evicted)"
        )
    supervisor = report["supervisor"]
    if supervisor is not None:
        lines.append("")
        lines.append(
            f"remediation: {len(supervisor['log'])} actions "
            f"({supervisor['fired']} fired, {supervisor['refired']} "
            f"refired, {supervisor['cleared']} cleared)"
        )
        for entry in supervisor["log"][:8]:
            lines.append(
                f"  t={entry['t']:<9} {entry['rule']:<16} "
                f"{entry['action']:<16} -> {entry['target']}"
            )
        if len(supervisor["log"]) > 8:
            lines.append(f"  ... {len(supervisor['log']) - 8} more")
    lines.extend(render_fleet_footer(report))
    return "\n".join(lines)


def failures(report: dict) -> list[str]:
    """Exit-1 lines: the fleet campaign's, then — telemetry on, a
    ``rack.loss`` planned — an empty remediation log (a campaign where
    the closed loop never closed proves nothing)."""
    found = campaign.failures(report)
    if not found and report["telemetry"]["enabled"] \
            and any(spec["kind"] == RACK_LOSS for spec in report["plan"]) \
            and not report["remediations"]:
        found.append("NO REMEDIATION: rack loss was injected but "
                     "the supervisor never fired an action")
    return found


def cmd_fleet_monitor(args) -> int:
    """Run a monitored fleet campaign (twice, by default) and audit it.

    Telemetry agents replicate rack health into the central store, the
    closed-loop supervisor remediates what the rules detect, and the
    audit demands I9 ("remediation converges").  Non-zero exit on any
    divergence between runs or on :func:`failures`.
    """
    return run_and_compare(
        args,
        lambda flight_out: run_fleet_monitor(
            **run_kwargs(run_fleet_monitor, args, flight_out=flight_out)
        ),
        render_text,
        failures,
        lambda report: invariants_hold(
            report, f", {report['remediations']} remediation action(s), "
                    f"0 bytes lost"
        ),
    )
