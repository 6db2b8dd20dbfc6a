"""Fleet campaigns: geo-distributed serving under rack/site loss.

``run_fleet(seed, ...)`` is the fleet-scale experiment in one call:
build a multi-site :class:`~repro.fleet.store.FleetStore` (tens of
racks), pre-populate it with erasure-coded disc images, attach one
10GbE link + one admission tenant per site, and drive 10⁵–10⁶ pooled
open-loop clients (:class:`~repro.serve.loadgen.ClientPool` aggregate
mode) through :class:`~repro.fleet.frontend.FleetBackend` adapters
while the fault injector destroys a rack and then an entire site.
The :class:`~repro.fleet.recovery.RecoveryManager` rebuilds lost
shards onto survivors concurrently with client traffic.

The audit asserts invariant I8 ("no durable image unrecoverable while
surviving shards ≥ k"), admission conservation (I5) and engine drain
(I2's fleet analogue), and the verdict demands **zero bytes lost** —
a destroyed site may cost at most ``m`` shards of any object, so every
acked image must decode back byte-identically.

Everything derives from the one seed; a campaign is a pure function of
its arguments and its JSON report is byte-reproducible — the CLI
(``python -m repro fleet``) runs it twice and fails on any diff.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    _result,
    check_fleet_recoverable,
    check_no_admitted_request_lost,
)
from repro.faults.plan import FaultPlan, RACK_LOSS, SITE_LOSS
from repro.fleet.frontend import FleetBackend
from repro.fleet.placement import balance
from repro.fleet.recovery import RecoveryManager
from repro.fleet.store import FleetStore
from repro.fleet.topology import FleetTopology, Layout
from repro.obs.recorder import FlightRecorder
from repro.report import (  # noqa: F401  (report_to_json re-exported)
    campaign_parser,
    failed_invariants,
    invariants_hold,
    render_fleet_footer,
    report_to_json,
    run_and_compare,
    run_flags,
    run_kwargs,
    tenant_outcomes,
)
from repro.serve.loadgen import PAYLOAD_CAP, ClientPool, FleetSpec
from repro.serve.network import NetworkLink
from repro.serve.session import ClientSession
from repro.serve.tenancy import AdmissionController, TenantSpec
from repro.sim.engine import AllOf, Engine
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import MetricsRegistry
from repro.workloads.generator import SIZE_PROFILES

#: help of the flags ``fleet`` and ``fleet-monitor`` share; each command
#: reads the defaults from its own ``run_*``
_GEOMETRY_FLAGS = {
    "sites": "failure-domain sites",
    "racks_per_site": "optical racks per site",
    "clients": "pooled open-loop clients across the fleet",
    "duration_s": "serving horizon, simulated seconds",
    "objects": "erasure-coded images pre-populated",
    "arrival_rate": "per-site arrival rate, ops/second",
    "rack_loss": "skip the early rack-destruction fault",
}

#: what every fleet campaign's pooled clients offer: ``iot``-profile
#: files capped at 256 KiB, 80 % of ops reads, through an admission
#: controller that holds at most 32 requests in flight
PROFILE = "iot"
MAX_FILE_BYTES = 256 * 1024
READ_FRACTION = 0.8
MAX_INFLIGHT = 32
#: loss event to rebuild start, seconds
DETECTION_DELAY_S = 0.5


class FleetRig:
    """One fleet under load and faults — what every fleet campaign runs.

    Construction builds the data plane up to the instant serving starts:
    store, ``objects`` pre-populated erasure-coded images, one 10GbE
    link + admission tenant + aggregate-pooled open-loop fleet per site,
    the rack/site-loss plan with its (started) injector, and an idle
    :class:`RecoveryManager`.  The caller attaches a control plane
    (:meth:`start_recovery_loop`, or agents and a supervisor of its
    own), calls :meth:`serve`, and reduces the run with :meth:`report`.

    What makes one campaign's bytes differ from another's is passed in,
    never branched on here: ``label`` names the RNG child stream and
    ``record`` says whether a flight recorder journals the run.  What
    every fleet campaign shares is a module constant: the client mix
    (:data:`PROFILE`, :data:`MAX_FILE_BYTES`, :data:`READ_FRACTION`),
    the admission cap (:data:`MAX_INFLIGHT`) and the recovery
    manager's :data:`DETECTION_DELAY_S`.
    """

    def __init__(
        self,
        seed: int,
        label: str,
        record: bool,
        *,
        sites: int,
        racks_per_site: int,
        k: int,
        m: int,
        clients: int,
        duration_s: float,
        objects: int,
        arrival_rate: float,
        rack_loss: bool,
        site_loss: bool,
    ):
        self.seed = seed
        self.clients = clients
        self.duration_s = duration_s
        self.engine = engine = Engine()
        self.recorder = FlightRecorder(engine).install() if record else None
        self.store = FleetStore(
            engine,
            FleetTopology(sites=sites, racks_per_site=racks_per_site),
            Layout(k=k, m=m),
        )
        self.rng = rng = DeterministicRNG(seed).child(label)

        self.catalog = self._prepopulate(rng.child("populate"), objects)

        # -- serving plumbing: one link + one tenant per site -----------
        self.site_names = self.store.topology.site_names()
        self.links = {site: NetworkLink(engine) for site in self.site_names}
        self.admission = AdmissionController(
            engine,
            [TenantSpec(site, weight=1.0) for site in self.site_names],
            max_inflight=MAX_INFLIGHT,
        )
        self.metrics = MetricsRegistry()

        # clients split evenly across sites, remainder to site 0
        per_site, remainder = divmod(clients, sites)
        self.fleets = [
            FleetSpec(
                tenant=TenantSpec(site, weight=1.0),
                clients=max(1, per_site + (remainder if index == 0 else 0)),
                mode="open",
                arrival_rate=arrival_rate,
                read_fraction=READ_FRACTION,
                profile=PROFILE,
                max_file_bytes=MAX_FILE_BYTES,
                pooling="aggregate",
            )
            for index, site in enumerate(self.site_names)
        ]

        # -- fault schedule: a rack early, a whole site mid-run ---------
        self.serve_start = engine.now
        self.t_end = self.serve_start + duration_s
        frng = rng.child("faults")
        self.plan = FaultPlan()
        if rack_loss:
            self.plan.add(
                RACK_LOSS,
                at=self.serve_start + duration_s * frng.uniform(0.15, 0.3),
            )
        if site_loss:
            self.plan.add(
                SITE_LOSS,
                at=self.serve_start + duration_s * frng.uniform(0.5, 0.65),
            )
        self.injector = (
            FaultInjector(engine, self.plan, seed=seed)
            .bind_fleet(self.store)
            .install()
            .start()
        )

        self.manager = RecoveryManager(
            self.store, detection_delay_s=DETECTION_DELAY_S
        )
        self.sessions: list[ClientSession] = []

    def _prepopulate(
        self, rng: DeterministicRNG, objects: int
    ) -> list[tuple[str, int]]:
        """Seed the fleet with ``objects`` erasure-coded images; returns
        the shared read catalog ``[(path, declared_size)]`` the pools
        draw from."""
        mean, sigma = SIZE_PROFILES[PROFILE]
        catalog: list[tuple[str, int]] = []

        def populate() -> Generator:
            for index in range(objects):
                size = max(1, int(min(rng.lognormal(mean, sigma),
                                      MAX_FILE_BYTES)))
                # wire sizes use the declared logical size; the bytes
                # held in simulation are capped, as in the serve layer
                payload = rng.bytes(min(size, PAYLOAD_CAP))
                path = f"/fleet/prepop/f{index:05d}.img"
                yield from self.store.put(path, payload, size)
                catalog.append((path, size))

        self.engine.run_process(populate(), "fleet-prepopulate")
        return catalog

    def start_recovery_loop(self) -> None:
        """The classic control plane: rebuild on every loss event."""
        self.engine.spawn(self.manager.run(), name="fleet-recovery")

    def serve(self, main_name: str, control_plane: Iterable = ()) -> None:
        """Run every site's client pool to the horizon, then drain.

        The injector and the admission queue close, the engine runs out
        whatever is still scheduled (in-flight rebuilds; the
        ``control_plane`` out to its own horizon), each control-plane
        part is ``stop()``-ped, the manager parked, the engine drained.
        """
        engine = self.engine
        serve_rng = self.rng.child("serve")

        def main() -> Generator:
            pools = []
            for site, fleet in zip(self.site_names, self.fleets):
                pool = ClientPool(
                    engine, fleet, serve_rng, self.links[site],
                    self.admission, FleetBackend(self.store, site),
                    self.metrics, self.catalog, self.t_end,
                )
                self.sessions.append(pool.session)
                pools.append(engine.spawn(pool.run(), f"pool-{site}"))
            yield AllOf(pools)

        engine.run_process(main(), main_name)
        self.injector.stop()
        self.admission.close()
        engine.run()  # let in-flight recovery / the control plane finish
        for part in control_plane:
            part.stop()
        self.manager.stop()
        engine.run()  # drain the woken manager and the closed dispatcher

    def report(
        self, flight_out: Optional[str], leading_invariants: Iterable = ()
    ) -> dict:
        """Audit (I8, engine drain, I5 — after any ``leading_invariants``
        of the caller's) and the report sections every fleet campaign
        shares; dumps the flight recorder when ``flight_out`` is set."""
        engine = self.engine
        recoverable = check_fleet_recoverable(self.store)
        invariants = [
            *leading_invariants,
            recoverable,
            _result(
                "engine_drained",
                engine.is_idle,
                {"final_time": round(engine.now, 6)},
            ),
            check_no_admitted_request_lost(self.admission),
        ]
        lost_bytes = recoverable["detail"]["lost_bytes"]
        report = {
            "seed": self.seed,
            "duration_s": round(self.duration_s, 6),
            "topology": self.store.topology.to_dict(),
            "layout": self.store.layout.to_dict(),
            "clients": self.clients,
            "pooling": "aggregate",
            "prepopulated": len(self.catalog),
            "serve_start": round(self.serve_start, 6),
            "final_time": round(engine.now, 6),
            "plan": [spec.to_dict() for spec in self.plan],
            "fault_events": self.injector.log,
            "tenants": {
                name: tenant_outcomes(self.metrics, self.admission, name)
                for name in sorted(self.admission.tenants)
            },
            "links": {
                site: {
                    "requests": link.requests,
                    "responses": link.responses,
                    "drops": link.drops,
                }
                for site, link in sorted(self.links.items())
            },
            "store": self.store.health(),
            "recovery": self.manager.health(),
            "invariants": invariants,
            "bytes_lost": lost_bytes,
            "ok": all(inv["ok"] for inv in invariants) and lost_bytes == 0,
        }
        if flight_out:
            self.recorder.dump(flight_out)
            report["flight_dump"] = flight_out
        return report


def run_fleet(
    seed: int,
    sites: int = 3,
    racks_per_site: int = 8,
    k: int = 4,
    m: int = 2,
    clients: int = 105_000,
    duration_s: float = 12.0,
    objects: int = 18,
    arrival_rate: float = 60.0,
    rack_loss: bool = True,
    site_loss: bool = True,
    flight_out: str | None = None,
) -> dict:
    """One fleet campaign; returns the (JSON-safe) report dict.

    ``clients`` is the whole fleet (split evenly across sites, remainder
    to site 0); ``arrival_rate`` is *per site* in ops/second.  With the
    defaults this serves 105 000 pooled clients over 24 racks in 3
    sites, loses one rack early and one whole site mid-run, and must
    end with every acked object decodable (I8) and zero bytes lost.
    The client mix, admission cap and detection delay are
    :class:`FleetRig`'s module constants.

    ``flight_out`` attaches a flight recorder for the run and dumps it
    (JSONL) to that path; unset, run and report stay byte-identical to
    an unrecorded build.
    """
    rig = FleetRig(
        seed, "fleet", bool(flight_out),
        sites=sites, racks_per_site=racks_per_site, k=k, m=m,
        clients=clients, duration_s=duration_s, objects=objects,
        arrival_rate=arrival_rate, rack_loss=rack_loss, site_loss=site_loss,
    )
    rig.start_recovery_loop()
    rig.serve("fleet-main")

    report = rig.report(flight_out)
    counts = balance(
        [record.placement for record in rig.store.catalog.values()]
    )
    report["placement"] = {
        "racks_used": len(counts),
        "shards_min": min(counts.values()) if counts else 0,
        "shards_max": max(counts.values()) if counts else 0,
    }
    report["sessions"] = {
        session.session_id: dict(sorted(session.outcomes.items()))
        for session in sorted(rig.sessions, key=lambda s: s.session_id)
    }
    return report


def render_text(report: dict) -> str:
    """Human-readable campaign summary."""
    topo = report["topology"]
    layout = report["layout"]
    lines = [
        f"fleet report  seed={report['seed']}  "
        f"{topo['sites']}x{topo['racks_per_site']} racks  "
        f"layout {layout['k']}+{layout['m']}  "
        f"clients={report['clients']}",
        "",
        f"{'site':<10} {'ops':>7} {'ok':>7} {'failed':>7} "
        f"{'p50 s':>9} {'p99 s':>9}",
    ]
    lines.append("-" * len(lines[-1]))
    for name, entry in report["tenants"].items():
        lines.append(
            f"{name:<10} {entry['ops']:>7} "
            f"{entry['outcomes']['ok']:>7} "
            f"{entry['outcomes']['failed']:>7} "
            f"{entry['p50_s']:>9.4f} {entry['p99_s']:>9.4f}"
        )
    lines.extend(render_fleet_footer(report))
    return "\n".join(lines)


def failures(report: dict) -> list[str]:
    """Exit-1 lines: every failed invariant, then any lost byte."""
    found = failed_invariants(report)
    if report["bytes_lost"]:
        found.append(f"BYTES LOST: {report['bytes_lost']}")
    return found


def cmd_fleet(args) -> int:
    """Run a fleet campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time; any
    divergence, invariant violation, or lost byte is a non-zero exit.
    """
    return run_and_compare(
        args,
        lambda flight_out: run_fleet(
            **run_kwargs(run_fleet, args, flight_out=flight_out)
        ),
        render_text,
        failures,
        lambda report: invariants_hold(report, ", 0 bytes lost"),
    )


def register(sub) -> None:
    # the monitored campaign builds on this module's FleetRig
    from repro.fleet.monitor import cmd_fleet_monitor, run_fleet_monitor

    fleet = campaign_parser(
        sub, "fleet", "multi-site fleet campaign + recovery + I8 audit",
        cmd_fleet, seed=7,
    )
    run_flags(fleet, run_fleet, {
        **_GEOMETRY_FLAGS,
        "site_loss": "skip the mid-run whole-site destruction",
    })
    fmon = campaign_parser(
        sub, "fleet-monitor",
        "fleet telemetry pipeline + closed-loop supervisor, I9 audit",
        cmd_fleet_monitor, seed=7,
    )
    run_flags(fmon, run_fleet_monitor, {
        **_GEOMETRY_FLAGS,
        "site_loss": "also destroy a whole site mid-run",
        "telemetry": "baseline: same fleet, loss-event recovery, no agents "
                     "and no supervisor",
    })
