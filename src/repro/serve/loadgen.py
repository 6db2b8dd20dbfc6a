"""Client fleets: open- and closed-loop load against a serving rack.

``run_serve(seed, ...)`` is the whole experiment in one call: build a
scaled-for-tests rack (or a two-rack replicated cluster), pre-populate
it from :class:`~repro.workloads.generator.ArchivalWorkloadGenerator`
streams, attach the 10GbE link and the admission controller, run every
fleet's clients to the horizon, and reduce the outcome into the
deterministic report of :mod:`repro.serve.report`.

Two fleet modes (the TALICS³/LOCKSS load-model split):

* **closed-loop** — each client issues, waits for completion, thinks an
  exponential think time, repeats; concurrency is bounded by the client
  count (how interactive users behave);
* **open-loop** — arrivals are a seeded Poisson process that does *not*
  wait for completions, so offered load keeps arriving while the rack
  is slow — the regime where admission control earns its keep.

Open-loop fleets arrive one of two ways (``FleetSpec.pooling``):

* ``sessions`` — one session, one RNG stream and one engine process per
  client, each drawing its own Poisson gaps at ``λ/N``: the stream-exact
  form, for fleets small enough to pay O(clients) processes;
* ``aggregate`` — one :class:`ClientPool` per fleet.  It exploits Poisson
  superposition — the merge of ``N`` independent Poisson streams of rate
  ``λ/N`` is one Poisson stream of rate ``λ`` — to drive a whole fleet
  from one RNG stream and one pooled session with per-pool histograms.
  That is what makes 10⁵–10⁶-client fleet campaigns
  (:mod:`repro.fleet.campaign`) cost O(arrivals), not O(clients).

Both, and :mod:`repro.serve.xl`'s per-rack driver, run one arrival
loop, :func:`arrive`, fed per client by a lazy scalar stream or per pool
by :func:`epoch_draws`.

Everything derives from one seed; ``run_serve`` is a pure function of
its arguments and its report is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Optional

from repro import units
from repro.errors import ROSError, SessionDisconnectedError
from repro.faults.plan import FaultPlan
from repro.serve.network import NetworkLink
from repro.serve.report import build_report
from repro.serve.session import ClientSession, ServeOp
from repro.serve.tenancy import AdmissionController, TenantSpec
from repro.sim.engine import AllOf, Delay
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import MetricsRegistry
from repro.workloads.generator import (
    SIZE_PROFILES,
    ArchivalWorkloadGenerator,
)

#: in-simulation payload cap (matches the workload generator's default)
PAYLOAD_CAP = 64 * 1024

#: arrivals batch-drawn per epoch by :func:`epoch_draws`
EPOCH = 1024


def epoch_draws(
    mean_gap: float, gap_rng: DeterministicRNG, *rngs: DeterministicRNG
) -> Iterator[tuple]:
    """Endless ``(gap, u1, …)`` draws: an exponential gap, then one
    uniform per extra stream, batch-read ``EPOCH`` at a time on the
    epoch's first pull.  A size-n numpy draw reads the same stream as n
    scalar draws, so this equals drawing per arrival at O(epochs) cost.
    """
    while True:
        yield from zip(
            gap_rng.exponential_array(mean_gap, EPOCH).tolist(),
            *(rng.uniform_array(EPOCH).tolist() for rng in rngs),
        )


def arrive(
    engine, t_end: float, arrivals: Iterator[tuple], issue: Callable
) -> Generator:
    """The open-loop arrival loop: pull one ``(gap, *draws)`` (only after
    the last ``issue`` returned), stop at the first arrival at or past
    ``t_end``, else sleep ``gap`` and call ``issue(*draws)``.  Times
    accumulate one ``Delay`` at a time (a cumsum would round differently).
    """
    for gap, *draws in arrivals:
        if engine.now + gap >= t_end:
            return
        yield Delay(gap)
        issue(*draws)


@dataclass(frozen=True)
class FleetSpec:
    """One tenant's client fleet and its traffic shape."""

    tenant: TenantSpec
    clients: int = 2
    #: "closed" (think-time loop) or "open" (Poisson arrivals)
    mode: str = "closed"
    #: closed-loop mean think time between ops (seconds)
    think_s: float = 0.5
    #: open-loop arrival rate for the whole fleet (ops/second)
    arrival_rate: float = 2.0
    #: fraction of ops that are reads (small extra slice become stats)
    read_fraction: float = 0.7
    #: size profile for writes (see workloads.generator.SIZE_PROFILES)
    profile: str = "mixed"
    max_file_bytes: int = 8 * units.MB
    #: open-loop arrival pooling: "sessions" (one session, RNG stream and
    #: process per client) or "aggregate" (one superposed Poisson stream,
    #: one pooled session)
    pooling: str = "sessions"

    def __post_init__(self):
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown fleet mode {self.mode!r}")
        if self.clients < 1:
            raise ValueError("fleet needs at least one client")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.profile not in SIZE_PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.pooling not in ("sessions", "aggregate"):
            raise ValueError(f"unknown pooling {self.pooling!r}")


def default_fleets() -> list[FleetSpec]:
    """The 3-tenant QoS demo.

    ``bulk`` is unthrottled and write-heavy — it will saturate the link
    and the drive pool.  ``gold`` is rate-limited, deadline-bounded and
    heavily weighted, with an explicit p99 SLO the report checks.
    ``scavenger`` is an open-loop trickle with a tiny queue, the first
    tenant to see backpressure.
    """
    return [
        FleetSpec(
            tenant=TenantSpec("bulk", weight=1.0, max_queue=64),
            clients=3,
            mode="closed",
            think_s=0.02,
            read_fraction=0.3,
            profile="media",
            max_file_bytes=2 * units.MB,
        ),
        FleetSpec(
            tenant=TenantSpec(
                "gold",
                rate_ops=50.0,
                rate_bytes=32 * units.MB,
                weight=4.0,
                deadline_s=5.0,
                slo_p99_s=2.0,
            ),
            clients=2,
            mode="closed",
            think_s=0.1,
            read_fraction=0.8,
            profile="iot",
            max_file_bytes=256 * 1024,
        ),
        FleetSpec(
            tenant=TenantSpec(
                "scavenger",
                rate_ops=10.0,
                rate_bytes=4 * units.MB,
                burst_ops=4.0,
                weight=0.5,
                max_queue=8,
                deadline_s=2.0,
            ),
            clients=1,
            mode="open",
            arrival_rate=6.0,
            read_fraction=0.5,
            profile="iot",
            max_file_bytes=128 * 1024,
        ),
    ]


def _build_config():
    from repro import OLFSConfig

    # Unlike the chaos rig (64 KB buckets, tiny files), the serve rig
    # keeps the scaled-for-tests default bucket so multi-megabyte
    # masters don't shred into thousands of burn images per file.
    return OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
        read_cache_images=2,
    ).scaled_for_tests()


def _next_op(
    fleet: FleetSpec,
    rng: DeterministicRNG,
    catalog: list[tuple[str, int]],
    session_id: str,
    counter: list[int],
) -> ServeOp:
    return _op_from_roll(
        fleet, rng.uniform(), rng, catalog, session_id, counter
    )


def _op_from_roll(
    fleet: FleetSpec,
    roll: float,
    rng: DeterministicRNG,
    catalog: list[tuple[str, int]],
    session_id: str,
    counter: list[int],
) -> ServeOp:
    """Materialize one op given a pre-drawn kind roll.

    The roll decides read/stat/write; per-op details (catalog index,
    write size, payload) still come from ``rng``.  Splitting the roll out
    lets the vectorized pool batch-draw rolls from a dedicated sub-stream
    while detail draws stay scalar — without desynchronizing the streams
    between the batch and scalar paths.
    """
    if catalog and roll < fleet.read_fraction:
        path, declared = catalog[rng.integers(0, len(catalog))]
        return ServeOp("read", path, float(declared))
    if catalog and roll < fleet.read_fraction + 0.05:
        path, _declared = catalog[rng.integers(0, len(catalog))]
        return ServeOp("stat", path, 0.0)
    mean, sigma = SIZE_PROFILES[fleet.profile]
    size = max(1, int(min(rng.lognormal(mean, sigma), fleet.max_file_bytes)))
    payload = rng.bytes(min(size, PAYLOAD_CAP))
    counter[0] += 1
    path = f"/serve/{fleet.tenant.name}/{session_id}/f{counter[0]:05d}.bin"
    return ServeOp(
        "write", path, float(size), data=payload, logical_size=size
    )


def _one_shot(
    session: ClientSession, op: ServeOp, catalog: list[tuple[str, int]]
) -> Generator:
    """One open-loop op as its own process (arrivals never wait for it)."""
    try:
        outcome = yield from session.perform(op)
    except SessionDisconnectedError:
        return
    if op.kind == "write" and outcome.status == "ok":
        catalog.append((op.path, int(op.nbytes)))


class ClientPool:
    """One engine process driving a whole open-loop fleet's arrivals.

    The pool drives the fleet from one Poisson stream at the fleet's
    summed arrival rate (superposition) through one pooled session with
    non-sticky disconnects — a ``client.disconnect`` fault drops one
    *virtual* client (one recorded ``disconnected`` outcome), not the
    pool.  Per-pool outcome counts and latency histograms land in the
    same per-tenant metrics as every other path.

    Inter-arrival gaps and op-kind rolls come from :func:`epoch_draws`
    over dedicated sub-streams (``pool-<tenant>`` → ``gaps`` / ``rolls``
    / ``ops``), so a million-arrival fleet pays O(epochs) of RNG dispatch
    instead of two Python RNG calls per event; an epoch's unused tail is
    simply discarded at the horizon.
    """

    #: prune completed op processes once the in-flight list hits this
    PRUNE_AT = 512

    def __init__(
        self,
        engine,
        fleet: FleetSpec,
        rng: DeterministicRNG,
        link: NetworkLink,
        admission: AdmissionController,
        backend,
        metrics: MetricsRegistry,
        catalog: list[tuple[str, int]],
        t_end: float,
    ):
        if fleet.mode != "open":
            raise ValueError("ClientPool drives open-loop fleets")
        self.engine = engine
        self.fleet = fleet
        self.catalog = catalog
        self.t_end = t_end
        tenant = fleet.tenant.name
        self.session = ClientSession(
            engine, f"{tenant}-pool", tenant, link, admission,
            backend, metrics, sticky_disconnect=False,
        )
        pool_rng = rng.child(f"pool-{tenant}")
        self._gap_rng = pool_rng.child("gaps")
        self._roll_rng = pool_rng.child("rolls")
        self._op_rng = pool_rng.child("ops")
        self._counter = [0]
        self._spawned: list = []  # in-flight op processes (pruned)

    # ------------------------------------------------------------------
    def _spawn_roll(self, roll: float) -> None:
        """Issue one op (kind decided by ``roll``) as its own process and
        track it, pruning finished ones so the list stays bounded."""
        session = self.session
        op = _op_from_roll(self.fleet, roll, self._op_rng, self.catalog,
                           session.session_id, self._counter)
        self._spawned.append(self.engine.spawn(
            _one_shot(session, op, self.catalog),
            f"op-{session.session_id}-{self._counter[0]}",
        ))
        if len(self._spawned) >= self.PRUNE_AT:
            self._spawned = [p for p in self._spawned if not p.done]

    def run(self) -> Generator:
        arrivals = epoch_draws(
            1.0 / self.fleet.arrival_rate, self._gap_rng, self._roll_rng
        )
        yield from arrive(self.engine, self.t_end, arrivals, self._spawn_roll)
        pending = [process for process in self._spawned if not process.done]
        if pending:
            yield AllOf(pending)


def run_serve(
    seed: int,
    fleets: Optional[list[FleetSpec]] = None,
    duration_s: float = 60.0,
    prepopulate: int = 18,
    backend: str = "olfs",
    faults: bool = False,
    max_inflight: int = 8,
    scrub: bool = False,
    include_events: bool = False,
    flight_out: Optional[str] = None,
) -> dict:
    """Run one serving experiment; returns the report dict.

    With ``scrub=True`` a :class:`~repro.preserve.scrubber.
    BackgroundScrubber` patrols the rack *during* the serving run,
    admitted through the same controller as the paying tenants (its own
    low-weight ``scrub`` tenant) — the QoS layer, not good manners, is
    what keeps patrol I/O out of the gold tenant's p99.

    With ``flight_out`` set a :class:`~repro.obs.recorder.FlightRecorder`
    is attached for the whole run and dumped (JSONL) to that path at the
    end; the default leaves the run and report byte-identical to an
    unrecorded build.
    """
    if backend not in ("olfs", "cluster"):
        raise ValueError(f"unknown backend {backend!r}")
    fleets = list(fleets) if fleets is not None else default_fleets()
    if not fleets:
        raise ValueError("need at least one fleet")
    rng = DeterministicRNG(seed).child("serve")

    plan = None
    if faults:
        plan = FaultPlan.randomized(rng.child("plan"), duration_s, serve=True)

    # -- rack(s) -------------------------------------------------------
    # Serving-sized buffer volumes: the chaos rig's 200 MB would fill in
    # seconds under a saturating write fleet and turn every outcome into
    # ENOSPC; the paper's rack fronts the drives with RAID-5 volumes.
    config = _build_config()
    rack_kwargs = dict(
        roller_count=1, buffer_volume_capacity=4 * units.GB
    )
    if backend == "cluster":
        from repro.cluster import RackCluster

        rack = RackCluster(
            rack_count=2, replicas=1, config=config, **rack_kwargs
        )
        racks = rack.racks
    else:
        from repro import ROS

        rack = ROS(config=config, **rack_kwargs)
        racks = [rack]
    # From here on the rack — one OLFS or a cluster of them — is one
    # object: ``rack.write`` / ``rack.flush`` / ``rack.pi``.
    engine = rack.engine
    injector = None
    if plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(engine, plan, seed=seed).bind(racks[0])
        injector.install().start()

    recorder = None
    if flight_out:
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(engine).install()

    # -- serving plumbing ----------------------------------------------
    link = NetworkLink(engine)
    tenants = [fleet.tenant for fleet in fleets]
    if scrub:
        # Appended after every fleet tenant so scrub-off runs keep their
        # exact tenant order (and byte-identical reports).
        tenants.append(
            TenantSpec(
                "scrub",
                rate_bytes=4 * units.MB,
                weight=0.25,
                max_queue=4,
                deadline_s=30.0,
            )
        )
    admission = AdmissionController(
        engine,
        tenants,
        max_inflight=max_inflight,
    )
    metrics = MetricsRegistry()

    # -- pre-population ------------------------------------------------
    # Each fleet gets its own file population in its own size profile, so
    # a small-file tenant's reads are not hostage to another tenant's
    # multi-megabyte masters.
    catalogs: list[list[tuple[str, int]]] = [[] for _ in fleets]
    per_fleet = max(1, prepopulate // len(fleets))
    for index, fleet in enumerate(fleets):
        generator = ArchivalWorkloadGenerator(
            profile=fleet.profile,
            seed=seed + index,
            root=f"/serve/{fleet.tenant.name}",
            max_file_bytes=fleet.max_file_bytes,
        )
        for spec in generator.files(per_fleet):
            try:
                rack.write(spec.path, spec.payload, spec.logical_size)
            except ROSError:
                continue
            catalogs[index].append((spec.path, spec.declared_size))

    scrubber = None
    if scrub:
        # Burn the pre-population to disc so the patrol has USED arrays
        # to walk, then scrub under live traffic through the admission
        # controller (budget mode two of the scrubber).
        from repro.preserve.scrubber import BackgroundScrubber

        try:
            rack.flush()
        except ROSError:
            pass
        racks[0].settle()
        scrubber = BackgroundScrubber(racks[0], admission=admission)

    # -- fleets --------------------------------------------------------
    serve_start = engine.now
    t_end = serve_start + duration_s
    sessions: list[ClientSession] = []

    def closed_loop(
        session: ClientSession,
        fleet: FleetSpec,
        client_rng: DeterministicRNG,
        catalog: list[tuple[str, int]],
    ) -> Generator:
        counter = [0]
        while engine.now < t_end and not session.disconnected:
            op = _next_op(
                fleet, client_rng, catalog, session.session_id, counter
            )
            try:
                outcome = yield from session.perform(op)
            except SessionDisconnectedError:
                return
            if op.kind == "write" and outcome.status == "ok":
                catalog.append((op.path, int(op.nbytes)))
            yield Delay(client_rng.exponential(fleet.think_s))

    def open_loop(
        session: ClientSession,
        fleet: FleetSpec,
        client_rng: DeterministicRNG,
        catalog: list[tuple[str, int]],
    ) -> Generator:
        rate = fleet.arrival_rate / fleet.clients
        counter = [0]
        spawned = []

        def gaps() -> Iterator[tuple]:
            # Scalar and lazy: gap and op draws interleave on client_rng.
            while not session.disconnected:
                yield (client_rng.exponential(1.0 / rate),)

        def issue() -> None:
            op = _next_op(
                fleet, client_rng, catalog, session.session_id, counter
            )
            spawned.append(engine.spawn(
                _one_shot(session, op, catalog),
                f"op-{session.session_id}-{counter[0]}",
            ))

        yield from arrive(engine, t_end, gaps(), issue)
        pending = [process for process in spawned if not process.done]
        if pending:
            yield AllOf(pending)

    def main() -> Generator:
        procs = []
        for index, fleet in enumerate(fleets):
            if fleet.mode == "open" and fleet.pooling == "aggregate":
                pool = ClientPool(
                    engine, fleet, rng, link, admission, rack.pi,
                    metrics, catalogs[index], t_end,
                )
                sessions.append(pool.session)
                procs.append(engine.spawn(
                    pool.run(), f"pool-{fleet.tenant.name}"
                ))
                continue
            for client in range(fleet.clients):
                session_id = f"{fleet.tenant.name}-{client}"
                session = ClientSession(
                    engine, session_id, fleet.tenant.name, link,
                    admission, rack.pi, metrics,
                )
                sessions.append(session)
                client_rng = rng.child(f"client-{session_id}")
                loop = closed_loop if fleet.mode == "closed" else open_loop
                procs.append(engine.spawn(
                    loop(session, fleet, client_rng, catalogs[index]),
                    f"client-{session_id}",
                ))
        yield AllOf(procs)

    if scrubber is not None:
        engine.spawn(scrubber.run(t_end), name="serve-scrubber")
    engine.run_process(main(), "serve-main")
    elapsed = engine.now - serve_start
    admission.close()
    if injector is not None:
        injector.stop()
    for member in racks:
        member.settle()

    report = build_report(
        seed=seed,
        duration_s=elapsed,
        metrics=metrics,
        admission=admission,
        link_health=link.health(),
        backend=backend,
    )
    report["prepopulated"] = sum(len(catalog) for catalog in catalogs)
    report["faults"] = bool(faults)
    if scrubber is not None:
        report["scrub"] = scrubber.health()
    if injector is not None:
        report["fault_events"] = len(injector.log)
    report["sessions"] = {
        session.session_id: dict(sorted(session.outcomes.items()))
        for session in sorted(sessions, key=lambda s: s.session_id)
    }
    if include_events:
        # Opt-in so the default report keeps its historical byte form;
        # the benchmark (bench/workloads.py) reads it for events per op.
        report["events_issued"] = engine.events_issued
    if recorder is not None:
        recorder.dump(flight_out)
        report["flight_dump"] = flight_out
    return report
