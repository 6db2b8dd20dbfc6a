"""Fault taxonomy and declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming a
fault *kind* from the taxonomy below plus either a scheduled simulated time
(``at``) or a seeded hazard rate (``hazard_rate``, faults per simulated
second, drawn as a Poisson process).  The plan is pure data — the
:class:`~repro.faults.injector.FaultInjector` interprets it against a live
system — so plans serialize deterministically and replay byte-identically.

Taxonomy
--------
``drive.burn_transient``
    The targeted drive's next burn fails mid-write (a bad disc or a
    transient write error); exercises the DAindex Failed + fresh-tray path.
``drive.hard_failure``
    The drive's electronics die for ``duration`` seconds: every mount,
    seek, read or burn segment raises :class:`~repro.errors.DriveError`
    until the window closes (an operator swaps the drive).
``disc.sector_burst``
    A burst of ``detail["sectors"]`` payload sectors on one burned disc
    goes bad (scratch / bit rot), recoverable through the §4.7 scrub +
    parity-rebuild path.
``plc.channel_fault``
    The SC <-> PLC control link errors: sends during the window (or the
    next send, if ``duration`` is 0) raise
    :class:`~repro.errors.PLCFaultError`.
``plc.arm_jam``
    The robotic arm's encoder drifts (a jam / miscalibration); feedback
    checks fail until the window closes (auto-recalibration) or an explicit
    ``Calibrate`` instruction repairs the sensors.
``cache.device_loss``
    The read-cache device is lost: every cached image (and any file-grain
    cache) is dropped; subsequent reads go back to the discs.
``olfs.crash_restart``
    OLFS crashes mid-burn and restarts after ``duration`` seconds of
    downtime: burning arrays stop at that instant (their burned prefixes
    survive as POW tracks), volatile caches flush, and parked burns resume
    in appending mode after the restart.
``net.link_flap``
    The rack's 10GbE serving link drops for ``duration`` seconds (or for
    exactly one request when ``duration`` is 0): every request or response
    crossing the :class:`~repro.serve.network.NetworkLink` during the
    window raises :class:`~repro.errors.LinkDownError`.
``client.disconnect``
    One serving client session (``target`` = session id, or any session)
    drops: its next operation raises
    :class:`~repro.errors.SessionDisconnectedError` and the session stops
    issuing work.
``rack.loss``
    One fleet rack goes away (``target`` = rack id, or a seeded pick).
    By default the rack is *destroyed* — its shards are gone and the
    :class:`~repro.fleet.recovery.RecoveryManager` must rebuild them on
    survivors; ``detail={"destroy": False}`` makes it a plain outage
    (data intact, rack back after ``duration`` seconds).
``site.loss``
    An entire fleet site (every rack in it) is lost at once — the
    LOCKSS fire/flood scenario the per-site placement cap exists for.
    Same ``destroy``/``duration`` semantics as ``rack.loss``.  Both
    fleet kinds are logged as skips when no fleet store is bound.
``media.accelerated_aging``
    An environmental excursion (heat/humidity epoch) instantly ages every
    burned disc in ONE rack by ``detail["years"]`` simulated years: the
    targeted :class:`~repro.preserve.aging.AgingClock` (``target`` = rack
    index, or a seeded pick) applies the extra dose through its
    :class:`~repro.media.errors_model.SectorErrorModel`.  Racks sit in
    different rooms, so an excursion never hits every replica at once.
    Ignored (logged as a skip) when no aging clock is bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

DRIVE_TRANSIENT = "drive.burn_transient"
DRIVE_HARD = "drive.hard_failure"
DISC_SECTOR_BURST = "disc.sector_burst"
PLC_CHANNEL = "plc.channel_fault"
PLC_ARM_JAM = "plc.arm_jam"
CACHE_LOSS = "cache.device_loss"
OLFS_CRASH = "olfs.crash_restart"
NET_LINK_FLAP = "net.link_flap"
CLIENT_DISCONNECT = "client.disconnect"
MEDIA_AGING = "media.accelerated_aging"
RACK_LOSS = "rack.loss"
SITE_LOSS = "site.loss"

#: Kinds every randomized plan draws (the storage-side storm).
BASE_KINDS = (
    DRIVE_TRANSIENT,
    DRIVE_HARD,
    DISC_SECTOR_BURST,
    PLC_CHANNEL,
    PLC_ARM_JAM,
    CACHE_LOSS,
    OLFS_CRASH,
)

#: Kinds drawn only when the plan covers a serving workload
#: (``randomized(..., serve=True)``).
SERVE_KINDS = (
    NET_LINK_FLAP,
    CLIENT_DISCONNECT,
)

#: Kinds drawn only for preservation campaigns
#: (``randomized(..., preserve=True)``).
PRESERVE_KINDS = (
    MEDIA_AGING,
)

#: Kinds drawn only for fleet campaigns (``randomized(..., fleet=True)``).
FLEET_KINDS = (
    RACK_LOSS,
    SITE_LOSS,
)

#: Every fault kind the injector understands.
ALL_KINDS = BASE_KINDS + SERVE_KINDS + PRESERVE_KINDS + FLEET_KINDS


@dataclass
class FaultSpec:
    """One planned fault: what, whom, when (or how often), for how long."""

    kind: str
    #: fire once at this simulated time (mutually exclusive with hazard_rate)
    at: Optional[float] = None
    #: expected faults per simulated second (Poisson arrivals)
    hazard_rate: Optional[float] = None
    #: drive id / disc id / suite index as a string; None lets the
    #: injector pick a deterministic target from the live system
    target: Optional[str] = None
    #: fault window length in seconds (hard failures, jams, crash downtime);
    #: 0 means a one-shot fault consumed by the next matching operation
    duration: float = 0.0
    #: cap on hazard-rate firings (None = bounded only by ``until``)
    count: Optional[int] = None
    #: hazard arrivals past this simulated time are not drawn
    until: Optional[float] = None
    #: kind-specific knobs (e.g. {"sectors": 4} for a burst)
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at is None) == (self.hazard_rate is None):
            raise ValueError(
                f"{self.kind}: exactly one of 'at' or 'hazard_rate' required"
            )
        if self.hazard_rate is not None and self.hazard_rate <= 0:
            raise ValueError(f"{self.kind}: hazard_rate must be positive")
        if self.at is not None and self.at < 0:
            raise ValueError(f"{self.kind}: 'at' must be non-negative")
        if self.duration < 0:
            raise ValueError(f"{self.kind}: duration must be non-negative")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "hazard_rate": self.hazard_rate,
            "target": self.target,
            "duration": self.duration,
            "count": self.count,
            "until": self.until,
            "detail": self.detail,
        }


class FaultPlan:
    """An ordered collection of fault specs, built declaratively."""

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: list[FaultSpec] = list(specs)

    def add(self, kind: str, **kwargs) -> FaultSpec:
        """Append a spec (``at`` defaults to 0.0 if no timing given)."""
        if "at" not in kwargs and "hazard_rate" not in kwargs:
            kwargs["at"] = 0.0
        spec = FaultSpec(kind, **kwargs)
        self.specs.append(spec)
        return spec

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def shifted(self, offset: float) -> "FaultPlan":
        """A copy of this plan with every timing moved ``offset`` later.

        Scheduled times (``at``) and hazard bounds (``until``) shift;
        rates and durations are unchanged.  Preservation campaigns use
        this to aim a plan drawn over ``[0, horizon]`` at the campaign
        window, which only starts once the archive has been populated.
        """
        shifted = []
        for spec in self.specs:
            shifted.append(
                FaultSpec(
                    spec.kind,
                    at=None if spec.at is None else spec.at + offset,
                    hazard_rate=spec.hazard_rate,
                    target=spec.target,
                    duration=spec.duration,
                    count=spec.count,
                    until=None if spec.until is None else spec.until + offset,
                    detail=dict(spec.detail),
                )
            )
        return FaultPlan(shifted)

    @classmethod
    def randomized(
        cls,
        rng,
        horizon: float,
        intensity: float = 1.0,
        serve: bool = False,
        preserve: bool = False,
        fleet: bool = False,
    ) -> "FaultPlan":
        """A seeded mixed-fault schedule over ``[0, horizon]`` sim seconds.

        ``rng`` is a :class:`~repro.sim.rng.DeterministicRNG`; identical
        seeds produce identical plans.  ``intensity`` scales every hazard
        rate.  Every hazard spec is bounded by ``horizon`` so injector
        driver processes terminate and the engine can drain.

        With ``serve=True`` the plan also covers the serving path: a
        10GbE link-flap window and a client-disconnect hazard.  The serve
        specs are appended *after* every baseline draw, so ``serve=False``
        plans stay byte-identical to plans built before the serving layer
        existed.

        With ``preserve=True`` the plan adds a preservation-campaign
        fault: one accelerated-aging shock that dumps extra simulated
        years of media decay mid-run.  Its draws follow every baseline
        (and serve) draw, preserving the same byte-identity discipline.

        With ``fleet=True`` the plan adds the fleet failure domains: one
        destructive rack loss and one destructive site loss.  Their
        draws come after *every* other draw (base, serve, preserve), so
        ``fleet=False`` plans — the entire pre-fleet chaos corpus —
        replay byte-identically forever.
        """
        plan = cls()
        # Transient burn errors: the most common fault in a burning rack.
        plan.add(
            DRIVE_TRANSIENT,
            hazard_rate=intensity * 2.0 / max(horizon, 1.0),
            until=horizon,
        )
        # One hard drive failure window somewhere in the run.
        plan.add(
            DRIVE_HARD,
            at=rng.uniform(0.1, max(horizon * 0.6, 0.2)),
            duration=rng.uniform(20.0, 120.0),
        )
        # Media decay: occasional sector bursts on burned discs.
        plan.add(
            DISC_SECTOR_BURST,
            hazard_rate=intensity * 1.5 / max(horizon, 1.0),
            until=horizon,
            detail={"sectors": 2 + rng.integers(0, 4)},
        )
        # Control-path glitches.
        plan.add(
            PLC_CHANNEL,
            hazard_rate=intensity * 1.0 / max(horizon, 1.0),
            until=horizon,
            duration=rng.uniform(0.0, 5.0),
        )
        plan.add(
            PLC_ARM_JAM,
            at=rng.uniform(0.1, max(horizon * 0.8, 0.2)),
            duration=rng.uniform(10.0, 60.0),
        )
        # Cache device loss once per run.
        plan.add(CACHE_LOSS, at=rng.uniform(0.1, max(horizon, 0.2)))
        # One crash/restart, biased toward the middle of the run where
        # burns are most likely to be in flight.
        plan.add(
            OLFS_CRASH,
            at=rng.uniform(max(horizon * 0.2, 0.1), max(horizon * 0.9, 0.2)),
            duration=rng.uniform(10.0, 45.0),
        )
        if serve:
            # Serving-path faults, drawn strictly after the baseline specs
            # so serve=False plans are unchanged byte-for-byte.
            plan.add(
                NET_LINK_FLAP,
                at=rng.uniform(0.1, max(horizon * 0.7, 0.2)),
                duration=rng.uniform(1.0, 10.0),
            )
            plan.add(
                CLIENT_DISCONNECT,
                hazard_rate=intensity * 1.0 / max(horizon, 1.0),
                until=horizon,
            )
        if preserve:
            # Preservation-campaign fault, drawn after everything else so
            # plans without it keep their exact draw sequence.
            plan.add(
                MEDIA_AGING,
                at=rng.uniform(max(horizon * 0.3, 0.1), max(horizon * 0.9, 0.2)),
                detail={"years": round(rng.uniform(1.0, 6.0), 6)},
            )
        if fleet:
            # Fleet failure domains, drawn after everything else so every
            # fleet=False plan keeps its exact draw sequence.
            plan.add(
                RACK_LOSS,
                at=rng.uniform(max(horizon * 0.15, 0.1),
                               max(horizon * 0.55, 0.2)),
            )
            plan.add(
                SITE_LOSS,
                at=rng.uniform(max(horizon * 0.35, 0.1),
                               max(horizon * 0.8, 0.2)),
            )
        return plan
