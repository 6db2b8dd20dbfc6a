"""The fault injector: interprets a :class:`FaultPlan` against a live rack.

The injector registers on the simulation :class:`~repro.sim.engine.Engine`
as ``engine.faults`` (every engine starts with the no-op
:data:`~repro.sim.engine.NULL_FAULTS`), and instrumented sites consult it:

* ``drive.burn`` — one-shot transient burn errors, *delivered*: a burning
  drive subscribes for the length of its burn and is woken at the instant
  a fault is armed for it (:meth:`OpticalDrive.burn` also checks as the
  laser starts and when it stops, so a fault armed on an idle drive trips
  the next burn);
* ``drive.op`` — checked on mount / seek / read / burn entry, and
  delivered to a burn in flight the same way (hard-failure windows).
  Both drive sites pass the drive itself: drive ids repeat across the
  racks of one engine, so a fault aimed at a drive id trips only the
  bound rack's drive of that id;
* ``plc.channel`` — checked by :meth:`PLCController.execute` when the
  command arrives, if :meth:`FaultInjector.live` said at send time that
  an any-target fault could trip then; a fault armed during a command's
  1 ms flight trips the next command instead;
* ``net.link`` — checked by :class:`repro.serve.network.NetworkLink` on
  every request/response transfer (flap windows and one-shots);
* ``client.session`` — checked by :class:`repro.serve.session.ClientSession`
  before each issued operation (one-shot disconnects).

Scheduled (``at=T``) and hazard-rate faults are driven by engine processes
spawned from :meth:`start`; *applied* faults (sector bursts, arm jams,
cache loss, crash/restart) act on the bound OLFS instance directly.  All
randomness flows through one :class:`~repro.sim.rng.DeterministicRNG`
sub-stream, so a seeded plan replays byte-identically — the property the
chaos harness and its regression corpus rely on.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.drives.drive import wake
from repro.faults.plan import (
    CACHE_LOSS,
    CLIENT_DISCONNECT,
    DISC_SECTOR_BURST,
    DRIVE_HARD,
    DRIVE_TRANSIENT,
    FaultPlan,
    FaultSpec,
    MEDIA_AGING,
    NET_LINK_FLAP,
    OLFS_CRASH,
    PLC_ARM_JAM,
    PLC_CHANNEL,
    RACK_LOSS,
    SITE_LOSS,
)
from repro.sim.engine import Delay, Engine, Interrupt
from repro.sim.rng import DeterministicRNG

#: site keys instrumented components consult via ``engine.faults.check``
SITE_DRIVE_BURN = "drive.burn"
SITE_DRIVE_OP = "drive.op"
SITE_PLC_CHANNEL = "plc.channel"
SITE_NET_LINK = "net.link"
SITE_CLIENT_SESSION = "client.session"

#: default encoder drift (layers) applied by an arm jam
DEFAULT_JAM_DRIFT = 3.0
#: default bad-sector burst length
DEFAULT_BURST_SECTORS = 4
#: default crash downtime when a spec does not give one
DEFAULT_CRASH_DOWNTIME = 30.0
#: default extra media age (years) applied by an aging shock
DEFAULT_AGING_SHOCK_YEARS = 3.0


class FaultInjector:
    """Deterministic, seed-driven fault injection over one OLFS instance."""

    enabled = True

    def __init__(
        self,
        engine: Engine,
        plan: Optional[FaultPlan] = None,
        seed: int = 0xFA17,
    ):
        self.engine = engine
        self.plan = plan or FaultPlan()
        self.rng = DeterministicRNG(seed).child("fault-injector")
        self._ros = None
        #: the bound rack's drives, the only ones drive-id targets name
        self._drives: frozenset = frozenset()
        #: one-shot faults armed per (site, target); "" target = any
        self._oneshots: dict[tuple[str, str], list[FaultSpec]] = {}
        #: windowed faults: (site, target, until, spec)
        self._windows: list[tuple[str, str, float, FaultSpec]] = []
        #: burns in flight: the burn's process -> its drive's target key
        #: (see :meth:`_target`)
        self._burning: dict = {}
        #: arrays already carrying an injected burst (keep each array
        #: within its parity budget so scrub repair always succeeds)
        self._corrupted_arrays: set = set()
        #: aging clocks accelerated-aging shocks act on (preserve runs)
        self._aging_clocks: list = []
        #: fleet store rack/site-loss faults act on (fleet campaigns)
        self._fleet = None
        self._drivers: list = []
        self._active = True
        #: chronological record of everything injected (campaign report)
        self.log: list[dict] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, ros) -> "FaultInjector":
        """Attach the OLFS instance applied faults and drive-id targets
        act on."""
        self._ros = ros
        self._drives = frozenset(
            drive for drive_set in ros.mech.drive_sets
            for drive in drive_set.drives
        )
        return self

    def bind_aging(self, clock) -> "FaultInjector":
        """Attach an :class:`~repro.preserve.aging.AgingClock` so
        ``media.accelerated_aging`` shocks reach its discs."""
        self._aging_clocks.append(clock)
        return self

    def bind_fleet(self, store) -> "FaultInjector":
        """Attach a :class:`~repro.fleet.store.FleetStore` so
        ``rack.loss``/``site.loss`` faults reach its failure domains."""
        self._fleet = store
        return self

    def install(self) -> "FaultInjector":
        """Register as ``engine.faults`` so sites consult this injector."""
        self.engine.faults = self
        return self

    def start(self) -> "FaultInjector":
        """Start one driver process per plan spec."""
        for index, spec in enumerate(self.plan):
            process = self.engine.spawn(
                self._driver(spec), name=f"fault-driver-{index}-{spec.kind}"
            )
            self._drivers.append(process)
        return self

    def stop(self) -> None:
        """Silence the injector: no new arrivals, no more site trips."""
        self._active = False
        for process in self._drivers:
            if not process.done:
                process.interrupt("fault-injector-stop")

    # ------------------------------------------------------------------
    # Site consultation (hot path: called from drives / PLC channel)
    # ------------------------------------------------------------------
    def check(self, site: str, target="") -> Optional[FaultSpec]:
        """Armed fault for ``site``/``target`` (a string, or the drive at
        a drive site)?  One-shots are consumed."""
        if not self._active:
            return None
        target = self._target(target)
        now = self.engine.now
        if self._windows:
            self._windows = [
                window for window in self._windows if window[2] > now
            ]
            for window_site, window_target, _until, spec in self._windows:
                if window_site == site and window_target in ("", target):
                    return spec
        for key in ((site, target), (site, "")):
            queue = self._oneshots.get(key)
            if queue:
                spec = queue.pop(0)
                self._log("trip", spec.kind, target or key[1])
                return spec
        return None

    def live(self, site: str, at: float) -> bool:
        """Could an untargeted ``check(site)`` at instant ``at`` trip?

        Read-only: an any-target one-shot is armed, or an any-target
        window is still open at ``at``.  A fault armed after this answer
        is first seen by the next question.
        """
        if not self._active:
            return False
        if self._oneshots.get((site, "")):
            return True
        return any(
            window_site == site and window_target == "" and until > at
            for window_site, window_target, until, _spec in self._windows
        )

    def subscribe(self, drive, process) -> None:
        """``process`` is burning on ``drive``: wake it whenever a
        ``drive.burn`` / ``drive.op`` fault is armed that may concern it."""
        self._burning[process] = self._target(drive)

    def unsubscribe(self, process) -> None:
        self._burning.pop(process, None)

    # ------------------------------------------------------------------
    # Imperative API (tests and ad-hoc experiments)
    # ------------------------------------------------------------------
    def inject(
        self,
        kind: str,
        target: Optional[str] = None,
        duration: float = 0.0,
        detail: Optional[dict] = None,
    ) -> None:
        """Fire one fault right now (synchronously arms/applies it)."""
        spec = FaultSpec(
            kind,
            at=self.engine.now,
            target=target,
            duration=duration,
            detail=detail or {},
        )
        self._apply(spec)

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _driver(self, spec: FaultSpec) -> Generator:
        try:
            if spec.at is not None:
                if spec.at > self.engine.now:
                    yield Delay(spec.at - self.engine.now)
                if self._active:
                    self._apply(spec)
                return
            fired = 0
            while spec.count is None or fired < spec.count:
                gap = self.rng.exponential(1.0 / spec.hazard_rate)
                if spec.until is not None and self.engine.now + gap > spec.until:
                    return
                yield Delay(gap)
                if not self._active:
                    return
                self._apply(spec)
                fired += 1
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # Applying faults
    # ------------------------------------------------------------------
    def _apply(self, spec: FaultSpec) -> None:
        handler = {
            DRIVE_TRANSIENT: self._apply_drive_transient,
            DRIVE_HARD: self._apply_drive_hard,
            DISC_SECTOR_BURST: self._apply_sector_burst,
            PLC_CHANNEL: self._apply_channel_fault,
            PLC_ARM_JAM: self._apply_arm_jam,
            CACHE_LOSS: self._apply_cache_loss,
            OLFS_CRASH: self._apply_crash,
            NET_LINK_FLAP: self._apply_link_flap,
            CLIENT_DISCONNECT: self._apply_client_disconnect,
            MEDIA_AGING: self._apply_media_aging,
            RACK_LOSS: self._apply_rack_loss,
            SITE_LOSS: self._apply_site_loss,
        }[spec.kind]
        handler(spec)

    def _arm_oneshot(self, site: str, target: str, spec: FaultSpec) -> None:
        self._oneshots.setdefault((site, target), []).append(spec)
        self._wake_burns(site, target)

    def _open_window(self, site: str, target: str, spec: FaultSpec) -> None:
        until = self.engine.now + spec.duration
        self._windows.append((site, target, until, spec))
        self._wake_burns(site, target)

    def _wake_burns(self, site: str, target: str) -> None:
        # Delivered, not polled for: a burn in flight that a drive fault
        # may concern wakes now and consults check() itself, so a
        # one-shot is still consumed by the drive it trips.
        if site in (SITE_DRIVE_BURN, SITE_DRIVE_OP):
            for process, drive_id in self._burning.items():
                if target in ("", drive_id):
                    wake(process)

    def _apply_drive_transient(self, spec: FaultSpec) -> None:
        target = spec.target or self._pick_drive_id()
        self._arm_oneshot(SITE_DRIVE_BURN, target, spec)
        self._log("arm", spec.kind, target)

    def _apply_drive_hard(self, spec: FaultSpec) -> None:
        target = spec.target or self._pick_drive_id()
        if spec.duration > 0:
            self._open_window(SITE_DRIVE_OP, target, spec)
        else:
            self._arm_oneshot(SITE_DRIVE_OP, target, spec)
        self._log("arm", spec.kind, target, duration=spec.duration)

    def _apply_channel_fault(self, spec: FaultSpec) -> None:
        if spec.duration > 0:
            self._open_window(SITE_PLC_CHANNEL, spec.target or "", spec)
        else:
            self._arm_oneshot(SITE_PLC_CHANNEL, spec.target or "", spec)
        self._log("arm", spec.kind, spec.target or "*",
                  duration=spec.duration)

    def _apply_arm_jam(self, spec: FaultSpec) -> None:
        suites = self._require_ros().mech.plc.suites
        index = (
            int(spec.target)
            if spec.target is not None
            else self.rng.integers(0, len(suites))
        )
        suite = suites[index]
        drift = float(spec.detail.get("drift", DEFAULT_JAM_DRIFT))
        suite.arm_encoder.inject_drift(drift)
        self._log("apply", spec.kind, str(index), duration=spec.duration)
        if spec.duration > 0:
            def recalibrate() -> None:
                for sensor in suite.all_sensors():
                    sensor.repair()
                self._log("repair", spec.kind, str(index))

            self.engine.call_later(spec.duration, recalibrate)

    def _apply_sector_burst(self, spec: FaultSpec) -> None:
        ros = self._require_ros()
        record = self._pick_burst_victim(ros, spec.target)
        if record is None:
            self._log("skip", spec.kind, spec.target or "-")
            return
        disc = ros.mech.disc_by_id(record.disc_id)
        if disc is None or not disc.tracks:
            self._log("skip", spec.kind, record.disc_id)
            return
        from repro.media.disc import sectors_for

        image = disc.image(record.image_id)
        track = image.tracks[0] if image is not None else disc.tracks[0]
        payload_sectors = max(1, sectors_for(len(track.payload)))
        burst = int(spec.detail.get("sectors", DEFAULT_BURST_SECTORS))
        offset = self.rng.integers(0, payload_sectors)
        sectors = [
            track.start_sector + (offset + i) % payload_sectors
            for i in range(min(burst, payload_sectors))
        ]
        disc.bad_sectors.update(sectors)
        self._corrupted_arrays.add(record.array_address)
        self._log(
            "apply", spec.kind, record.disc_id, sectors=len(sectors)
        )

    def _apply_cache_loss(self, spec: FaultSpec) -> None:
        ros = self._require_ros()
        dropped = 0
        for image_id in list(ros.cache.cached_ids):
            ros.cache.evict(image_id)
            dropped += 1
        ros.ftm.forget_file_cache()
        self._log("apply", spec.kind, "read-cache", dropped=dropped)

    def _apply_link_flap(self, spec: FaultSpec) -> None:
        # No bound ros needed: the NetworkLink polls SITE_NET_LINK itself.
        if spec.duration > 0:
            self._open_window(SITE_NET_LINK, spec.target or "", spec)
        else:
            self._arm_oneshot(SITE_NET_LINK, spec.target or "", spec)
        self._log("arm", spec.kind, spec.target or "*",
                  duration=spec.duration)

    def _apply_client_disconnect(self, spec: FaultSpec) -> None:
        # One-shot consumed by the next op of the targeted session ("" =
        # whichever session checks first).
        self._arm_oneshot(SITE_CLIENT_SESSION, spec.target or "", spec)
        self._log("arm", spec.kind, spec.target or "*")

    def _apply_media_aging(self, spec: FaultSpec) -> None:
        # Environmental excursion: dump extra simulated years of media
        # decay on ONE bound aging clock (preservation campaigns bind
        # one clock per rack).  Racks live in different environments, so
        # a heat/humidity epoch hits one of them — never all replicas at
        # once; that independence is exactly what cross-rack anti-entropy
        # repair depends on.  Without a clock there is nothing to age.
        years = float(spec.detail.get("years", DEFAULT_AGING_SHOCK_YEARS))
        if not self._aging_clocks:
            self._log("skip", spec.kind, "-")
            return
        if spec.target is not None:
            index = int(spec.target) % len(self._aging_clocks)
        else:
            index = self.rng.integers(0, len(self._aging_clocks))
        newly_bad = self._aging_clocks[index].shock(years)
        self._log(
            "apply",
            spec.kind,
            f"rack-{index}",
            years=years,
            sectors=newly_bad,
        )

    def _apply_rack_loss(self, spec: FaultSpec) -> None:
        # One fleet rack goes away.  destroy=True (the default) loses its
        # shards and wakes the recovery manager; destroy=False is a plain
        # outage, restored after ``duration`` seconds when one is given.
        store = self._fleet
        if store is None:
            self._log("skip", spec.kind, spec.target or "-")
            return
        destroy = bool(spec.detail.get("destroy", True))
        target = spec.target
        if target is None:
            up = sorted(
                rack_id
                for rack_id, rack in store.racks.items()
                if rack.up
            )
            if not up:
                self._log("skip", spec.kind, "-")
                return
            target = self.rng.choice(up)
        lost = store.fail_rack(target, destroy=destroy)
        self._log(
            "apply", spec.kind, target,
            destroyed=destroy, shards_lost=lost, duration=spec.duration,
        )
        if not destroy and spec.duration > 0:
            self.engine.call_later(
                spec.duration, lambda: store.restore_rack(target)
            )

    def _apply_site_loss(self, spec: FaultSpec) -> None:
        # A whole fleet site (fire/flood): every rack in it at once.
        store = self._fleet
        if store is None:
            self._log("skip", spec.kind, spec.target or "-")
            return
        destroy = bool(spec.detail.get("destroy", True))
        target = spec.target
        if target is None:
            sites = sorted(
                {rack.site for rack in store.racks.values() if rack.up}
            )
            if not sites:
                self._log("skip", spec.kind, "-")
                return
            target = self.rng.choice(sites)
        lost = store.fail_site(target, destroy=destroy)
        self._log(
            "apply", spec.kind, target,
            destroyed=destroy, shards_lost=lost, duration=spec.duration,
        )
        if not destroy and spec.duration > 0:
            self.engine.call_later(
                spec.duration, lambda: store.restore_site(target)
            )

    def _apply_crash(self, spec: FaultSpec) -> None:
        ros = self._require_ros()
        downtime = spec.duration or DEFAULT_CRASH_DOWNTIME
        self._log("apply", spec.kind, "olfs", duration=downtime)
        self.engine.spawn(
            ros.crash_restart(downtime), name="fault-crash-restart"
        )

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _target(self, target) -> Optional[str]:
        """The key ``target`` matches armed faults by: a string is itself;
        a drive is its id when it is the bound rack's (or no rack is
        bound), else None, which only any-target faults match."""
        if isinstance(target, str):
            return target
        if self._ros is None or target in self._drives:
            return target.drive_id
        return None

    def _require_ros(self):
        if self._ros is None:
            raise RuntimeError(
                "FaultInjector.bind(ros) required for applied faults"
            )
        return self._ros

    def _pick_drive_id(self) -> str:
        ros = self._require_ros()
        drive_ids = sorted(
            drive.drive_id
            for drive_set in ros.mech.drive_sets
            for drive in drive_set.drives
        )
        return self.rng.choice(drive_ids)

    def _pick_burst_victim(self, ros, disc_id: Optional[str]):
        candidates = []
        for image_id in sorted(ros.dim.records):
            record = ros.dim.records[image_id]
            if record.state != "burned" or record.kind != "data":
                continue
            if record.disc_id is None or record.array_address is None:
                continue
            if disc_id is not None:
                if record.disc_id == disc_id:
                    return record
                continue
            if record.array_address in self._corrupted_arrays:
                continue
            candidates.append(record)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "active": self._active,
            "drivers": len(self._drivers),
            "drivers_live": sum(
                1 for process in self._drivers if not process.done
            ),
            "oneshots_armed": sum(
                len(queue) for queue in self._oneshots.values()
            ),
            "windows_open": sum(
                1
                for _site, _target, until, _spec in self._windows
                if until > self.engine.now
            ),
            "events_logged": len(self.log),
        }

    def _log(self, event: str, kind: str, target: str, **extra) -> None:
        entry = {
            "t": round(self.engine.now, 6),
            "event": event,
            "kind": kind,
            "target": target,
        }
        for key in sorted(extra):
            entry[key] = round(extra[key], 6) if isinstance(
                extra[key], float
            ) else extra[key]
        self.log.append(entry)
        # Mirror the injection journal into the flight recorder so a dump
        # interleaves faults with the transitions/retries they caused.
        # The spec's own "kind" becomes "fault_kind": the recorder keeps
        # "kind" for the event-stream taxonomy ("fault.arm", "fault.trip").
        if self.engine.recorder.enabled:
            fields = {
                key: value for key, value in entry.items() if key != "t"
            }
            fields["fault_kind"] = fields.pop("kind")
            self.engine.recorder.record("fault." + fields.pop("event"),
                                        **fields)
