"""OLFS assembled: volumes, mechanics and the nine modules, plus a
synchronous facade.

``OLFS`` builds the whole rack (Figure 1): the SSD metadata volume, the
HDD buffer volumes with the §4.7 stream scheduler, the mechanical
subsystem, and every OLFS module, then exposes blocking convenience
methods (``write``/``read``/``stat``/...) that advance the simulated clock.
Background activity — parity generation, burning, cache fills — continues
across calls on the same clock.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Generator, Optional

from repro import units
from repro.mechanics.library import MechanicalSubsystem
from repro.olfs.bucket import WritingBucketManager
from repro.olfs.burning import BurnController
from repro.olfs.cache import ReadCache
from repro.olfs.config import OLFSConfig
from repro.olfs.fetching import FetchController
from repro.olfs.forepart import ForepartManager
from repro.olfs.images import DiscImageManager
from repro.olfs.maintenance import MaintenanceInterface
from repro.olfs.mechanical import MechanicalController
from repro.olfs.metadata import MetadataVolume
from repro.olfs.posix import OpTrace, POSIXInterface, ReadResult
from repro.olfs.recovery import RecoveryManager
from repro.sim.engine import AllOf, Delay, Engine, Wait
from repro.sim.tracing import MetricsRegistry
from repro.storage.scheduler import IOStreamScheduler
from repro.storage.volume import Volume

#: The prototype's RAID-5 buffer volumes and their measured rates (§5.3).
BUFFER_VOLUME_COUNT = 2
BUFFER_READ_RATE = 1.2 * units.GB
BUFFER_WRITE_RATE = 1.0 * units.GB
BUFFER_ACCESS_LATENCY = 0.0004

#: SSD RAID-1 metadata volume (two 240 GB SSDs, §5.1).
MV_READ_RATE = 900 * units.MB
MV_WRITE_RATE = 450 * units.MB
MV_ACCESS_LATENCY = 0.0001

#: Spindle power policy: loaded drives sleep after this many idle seconds
#: (the §5.4 sleep state; the next access pays the 2 s spin-up).
DRIVE_IDLE_SLEEP_SECONDS = 300.0

#: ``settle`` gives up resuming parked burns after this many drains.
SETTLE_MAX_ROUNDS = 50


class OLFS:
    """The Optical Library File System, fully assembled."""

    def __init__(
        self,
        config: Optional[OLFSConfig] = None,
        engine: Optional[Engine] = None,
        roller_count: int = 2,
        buffer_volume_capacity: int = 24 * units.TB,
    ):
        self.engine = engine or Engine()
        self.config = config or OLFSConfig()

        # -- observability -------------------------------------------------
        # Metrics are always on (cheap counters).  Tracers, fault
        # injectors and flight recorders attach to the engine, not the
        # rack (``Tracer(engine, seed).install()``), so every rack on one
        # engine shares them; the only observer the rack knows is its
        # :class:`~repro.obs.health.SystemMonitor`, which sets
        # ``monitor`` when it starts.
        self.metrics = MetricsRegistry()
        self.monitor = None

        # -- storage tier -------------------------------------------------
        self.mv_volume = Volume(
            self.engine,
            "mv-ssd-raid1",
            read_throughput=MV_READ_RATE,
            write_throughput=MV_WRITE_RATE,
            capacity=240 * units.GB,
            access_latency=MV_ACCESS_LATENCY,
        )
        self.buffer_volumes = [
            Volume(
                self.engine,
                f"buffer-raid5-{index}",
                read_throughput=BUFFER_READ_RATE,
                write_throughput=BUFFER_WRITE_RATE,
                capacity=buffer_volume_capacity,
                access_latency=BUFFER_ACCESS_LATENCY,
            )
            for index in range(BUFFER_VOLUME_COUNT)
        ]
        self.scheduler = IOStreamScheduler(self.buffer_volumes)
        self.scheduler.metrics = self.metrics

        # -- mechanics ------------------------------------------------------
        self.mech = MechanicalSubsystem(self.engine, roller_count=roller_count)
        for drive_set in self.mech.drive_sets:
            for drive in drive_set.drives:
                drive.idle_sleep_seconds = DRIVE_IDLE_SLEEP_SECONDS

        # -- OLFS modules ----------------------------------------------------
        self.mv = MetadataVolume(self.engine, self.mv_volume)
        self.dim = DiscImageManager(self.engine, self.config, self.scheduler)
        self.mc = MechanicalController(self.engine, self.mech, self.config)
        self.btm = BurnController(
            self.engine, self.config, self.dim, self.mc, self.scheduler
        )

        def bucket_closed(image):
            self.dim.bucket_closed(image)
            self.btm.maybe_schedule()

        from repro.storage.scheduler import StreamKind

        self.wbm = WritingBucketManager(
            self.engine,
            self.config,
            self.scheduler.volume_for(StreamKind.USER_WRITE),
            on_bucket_closed=bucket_closed,
            on_bucket_created=lambda image_id: self.dim.register_open_bucket(
                image_id
            ),
        )
        # The initial buckets were created before the callback could run.
        for bucket in self.wbm.open_buckets():
            if bucket.image_id not in self.dim.records:
                self.dim.register_open_bucket(bucket.image_id)

        self.cache = ReadCache(self.dim, self.config.read_cache_images)
        self.cache.metrics = self.metrics
        self.cache.engine = self.engine
        self.btm.cache = self.cache
        # Buffer-pressure valve: allocations on the buffer volumes may
        # evict burned cached images instead of failing.
        for buffer_volume in self.buffer_volumes:
            buffer_volume.reclaimer = self.cache.reclaim
        self.ftm = FetchController(
            self.engine,
            self.config,
            self.dim,
            self.wbm,
            self.cache,
            self.mc,
            self.scheduler,
            burn_controller=self.btm,
        )
        self.foreparts = ForepartManager(self.config, self.mv)
        self.btm.foreparts = self.foreparts
        self.pi = POSIXInterface(
            self.engine,
            self.config,
            self.mv,
            self.wbm,
            self.ftm,
            self.foreparts,
        )
        self.pi.metrics = self.metrics
        self.recovery = RecoveryManager(
            self.engine, self.config, self.mv, self.dim, self.mc, self.btm
        )
        self.mi = MaintenanceInterface(
            self.engine,
            self.config,
            self.mv,
            self.dim,
            self.mc,
            self.wbm,
            self.cache,
        )

    # ------------------------------------------------------------------
    # Health API (the system monitor's aggregation point)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Aggregated read-only health snapshot of every subsystem."""
        health = {
            "mech": self.mech.health(),
            "mc": self.mc.health(),
            "scheduler": self.scheduler.health(),
            "cache": self.cache.health(),
            "btm": self.btm.health(),
            "ftm": self.ftm.health(),
            "wbm": self.wbm.health(),
            "foreparts": self.foreparts.health(),
        }
        if self.engine.faults.enabled:
            health["faults"] = self.engine.faults.health()
        return health

    # ------------------------------------------------------------------
    # Synchronous facade (advances the simulated clock)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    def run(self, generator: Generator, name: str = ""):
        """Run any OLFS process to completion on the shared clock."""
        return self.engine.run_process(generator, name)

    def write(self, path: str, data: bytes, logical_size: Optional[int] = None) -> OpTrace:
        """Write a file through the POSIX interface (§4.3 write path)."""
        return self.run(self.pi.write_file(path, data, logical_size), "write")

    def read(self, path: str, version: Optional[int] = None) -> ReadResult:
        """Read a file; may trigger disc fetches (§4.1 read path)."""
        return self.run(self.pi.read_file(path, version), "read")

    def stat(self, path: str) -> dict:
        return self.run(self.pi.stat(path), "stat")

    def mkdir(self, path: str) -> None:
        self.run(self.pi.mkdir(path), "mkdir")

    def readdir(self, path: str) -> list[str]:
        return self.run(self.pi.readdir(path), "readdir")

    def unlink(self, path: str) -> None:
        self.run(self.pi.unlink(path), "unlink")

    def versions(self, path: str) -> list[int]:
        return self.run(self.pi.versions(path), "versions")

    # ------------------------------------------------------------------
    # Burning / background control
    # ------------------------------------------------------------------
    def flush(self, wait: bool = True) -> int:
        """Seal open buckets and burn everything pending (§4.7).

        Returns the number of burn tasks started.  With ``wait`` the call
        blocks (in simulated time) until all burns complete.
        """
        self.wbm.close_nonempty_buckets()
        tasks = self.btm.flush_pending()
        started = len(tasks)
        # Also wait for burns that auto-scheduled before this flush.
        tasks = list(self.btm.active_tasks) + [
            task for task in tasks if task not in self.btm.active_tasks
        ]
        if wait and tasks:

            def waiter() -> Generator:
                for task in tasks:
                    if not task.done_event.fired:
                        yield Wait(task.done_event)

            self.run(waiter(), "flush-wait")
        return started

    def _unmonitored(self):
        """The monitor's sampler re-arms forever, so a no-horizon drain
        would chase its ticks and never return: pause it for the drain."""
        return nullcontext() if self.monitor is None else self.monitor.paused()

    def drain_background(self) -> None:
        """Run the engine until every background process settles."""
        with self._unmonitored():
            self.engine.run()

    def settle(self) -> None:
        """Drain background work, resuming any parked burns, until idle.

        A burn parked by the §4.8 interrupt policy waits for an explicit
        resume; a bare ``drain_background`` would leave it (and the
        engine) suspended forever.  Campaigns call this instead.
        """
        with self._unmonitored():
            for _ in range(SETTLE_MAX_ROUNDS):
                self.engine.run()
                if not self.btm.interrupted_tasks:
                    break
                self.btm.resume_interrupted()

    def crash_restart(self, downtime: float = 30.0) -> Generator:
        """Crash OLFS mid-burn; restart after ``downtime`` seconds (§4.2).

        Burning arrays stop at that instant (they are woken) — the burned
        prefixes survive as POW tracks — then the rack sits dark for the
        downtime.  On restart the MV state is reloaded from its serialized
        form (it lives on the SSD RAID-1, so nothing is lost) and the
        restart joins the burns the crash stopped: each resumes in
        appending mode the instant it parks (at once if it already has),
        and the restart ends with the last of them.
        """
        crashed = []
        for task in list(self.btm.active_tasks):
            if task.state == "burning":
                task.request_interrupt()
                # a failed round reads "burning" until its retry burns
                if not task.round_over.fired:
                    crashed.append((task, task.round_over))
        yield Delay(downtime)
        self.mv.load_snapshot(self.mv.serialize_snapshot())
        if crashed:
            yield AllOf([
                self.engine.spawn(
                    self.btm.resume_when_parked(task, round_over),
                    name=f"restart-burn-{task.task_id}",
                )
                for task, round_over in crashed
            ])

    # ------------------------------------------------------------------
    # Recovery / maintenance passthroughs
    # ------------------------------------------------------------------
    def checkpoint_mv(self):
        """Burn an MV snapshot to discs (§4.2)."""
        return self.run(self.recovery.burn_mv_snapshot(), "mv-checkpoint")

    def recover_mv(self):
        """Rebuild MV from the newest on-disc snapshot (§4.2)."""
        return self.run(self.recovery.recover_mv_from_discs(), "mv-recover")

    def status(self) -> dict:
        return self.mi.status()


def small_rack(factory=OLFS, config: Optional[dict] = None, **kwargs):
    """The scaled-down rack every demo, trace, chaos, preserve and perf
    run is built on: 3+1 disc arrays, 64 KiB buckets (so burns finish in
    simulated minutes while still crossing every layer), one roller and
    200 MB buffer volumes.

    ``config`` overrides :class:`OLFSConfig` fields; the remaining
    keywords go to ``factory`` — :class:`OLFS` itself (an ``engine``),
    or a :class:`~repro.cluster.RackCluster` (``rack_count``,
    ``replicas``), which builds its own engine and each of its racks
    from the same rack keywords.  Observers attach to the returned rack's
    engine afterwards, once for all its racks: ``Tracer(engine,
    seed).install()``, ``FaultInjector(engine, plan, seed).bind(rack)
    .install().start()``, ``FlightRecorder(engine).install()``, then
    ``SystemMonitor(rack, period).start()``.
    """
    fields = {"data_discs_per_array": 3, "parity_discs_per_array": 1}
    fields.update(config or {})
    return factory(
        config=OLFSConfig(**fields).scaled_for_tests(
            bucket_capacity=64 * 1024
        ),
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
        **kwargs,
    )
