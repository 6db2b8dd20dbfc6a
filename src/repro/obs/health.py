"""System health monitor: periodic deep snapshots of every subsystem.

Every major subsystem exposes ``health() -> dict`` — a cheap, read-only
snapshot of its state machine, queue depths, occupancy and fault
counters.  :class:`SystemMonitor` rides one
:class:`~repro.sim.telemetry.Sampler` tick: each tick appends four
numeric probes to the monitor's :class:`~repro.tsdb.TimeSeriesStore`
(the same store type the fleet's telemetry writes to), keeps the health
snapshot in a bounded timeline, and polls an
:class:`~repro.obs.slo.SLOWatchdog` so paper-envelope violations are
caught *while the run executes*, not in a post-hoc sweep.

The monitor is strictly an observer: probes and snapshots never yield,
draw random numbers, or mutate subsystem state, so two runs of the same
seed with and without a monitor differ only by the sampler process's
sequence numbers — and not at all when the monitor is absent (the
default), which is what keeps the chaos corpus byte-identical.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Optional

from repro.obs.slo import SLOWatchdog
from repro.sim.telemetry import Sampler
from repro.tsdb import TimeSeriesStore

#: Default sampling period (simulated seconds): fine enough to catch a
#: mechanical phase in flight, coarse enough to stay out of the way.
DEFAULT_PERIOD = 5.0

#: Bounded health-timeline length (ring, like the flight recorder).
TIMELINE_CAPACITY = 512


class SystemMonitor:
    """Aggregates subsystem ``health()`` snapshots over simulated time."""

    def __init__(self, ros, period: float = DEFAULT_PERIOD):
        self.ros = ros
        self.engine = ros.engine
        self.timeline: deque[dict] = deque(maxlen=TIMELINE_CAPACITY)
        self.watchdog: Optional[SLOWatchdog] = (
            SLOWatchdog(self.engine.trace)
            if self.engine.trace.enabled
            else None
        )
        self._finished = False
        #: monotonic event counters (gauges live in the timeline); unlike
        #: ``len(self.timeline)`` these never lose history to the ring
        self.counters = {"ticks": 0, "snapshots": 0, "slo_violations": 0}
        #: the probes' series: one raw point per probe per tick
        self.store = TimeSeriesStore()
        self.probes = {
            "cache_images": lambda: len(ros.cache),
            "burning_drives": lambda: sum(
                1 for ds in ros.mech.drive_sets if ds.is_burning
            ),
            "burn_tasks": lambda: len(ros.btm.active_tasks),
            "mech_queue": lambda: sum(
                lock.queue_length for lock in ros.mc._locks
            ),
        }
        self.sampler = Sampler(self.engine, period=period, on_tick=self._tick)

    # ------------------------------------------------------------------
    def start(self) -> "SystemMonitor":
        """Sample as the rack's one observer (``ros.monitor``)."""
        if not self._finished:
            self.ros.monitor = self
            self.sampler.start()
        return self

    def stop(self) -> None:
        self.sampler.stop()

    @contextmanager
    def paused(self):
        """Suspend sampling across a full engine drain.

        The sampler's perpetual ``Delay`` would keep a no-horizon
        ``engine.run()`` alive forever; pause it for the drain, then
        resume on the (now later) clock.
        """
        self.stop()
        try:
            yield self
        finally:
            self.start()

    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        for name, probe in self.probes.items():
            self.store.append(name, None, now, probe())
        self.counters["ticks"] += 1
        self.timeline.append(self.snapshot())
        if self.watchdog is not None:
            for violation in self.watchdog.poll():
                self.counters["slo_violations"] += 1
                if self.engine.recorder.enabled:
                    self.engine.recorder.record("slo.violation", **violation)

    def snapshot(self) -> dict:
        """One aggregated health snapshot, stamped with the clock."""
        self.counters["snapshots"] += 1
        snap = {"t": round(self.engine.now, 6)}
        snap.update(self.ros.health())
        return snap

    # ------------------------------------------------------------------
    def finish(self) -> dict:
        """Final poll + summary: call once after the run settles.

        Terminal: the sampler will not restart (``start`` and ``paused``
        become no-ops), so a drained engine stays drained.
        """
        self._finished = True
        self.stop()
        final = self.snapshot()
        slo = self.watchdog.summary() if self.watchdog is not None else None
        return {
            "samples": len(self.timeline),
            "counters": {
                key: int(val) for key, val in sorted(self.counters.items())
            },
            "final": final,
            "slo": slo,
            "series": {
                name: self._summarize(name) for name in sorted(self.probes)
            },
        }

    def _summarize(self, name: str) -> dict:
        series = self.store.series(name)
        values = [v for _t, v in series.raw_points()] if series else []
        if not values:
            return {"peak": 0.0, "mean": 0.0}
        mean = round(sum(values) / len(values), 3)
        return {"peak": max(values), "mean": mean}
