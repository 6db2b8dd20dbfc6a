"""Telemetry: periodic sampling of simulation state into time series.

Benchmarks and examples often need "X over simulated time" (Figure 9's
aggregate-throughput curve, buffer occupancy, queue depths).  A
:class:`Sampler` runs as a background process, evaluating named probe
callables on a fixed period and accumulating ``(t, value)`` series until
stopped or until its horizon passes.

Stopping is immediate: :meth:`Sampler.stop` interrupts the background
process at its current suspension point instead of waiting for the next
tick, so no sample is ever collected after ``stop()`` returns.

The whole-run aggregate types (:class:`MetricsRegistry` and its
counters/gauges/le-histograms, including :meth:`Histogram.quantile` for
percentile reports) are re-exported here alongside the sampler so
telemetry consumers import from one place.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Delay, Engine, Interrupt
from repro.sim.tracing import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sampler",
]


class Sampler:
    """Samples named probes every ``period`` seconds of simulated time.

    ``on_tick(now)``, if given, is invoked after each round of probe
    evaluation — observers such as :class:`repro.obs.health.SystemMonitor`
    use it to take richer snapshots on the same cadence without a second
    background process.
    """

    def __init__(
        self,
        engine: Engine,
        period: float,
        probes: dict[str, Callable[[], float]],
        horizon: Optional[float] = None,
        on_tick: Optional[Callable[[float], None]] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if not probes and on_tick is None:
            raise ValueError("need at least one probe")
        self.engine = engine
        self.period = float(period)
        self.probes = dict(probes)
        self.horizon = horizon
        self.on_tick = on_tick
        self.series: dict[str, list[tuple[float, float]]] = {
            name: [] for name in probes
        }
        self._stopped = False
        self._process = None

    # ------------------------------------------------------------------
    def start(self) -> "Sampler":
        """Start (or restart after ``stop``) the sampling process."""
        if self._process is not None and not self._process.done:
            return self
        self._stopped = False
        self._process = self.engine.spawn(self._run(), name="sampler")
        return self

    def stop(self) -> None:
        """Stop sampling immediately.

        Interrupts the background process at its current ``Delay`` so the
        stop takes effect *now*, not at the next tick; a sampler stopped
        before its first tick records zero samples.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        process = self._process
        if (
            process is not None
            and not process.done
            and process._suspension is not None
        ):
            process.interrupt("sampler-stop")

    def _run(self) -> Generator:
        deadline = (
            self.engine.now + self.horizon if self.horizon is not None else None
        )
        try:
            while not self._stopped:
                yield Delay(self.period)
                # Re-check after the delay: stop() from a running process
                # (no suspension to interrupt) must still drop this tick.
                if self._stopped:
                    return
                if deadline is not None and self.engine.now > deadline:
                    return
                now = self.engine.now
                for name, probe in self.probes.items():
                    self.series[name].append((now, float(probe())))
                if self.on_tick is not None:
                    self.on_tick(now)
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # Series analysis helpers
    # ------------------------------------------------------------------
    def values(self, name: str) -> list[float]:
        return [value for _, value in self.series[name]]

    def peak(self, name: str) -> float:
        values = self.values(name)
        return max(values) if values else 0.0

    def mean(self, name: str) -> float:
        values = self.values(name)
        return sum(values) / len(values) if values else 0.0
