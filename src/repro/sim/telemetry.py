"""Telemetry: a periodic tick on the simulated clock.

A :class:`Sampler` runs as a background process that calls
``on_tick(now)`` every ``period`` seconds of simulated time until
stopped or until its horizon passes.  Observers record what they see
into a :class:`~repro.tsdb.TimeSeriesStore` of their own (the rack's
:class:`~repro.obs.health.SystemMonitor`, the fleet's telemetry agents)
or evaluate rules on it (the fleet supervisor).

Stopping is immediate: :meth:`Sampler.stop` interrupts the background
process at its current suspension point instead of waiting for the next
tick, so no tick ever runs after ``stop()`` returns.  An ``on_tick`` that
raises ends the sampling, and ``stop()`` re-raises its error, so a broken
probe fails the run that stops its sampler instead of going quiet.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Delay, Engine, Interrupt


class Sampler:
    """Calls ``on_tick(now)`` every ``period`` seconds of simulated time."""

    def __init__(
        self,
        engine: Engine,
        period: float,
        on_tick: Callable[[float], None],
        horizon: Optional[float] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.engine = engine
        self.period = float(period)
        self.on_tick = on_tick
        self.horizon = horizon
        self._stopped = False
        self._process = None

    # ------------------------------------------------------------------
    def start(self) -> "Sampler":
        """Start (or restart after ``stop``) the ticking process."""
        if self._process is not None and not self._process.done:
            return self
        self._stopped = False
        self._process = self.engine.spawn(self._run(), name="sampler")
        return self

    def stop(self) -> None:
        """Stop ticking immediately.

        Interrupts the background process at its current ``Delay`` so the
        stop takes effect *now*, not at the next tick; a sampler stopped
        before its first tick never ticks.  Raises what ``on_tick`` raised
        if a tick ended the sampling.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        process = self._process
        if process is None:
            return
        if not process.done:
            if process._suspension is not None:
                process.interrupt("sampler-stop")
        elif process.error is not None:
            raise process.error

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
                self.on_tick(self.engine.now)
        except Interrupt:
            return
