"""Countable resources with FIFO/priority queueing.

A :class:`Resource` models a pool of identical units (optical drives, the
robotic arm, burner slots).  Processes acquire a unit by yielding
``Acquire(resource, priority)`` and receive a :class:`Grant`; releasing the
grant wakes the next queued process.  Lower ``priority`` values are served
first; ties are FIFO.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, Process


class Grant:
    """A held unit of a resource; release exactly once."""

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource"):
        self.resource = resource
        self.released = False

    def release(self) -> None:
        if self.released:
            raise SimulationError("grant released twice")
        self.released = True
        self.resource._release_one()


class Resource:
    """A pool of ``capacity`` identical units with a priority queue."""

    def __init__(self, engine: "Engine", capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: list[tuple[int, int, "Process"]] = []
        self._sequence = itertools.count()

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------
    def _enqueue(self, process: "Process", priority: int) -> None:
        entry = (priority, next(self._sequence), process)
        heapq.heappush(self._queue, entry)
        process._suspension = self
        self._dispatch()

    def _detach(self, process: "Process") -> None:
        """Remove an interrupted process from the queue (engine callback)."""
        self._queue = [entry for entry in self._queue if entry[2] is not process]
        heapq.heapify(self._queue)

    def _release_one(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"resource {self.name!r} over-released")
        self._in_use -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        while self._queue and self._in_use < self.capacity:
            _prio, _seq, process = heapq.heappop(self._queue)
            self._in_use += 1
            self.engine._schedule_resume(process, value=Grant(self))
