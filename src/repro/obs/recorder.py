"""Flight recorder: a bounded ring-buffer journal of structured events.

The recorder is the post-mortem counterpart of the tracer: where spans
measure *durations*, the flight recorder journals *discrete happenings* —
drive state transitions, PLC instructions on the control channel, cache
evictions, burn/fetch retries, fault injections — into a fixed-capacity
ring buffer (:class:`collections.deque` with ``maxlen``), so a long chaos
run keeps only the most recent window but a failed invariant can dump the
events leading up to the failure as JSONL.

Installation follows the ``NULL_TRACER`` / ``NULL_FAULTS`` discipline:
``engine.recorder`` defaults to :data:`repro.sim.engine.NULL_RECORDER`,
and instrumented sites call ``engine.recorder.record(...)`` which is a
no-op until a real :class:`FlightRecorder` is attached.  The recorder
never touches the clock, the RNG, or process scheduling, so attaching it
cannot perturb a deterministic run.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional

from repro.sim.engine import Engine

#: Ring capacity: enough for the tail of a heavy chaos run while keeping a
#: dump readable.
CAPACITY = 4096


class FlightRecorder:
    """Bounded journal of ``{"t", "kind", ...fields}`` event dicts."""

    enabled = True

    def __init__(self, engine: Engine):
        self.engine = engine
        self.capacity = CAPACITY
        self._events: deque[dict] = deque(maxlen=self.capacity)
        #: total events ever recorded (including ones evicted by the ring)
        self.recorded = 0

    def install(self) -> "FlightRecorder":
        """Attach to the engine so instrumented sites journal here."""
        self.engine.recorder = self
        return self

    def record(self, kind: str, at: Optional[float] = None, **fields) -> None:
        """Journal one event, stamped with the simulated clock (or with
        ``at``, an instant the caller computed ahead of it)."""
        self.recorded += 1
        now = self.engine.now if at is None else at
        event = {"t": round(now, 6), "kind": kind}
        event.update(fields)
        self._events.append(event)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring (recorded minus retained)."""
        return self.recorded - len(self._events)

    def events(self, kind: Optional[str] = None) -> list[dict]:
        """Retained events in order; optionally filtered by ``kind``.

        ``kind`` matches exactly, or as a dotted prefix ("drive" matches
        "drive.transition" and "drive.retry").
        """
        if kind is None:
            return list(self._events)
        prefix = kind + "."
        return [
            event
            for event in self._events
            if event["kind"] == kind or event["kind"].startswith(prefix)
        ]

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All retained events as deterministic JSON Lines."""
        return "\n".join(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in self._events
        )

    def dump(self, path: str) -> int:
        """Write the journal to ``path`` as JSONL; returns event count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return len(self._events)
