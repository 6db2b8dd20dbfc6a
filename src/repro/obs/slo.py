"""SLO watchdog: audit every run against the paper's published envelopes.

Each :class:`SLO` is a declarative bound on one span name — a latency
ceiling (``max_seconds``), a throughput floor (``min_bytes_per_second``,
computed from the span's ``bytes`` tag), or both — annotated with the
paper table it came from.  :data:`PAPER_SLOS` encodes the envelopes of
*ROS: A Rack-based Optical Storage System* (EuroSys'17):

* **Table 1** — the cold-read budget: a read served from a disc on the
  roller completes in 70.553 s with free drives and 155.037 s when a
  loaded array must be unloaded first.  The ``op.read`` ceiling is the
  occupied worst case plus 10 % headroom.
* **Table 3** — mechanical phases: loading an array takes 68.7 s (top
  layer) to 73.2 s (bottom); unloading 81.7–86.5 s.  Ceilings are the
  bottom-layer numbers plus 5 % headroom.
* **§5.5** — a roller rotation takes under 2 s per slot step and the
  arm's vertical travel at most ~5 s.
* **§5.4 / Fig 8** — the 25 GB CAV burn ramps 4X→12X (average 8.2X,
  Table 2), so no healthy burn ever averages below 4X; the burn-speed
  floor also holds under the shared-HBA throttle, which only binds once
  per-drive speed exceeds ~7X.
* **§5.4** — spin-up from sleep is 2 s and the VFS mount 220 ms.

The :class:`SLOWatchdog` evaluates finished spans incrementally (a cursor
into ``tracer.spans``), so a :class:`~repro.obs.health.SystemMonitor` can
poll it live on every sampling tick without rescanning the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro import units
from repro.sim.tracing import Span, Tracer


@dataclass(frozen=True)
class SLO:
    """A declarative service-level objective over one span name."""

    name: str
    span_name: str
    max_seconds: Optional[float] = None
    min_bytes_per_second: Optional[float] = None
    source: str = ""

    def check(self, span: Span) -> Optional[dict]:
        """Return a violation dict if ``span`` breaks this SLO, else None."""
        if span.name != self.span_name or not span.finished or span.instant:
            return None
        duration = span.duration
        if self.max_seconds is not None and duration > self.max_seconds:
            return self._violation(
                span,
                f"duration {duration:.3f}s > budget {self.max_seconds:.3f}s",
            )
        if self.min_bytes_per_second is not None:
            # Interrupted burns commit a partial track: the bytes tag holds
            # the *requested* size, so the rate is meaningless — skip them.
            if span.tags.get("interrupted"):
                return None
            nbytes = span.tags.get("bytes")
            if nbytes and duration > 0:
                rate = float(nbytes) / duration
                if rate < self.min_bytes_per_second:
                    return self._violation(
                        span,
                        f"rate {rate / units.MB:.2f} MB/s < floor "
                        f"{self.min_bytes_per_second / units.MB:.2f} MB/s",
                    )
        return None

    def _violation(self, span: Span, detail: str) -> dict:
        return {
            "slo": self.name,
            "span": span.name,
            "span_id": span.span_id,
            "t": round(span.start, 6),
            "duration": round(span.duration, 6),
            "detail": detail,
            "source": self.source,
        }


#: 10 % headroom on end-to-end latencies, 5 % on single mechanical phases.
_E2E_MARGIN = 1.10
_PHASE_MARGIN = 1.05

PAPER_SLOS: tuple[SLO, ...] = (
    # A read never exceeds the occupied-drives cold path (unload + load
    # + mount + stream)
    SLO(
        name="read.cold_worst_case",
        span_name="op.read",
        max_seconds=155.037 * _E2E_MARGIN,
        source="Table 1",
    ),
    # Array load within the bottom-layer budget
    SLO(
        name="mech.load_array",
        span_name="mech.load_array",
        max_seconds=73.2 * _PHASE_MARGIN,
        source="Table 3",
    ),
    # Array unload within the bottom-layer budget
    SLO(
        name="mech.unload_array",
        span_name="mech.unload_array",
        max_seconds=86.5 * _PHASE_MARGIN,
        source="Table 3",
    ),
    # One roller rotation step takes under 2 s
    SLO(
        name="roller.rotate_step",
        span_name="roller.rotate",
        max_seconds=2.0,
        source="§5.5",
    ),
    # Arm vertical travel at most ~5 s
    SLO(
        name="arm.travel",
        span_name="arm.move",
        max_seconds=5.0,
        source="§5.5",
    ),
    # Spin-up from sleep is 2 s
    SLO(
        name="drive.spin_up",
        span_name="drive.spin_up",
        max_seconds=2.0 * _PHASE_MARGIN,
        source="§5.4",
    ),
    # VFS mount of a loaded disc is 220 ms
    SLO(
        name="drive.mount",
        span_name="drive.mount",
        max_seconds=0.220 * _E2E_MARGIN,
        source="§5.4 / Table 1",
    ),
    # A completed burn averages at least 4X (the CAV ramp's inner-radius
    # speed)
    SLO(
        name="burn.speed_floor",
        span_name="drive.burn",
        min_bytes_per_second=4.0 * units.BLU_RAY_1X,
        source="Fig 8 / Table 2",
    ),
)


#: Preservation-campaign envelopes (repro.preserve).  Scrubbing one
#: array is bounded by load + per-disc mount/seek/read + unload plus
#: repair rewrites; an anti-entropy round may cold-read every audited
#: path from both replicas (Table 1 worst case per copy).
PRESERVE_SLOS: tuple[SLO, ...] = (
    # One patrol scrub (load, verify every disc, repair, unload) stays
    # under 15 simulated minutes
    SLO(
        name="preserve.scrub_array",
        span_name="preserve.scrub_array",
        max_seconds=900.0,
        source="§4.7 / Table 3",
    ),
    # One anti-entropy round over the archive completes within a
    # simulated hour even when every read is cold
    SLO(
        name="preserve.audit_round",
        span_name="preserve.audit_round",
        max_seconds=3600.0,
        source="Table 1",
    ),
)


def evaluate(
    slos: Iterable[SLO], spans: Iterable[Span]
) -> list[dict]:
    """One-shot evaluation of ``slos`` over ``spans`` (violations only)."""
    slos = list(slos)
    violations = []
    for span in spans:
        for slo in slos:
            violation = slo.check(span)
            if violation is not None:
                violations.append(violation)
    return violations


class SLOWatchdog:
    """Incremental SLO evaluation over a tracer's growing span stream."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.slos = PAPER_SLOS
        self.violations: list[dict] = []
        self.spans_checked = 0
        #: spans before this index have been fully evaluated; spans still
        #: open at poll time are re-visited once they finish
        self._cursor = 0
        self._pending: list[Span] = []
        self._stream = tracer.spans

    def poll(self) -> list[dict]:
        """Evaluate spans finished since the last poll; returns new hits."""
        spans = self.tracer.spans
        if spans is not self._stream or self._cursor > len(spans):
            # ``Tracer.clear`` replaced the list under us (length alone
            # can't tell: the new stream may already be longer than the
            # old cursor); restart from the new stream.
            self._cursor = 0
            self._pending = []
            self._stream = spans
        fresh: list[Span] = []
        still_open: list[Span] = []
        for span in self._pending:
            (fresh if span.finished else still_open).append(span)
        while self._cursor < len(spans):
            span = spans[self._cursor]
            self._cursor += 1
            (fresh if span.finished else still_open).append(span)
        self._pending = still_open
        new = evaluate(self.slos, fresh)
        self.spans_checked += len(fresh)
        self.violations.extend(new)
        return new

    def summary(self) -> dict:
        """Deterministic per-SLO verdicts for run reports."""
        self.poll()
        by_slo = {slo.name: 0 for slo in self.slos}
        for violation in self.violations:
            by_slo[violation["slo"]] = by_slo.get(violation["slo"], 0) + 1
        return {
            "spans_checked": self.spans_checked,
            "violation_count": len(self.violations),
            "violations": list(self.violations),
            "verdicts": {
                slo.name: {
                    "ok": by_slo.get(slo.name, 0) == 0,
                    "violations": by_slo.get(slo.name, 0),
                    "source": slo.source,
                }
                for slo in self.slos
            },
        }
