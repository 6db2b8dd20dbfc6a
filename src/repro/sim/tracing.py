"""Span-based tracing and metrics on the simulated clock.

The paper's whole evaluation is latency decomposition — Table 1's read-path
breakdown, Figure 7's per-op averages, Table 3's mechanical phases — so the
reproduction carries a cross-layer tracer: every instrumented operation
(POSIX call, FTM fetch, MC arbitration, PLC instruction, roller/arm motion,
drive phase) opens a :class:`Span` on the simulated clock, and nested
operations become child spans.  A cold read from the roller therefore yields
one span tree covering cache miss -> fetch -> mechanical load -> drive
mount/read, with per-phase durations that sum to the end-to-end latency.

Context propagation follows the engine's process model: each
:class:`~repro.sim.engine.Process` carries its own span stack, and a process
spawned while a span is open inherits that span as its parent — so
background work (cache fills, burn tasks) attaches under the operation that
started it even though the engine interleaves processes arbitrarily.

Span ids are drawn from a :class:`~repro.sim.rng.DeterministicRNG`
sub-stream, so identically-seeded runs export byte-identical traces (the
determinism regression test locks this in).  Tracing is disabled by default:
every engine starts with the shared :data:`NULL_TRACER`, whose ``span()``
returns a no-op context manager.

Alongside spans, :class:`MetricsRegistry` offers counters, gauges and
fixed-bound histograms for whole-run aggregates (cache hit rates, per-phase
latency distributions, stream-scheduler traffic).

Exporters: :func:`to_chrome_trace` emits Chrome trace-event JSON (load it
in ``chrome://tracing`` / Perfetto), :func:`to_flat_json` a flat span list.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from repro.sim.rng import DeterministicRNG


@dataclass
class Span:
    """One timed operation: identity, interval, tags and tree linkage."""

    span_id: str
    parent_id: Optional[str]
    name: str
    category: str
    start: float
    end: Optional[float] = None
    tags: dict = field(default_factory=dict)
    #: name of the simulation process the span ran in ("" = outside any)
    process: str = ""
    #: True for zero-duration point events (cache hits, interrupts)
    instant: bool = False

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds of simulated time; open spans report 0 so far."""
        return (self.end - self.start) if self.end is not None else 0.0

    def tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self


class _SpanScope:
    """Context manager that closes its span and pops the right stack."""

    __slots__ = ("_tracer", "span", "_stack")

    def __init__(self, tracer: "Tracer", span: Span, stack: list):
        self._tracer = tracer
        self.span = span
        self._stack = stack

    def tag(self, key: str, value: Any) -> "_SpanScope":
        self.span.tag(key, value)
        return self

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.span.tags.setdefault("error", type(exc).__name__)
        if self._stack and self._stack[-1] is self.span:
            self._stack.pop()
        else:  # misnested close: drop by identity, keep the rest intact
            for index, open_span in enumerate(self._stack):
                if open_span is self.span:
                    del self._stack[index]
                    break
        self.span.end = self._tracer.engine.now
        return False


class _NullSpan:
    """Shared no-op span: absorbs tags, nests, never records anything."""

    __slots__ = ()

    @property
    def tags(self) -> dict:
        return {}

    def tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: the default on every engine (zero overhead)."""

    __slots__ = ()
    enabled = False

    def span(self, name, category="", tags=None, at=None):
        return _NULL_SPAN

    def event(self, name, category="", tags=None):
        return None

    def active_span(self):
        return None


#: The shared disabled tracer every :class:`~repro.sim.engine.Engine` starts with.
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans against an engine's simulated clock.

    ``Tracer(engine, seed).install()`` attaches it to an engine, and
    every instrumented layer of every rack on that engine reads
    ``engine.trace``.
    """

    enabled = True

    def __init__(self, engine, seed: int = 0x7ACE):
        self.engine = engine
        self.seed = int(seed)
        self.spans: list[Span] = []
        self._rng = DeterministicRNG(seed).child("span-ids")
        #: span stack for code running outside any simulation process
        self._global_stack: list[Span] = []

    def install(self) -> "Tracer":
        """Attach to the engine so instrumented sites record here."""
        self.engine.trace = self
        return self

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def _context(self) -> tuple[list, Optional[object]]:
        process = self.engine.current_process
        if process is None:
            return self._global_stack, None
        if process._span_stack is None:
            process._span_stack = []
        return process._span_stack, process

    def active_span(self) -> Optional[Span]:
        """The span new work should attach under, honouring process context."""
        stack, process = self._context()
        if stack:
            return stack[-1]
        if process is not None:
            return process.span_parent
        return None

    def _new_id(self) -> str:
        return f"{self._rng.integers(0, 1 << 62):016x}"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "",
        tags: Optional[dict] = None,
        at: Optional[float] = None,
    ) -> _SpanScope:
        """Open a span; use as ``with tracer.span("drive.read") as sp:``.

        ``at`` starts it at an instant the caller computed ahead of the
        clock (a PLC command opens its span at the arrival it will sleep
        through); the span still nests where it is opened.
        """
        stack, process = self._context()
        parent = self.active_span()
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start=self.engine.now if at is None else at,
            tags=dict(tags) if tags else {},
            process=getattr(process, "name", ""),
        )
        self.spans.append(span)
        stack.append(span)
        return _SpanScope(self, span, stack)

    def event(
        self,
        name: str,
        category: str = "",
        tags: Optional[dict] = None,
    ) -> Span:
        """Record a zero-duration point event under the active span."""
        _, process = self._context()
        parent = self.active_span()
        now = self.engine.now
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start=now,
            end=now,
            tags=dict(tags) if tags else {},
            process=getattr(process, "name", ""),
            instant=True,
        )
        self.spans.append(span)
        return span

    def clear(self) -> None:
        """Drop recorded spans (open scopes keep closing harmlessly)."""
        self.spans = []

    # ------------------------------------------------------------------
    # Tree queries
    # ------------------------------------------------------------------
    def find(self, name: Optional[str] = None) -> list[Span]:
        return [
            span for span in self.spans if name is None or span.name == name
        ]

    def roots(self) -> list[Span]:
        ids = {span.span_id for span in self.spans}
        return [
            span
            for span in self.spans
            if span.parent_id is None or span.parent_id not in ids
        ]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def render_tree(self, span: Span, indent: int = 0) -> str:
        """Human-readable indented tree (the CLI's trace summary)."""
        line = (
            f"{'  ' * indent}{span.name:<28s} "
            f"{span.duration:>12.6f} s"
        )
        if span.tags:
            pairs = ", ".join(
                f"{key}={value}" for key, value in sorted(span.tags.items())
            )
            line += f"  [{pairs}]"
        lines = [line]
        for child in self.children_of(span):
            lines.append(self.render_tree(child, indent + 1))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _span_rows(spans: Iterable[Span]) -> list[dict]:
    return [
        {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "category": span.category,
            "start": span.start,
            "end": span.end,
            "duration": span.duration,
            "process": span.process,
            "instant": span.instant,
            "tags": span.tags,
        }
        for span in spans
    ]


def to_flat_json(tracer: Tracer) -> str:
    """Flat span list as deterministic JSON (one object per span)."""
    return json.dumps(
        _span_rows(tracer.spans), sort_keys=True, separators=(",", ":")
    )


def to_chrome_trace(tracer: Tracer) -> str:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Finished spans become complete ("X") events, instants become "i"
    events; open spans export with zero duration and an ``unfinished``
    arg.  Timestamps are microseconds of simulated time.
    """
    tids: dict[str, int] = {}
    events = []
    for span in tracer.spans:
        tid = tids.setdefault(span.process or "main", len(tids))
        args = dict(span.tags)
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if not span.finished and not span.instant:
            args["unfinished"] = True
        event = {
            "name": span.name,
            "cat": span.category or "sim",
            "ts": round(span.start * 1e6, 3),
            "pid": 0,
            "tid": tid,
            "id": span.span_id,
            "args": args,
        }
        if span.instant:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(span.duration * 1e6, 3)
        events.append(event)
    for process_name, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": process_name},
            }
        )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        sort_keys=True,
        separators=(",", ":"),
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, buffer occupancy)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound histogram with Prometheus-style ``le`` buckets.

    ``observe(v)`` lands in the first bucket whose bound satisfies
    ``v <= bound``; values above every bound land in the overflow bucket.
    Bucket counts live in a preallocated ``int64`` ndarray.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Iterable[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left(bounds, v) is the first index with v <= bounds[i] —
        # the same bucket the classic first-bound-that-fits scan picks,
        # with values above every bound landing at len(bounds): overflow.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        Prometheus-style ``histogram_quantile``: find the bucket the
        target rank falls in and interpolate linearly between its edges
        (the first finite bucket's lower edge is 0 when its bound is
        positive).  Edge cases: an empty histogram reports 0.0, and a
        rank landing in the overflow (+Inf) bucket reports the highest
        finite bound — the estimate saturates rather than invents a tail.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        counts = self.counts
        for index, bound in enumerate(self.bounds):
            in_bucket = int(counts[index])
            if in_bucket and cumulative + in_bucket >= rank:
                if index == 0:
                    lower = 0.0 if bound > 0 else bound
                else:
                    lower = self.bounds[index - 1]
                fraction = (rank - cumulative) / in_bucket
                return lower + (bound - lower) * fraction
            cumulative += in_bucket
        return self.bounds[-1]

    def buckets(self) -> dict[str, int]:
        counts = self.counts
        out = {
            f"le_{bound:g}": int(counts[index])
            for index, bound in enumerate(self.bounds)
        }
        out["inf"] = int(counts[-1])
        return out


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create semantics."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: Iterable[float]) -> Histogram:
        histogram = self._get(name, Histogram, lambda: Histogram(name, bounds))
        if histogram.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return histogram

    def snapshot(self) -> dict:
        """Deterministic dict of every metric's current state."""
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "buckets": metric.buckets(),
                }
            else:
                out[name] = metric.value
        return out
