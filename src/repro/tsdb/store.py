"""Deterministic in-simulation time-series store.

The fleet telemetry pipeline needs a place to put ``(sim_time, labels,
value)`` points that behaves like a real TSDB — bounded memory,
retention windows, downsampling — while staying a pure function of the
appended points so campaign reports are byte-reproducible per seed.
Everything here runs on the *simulated* clock supplied by callers; the
store itself never reads wall clocks, never draws random numbers and
never touches the engine.

Storage model (mirrors the ReductStore shape from the related demo):

* A **series** is one metric name plus a label set (``rack=s0.r03``).
  Appends must be time-ordered *per series* — each telemetry agent owns
  its series and samples on a monotonic clock, so out-of-order points
  are a bug, not a case to paper over.
* Raw points land in fixed-capacity **shards** (append-only arrays).
  The store caps the total live shard count; allocating past the cap
  evicts the oldest live shard in **creation order** — deterministic,
  and creation order equals time order within any one series.
* Every append also feeds per-series **rollup levels** (1-minute and
  1-hour by default).  A rollup bucket accumulates count/sum/min/max
  and is finalized when a point lands past its right edge; a point
  exactly on a boundary opens the *next* bucket (buckets are
  ``[start, start + resolution)``).  Finalized buckets keep
  ``mean``/``max``/``min``/``count`` and are themselves bounded per
  level, oldest first.
* Optional retention windows drop raw shards and finalized buckets
  whose data has aged past the window, measured against the appending
  series' own newest timestamp (again: deterministic, no wall clock).

``flush()`` finalizes every open bucket — call it once, when a campaign
ends, so reports see the trailing partial windows.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Optional

#: default raw points per shard
DEFAULT_SHARD_POINTS = 256
#: default store-wide live shard cap
DEFAULT_MAX_SHARDS = 4096
#: default rollup levels: (resolution seconds, max finalized buckets)
DEFAULT_ROLLUPS = ((60.0, 1024), (3600.0, 1024))

LabelItems = tuple[tuple[str, str], ...]


def canonical_labels(labels: Optional[dict]) -> LabelItems:
    """Sorted, stringified label items — the dict's canonical form."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Shard:
    """One fixed-capacity run of raw points."""

    __slots__ = ("seq", "capacity", "times", "values")

    def __init__(self, seq: int, capacity: int):
        self.seq = seq
        self.capacity = capacity
        self.times: list[float] = []
        self.values: list[float] = []

    @property
    def full(self) -> bool:
        return len(self.times) >= self.capacity

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)


class _RollupLevel:
    """One downsampling resolution of one series."""

    __slots__ = ("resolution", "capacity", "buckets", "open")

    def __init__(self, resolution: float, capacity: int):
        self.resolution = float(resolution)
        self.capacity = int(capacity)
        #: finalized buckets, oldest first
        self.buckets: deque[dict] = deque()
        #: accumulator: [start, count, sum, min, max] or None
        self.open: Optional[list] = None

    def bucket_start(self, t: float) -> float:
        return math.floor(t / self.resolution) * self.resolution

    def add(self, t: float, value: float) -> int:
        """Feed one point; returns finalized-bucket count (0 or 1)."""
        start = self.bucket_start(t)
        closed = 0
        if self.open is not None and start > self.open[0]:
            closed = self.finalize()
        if self.open is None:
            self.open = [start, 0, 0.0, value, value]
        acc = self.open
        acc[1] += 1
        acc[2] += value
        acc[3] = min(acc[3], value)
        acc[4] = max(acc[4], value)
        return closed

    def finalize(self) -> int:
        """Close the open bucket, if any; returns 1 if one closed."""
        if self.open is None:
            return 0
        start, count, total, low, high = self.open
        self.buckets.append(
            {
                "start": start,
                "count": count,
                "mean": total / count,
                "min": low,
                "max": high,
            }
        )
        self.open = None
        while len(self.buckets) > self.capacity:
            self.buckets.popleft()
        return 1

    def enforce_retention(self, newest_t: float, window_s: float) -> int:
        dropped = 0
        floor_t = newest_t - window_s
        while self.buckets and (
            self.buckets[0]["start"] + self.resolution <= floor_t
        ):
            self.buckets.popleft()
            dropped += 1
        return dropped


class Series:
    """One (name, labels) stream: raw shards plus rollup levels."""

    __slots__ = ("name", "labels", "shards", "rollups", "last_t", "points")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        rollups: Iterable[tuple[float, int]],
    ):
        self.name = name
        self.labels = labels
        self.shards: list[_Shard] = []
        self.rollups = [
            _RollupLevel(resolution, capacity)
            for resolution, capacity in rollups
        ]
        self.last_t: Optional[float] = None
        self.points = 0

    def labels_dict(self) -> dict:
        return dict(self.labels)

    # -- queries -------------------------------------------------------
    def raw_points(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> list[tuple[float, float]]:
        out = []
        for shard in self.shards:
            for t, value in zip(shard.times, shard.values):
                if t0 is not None and t < t0:
                    continue
                if t1 is not None and t > t1:
                    continue
                out.append((t, value))
        return out

    def latest(self) -> Optional[tuple[float, float]]:
        for shard in reversed(self.shards):
            if shard.times:
                return (shard.times[-1], shard.values[-1])
        return None


class TimeSeriesStore:
    """Append-only labeled time series with rollups and retention."""

    def __init__(
        self,
        shard_points: int = DEFAULT_SHARD_POINTS,
        max_shards: int = DEFAULT_MAX_SHARDS,
        rollups: Iterable[tuple[float, int]] = DEFAULT_ROLLUPS,
        raw_retention_s: Optional[float] = None,
        rollup_retention_s: Optional[float] = None,
    ):
        if shard_points <= 0:
            raise ValueError("shard_points must be positive")
        if max_shards <= 0:
            raise ValueError("max_shards must be positive")
        self.shard_points = int(shard_points)
        self.max_shards = int(max_shards)
        self.rollup_spec = tuple(
            (float(resolution), int(capacity))
            for resolution, capacity in rollups
        )
        for resolution, _capacity in self.rollup_spec:
            if resolution <= 0:
                raise ValueError("rollup resolution must be positive")
        self.raw_retention_s = raw_retention_s
        self.rollup_retention_s = rollup_retention_s
        self._series: dict[tuple[str, LabelItems], Series] = {}
        #: live shards in creation order: (shard seq, series key)
        self._shard_order: deque[tuple[int, tuple[str, LabelItems]]] = deque()
        self._shard_seq = 0
        self.stats = {
            "points": 0,
            "series": 0,
            "shards_created": 0,
            "shards_evicted": 0,
            "points_evicted": 0,
            "buckets_finalized": 0,
            "buckets_dropped": 0,
        }

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(
        self,
        name: str,
        labels: Optional[dict],
        t: float,
        value: float,
    ) -> None:
        """Append one point; per-series time must be non-decreasing."""
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = Series(name, key[1], self.rollup_spec)
            self._series[key] = series
            self.stats["series"] += 1
        t = float(t)
        value = float(value)
        if series.last_t is not None and t < series.last_t:
            raise ValueError(
                f"{name}{dict(key[1])}: time went backwards "
                f"({t} < {series.last_t})"
            )
        series.last_t = t
        if not series.shards or series.shards[-1].full:
            self._allocate_shard(key, series)
        series.shards[-1].append(t, value)
        series.points += 1
        self.stats["points"] += 1
        for level in series.rollups:
            closed = level.add(t, value)
            self.stats["buckets_finalized"] += closed
            if self.rollup_retention_s is not None:
                self.stats["buckets_dropped"] += level.enforce_retention(
                    t, self.rollup_retention_s
                )
        if self.raw_retention_s is not None:
            self._enforce_raw_retention(series, t)

    def _allocate_shard(
        self, key: tuple[str, LabelItems], series: Series
    ) -> None:
        shard = _Shard(self._shard_seq, self.shard_points)
        self._shard_seq += 1
        series.shards.append(shard)
        self._shard_order.append((shard.seq, key))
        self.stats["shards_created"] += 1
        while len(self._shard_order) > self.max_shards:
            self._evict_oldest_shard()

    def _evict_oldest_shard(self) -> None:
        _seq, victim_key = self._shard_order.popleft()
        victim = self._series[victim_key]
        evicted = victim.shards.pop(0)
        self.stats["shards_evicted"] += 1
        self.stats["points_evicted"] += len(evicted.times)

    def _enforce_raw_retention(self, series: Series, newest_t: float) -> None:
        floor_t = newest_t - self.raw_retention_s
        while (
            len(series.shards) > 1
            and series.shards[0].times
            and series.shards[0].times[-1] < floor_t
        ):
            victim = series.shards.pop(0)
            self._shard_order.remove(
                (victim.seq, (series.name, series.labels))
            )
            self.stats["shards_evicted"] += 1
            self.stats["points_evicted"] += len(victim.times)

    def flush(self) -> int:
        """Finalize every open rollup bucket (end of campaign)."""
        closed = 0
        for series in self._series.values():
            for level in series.rollups:
                closed += level.finalize()
        self.stats["buckets_finalized"] += closed
        return closed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def series(
        self, name: str, labels: Optional[dict] = None
    ) -> Optional[Series]:
        return self._series.get((name, canonical_labels(labels)))

    def select(self, name: str) -> list[Series]:
        """Every series of ``name``, in canonical label order."""
        found = [
            series
            for (series_name, _labels), series in self._series.items()
            if series_name == name
        ]
        found.sort(key=lambda series: series.labels)
        return found

    def latest(
        self, name: str, labels: Optional[dict] = None
    ) -> Optional[tuple[float, float]]:
        series = self.series(name, labels)
        return series.latest() if series is not None else None

    def buckets(
        self,
        name: str,
        labels: Optional[dict] = None,
        resolution: Optional[float] = None,
    ) -> list[dict]:
        """Finalized buckets of one series at ``resolution`` (default:
        the finest configured level)."""
        series = self.series(name, labels)
        if series is None or not series.rollups:
            return []
        if resolution is None:
            level = series.rollups[0]
        else:
            level = next(
                (
                    candidate
                    for candidate in series.rollups
                    if candidate.resolution == float(resolution)
                ),
                None,
            )
            if level is None:
                raise KeyError(f"no rollup level at {resolution}s")
        return [dict(bucket) for bucket in level.buckets]

    def rate(
        self,
        name: str,
        labels: Optional[dict] = None,
        window_s: float = 60.0,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Per-second increase of a monotonic counter over the window.

        Uses the first and last raw points inside ``[now - window_s,
        now]``; returns ``None`` with fewer than two points (no rate is
        *not* a zero rate — the caller decides what silence means).
        """
        series = self.series(name, labels)
        if series is None:
            return None
        newest = series.latest()
        if newest is None:
            return None
        end = newest[0] if now is None else float(now)
        window = series.raw_points(end - float(window_s), end)
        if len(window) < 2:
            return None
        (t0, v0), (t1, v1) = window[0], window[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def staleness(self, name: str, now: float) -> Optional[float]:
        """Seconds since the series' newest point (None: never wrote)."""
        newest = self.latest(name)
        if newest is None:
            return None
        return float(now) - newest[0]

    # ------------------------------------------------------------------
    def snapshot_stats(self) -> dict:
        """JSON-safe store statistics (deterministic, sorted keys)."""
        live_points = sum(
            series.points for series in self._series.values()
        ) - self.stats["points_evicted"]
        return {
            **{key: int(value) for key, value in sorted(self.stats.items())},
            "live_shards": len(self._shard_order),
            "live_points": int(live_points),
        }
