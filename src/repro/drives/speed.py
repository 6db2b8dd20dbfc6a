"""Recording-speed curves for Blu-ray burns (§5.4, Figures 8-10).

Two physical regimes:

**25 GB BD-R (Figure 8)** — the drive burns in CAV-like mode: constant
angular velocity means linear velocity (and hence data rate) grows with the
radius of the laser position.  Data is laid out from the inner radius
outward, so with progress ``p`` (fraction of bytes burned) the speed is

    v(p) = v_max * sqrt(c^2 + (1 - c^2) * p)

(the sqrt comes from cumulative data being proportional to the swept disc
area, r^2).  With ``v_max = 12X`` and ``c = 0.375`` the curve starts at
4.5X, ends at 12.0X, averages 8.25X and burns 25 GB in ~675 s — matching
the paper's measured average 8.2X / 675 s and Figure 8's 4X->12X ramp.

**100 GB BDXL (Figure 10)** — burned at constant 6X, except the drive's
fail-safe mechanism: when it detects servo-signal disturbance it drops to
4X, restoring 6X once the disturbance passes.  Dips cover ~3.4 % of the
disc, giving the measured 5.9X average and ~3775 s per disc (paper:
3757 s).  Dip placement is deterministic per disc id.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

from repro import units
from repro.media.disc import BD25, BD100, DiscType
from repro.sim.rng import DeterministicRNG

#: The 25 GB CAV ramp: outer-edge speed (X) and the inner radius as a
#: fraction of the outer one (the module docstring's ``v_max`` and ``c``).
CAV_V_MAX = 12.0
CAV_INNER_FRACTION = 0.375


class BurnSegment(NamedTuple):
    """One piecewise-constant slice of a burn: bytes at a speed multiple."""

    start_progress: float
    end_progress: float
    nbytes: float
    speed_multiple: float

    @property
    def seconds(self) -> float:
        return self.nbytes / units.bd_speed(self.speed_multiple)


#: One row of a burn table: ``(rate, seconds, nbytes, end_progress)``.
BurnRow = tuple[float, float, float, float]

#: Burn tables one curve keeps before the oldest is dropped (a 120-row
#: table is about 20 KB, so a curve's memo stays under 1.5 MB).
BURN_TABLE_MEMO_SIZE = 64


class RecordingCurve:
    """Base class: maps burn progress to an instantaneous speed multiple.

    A curve's parameters are fixed once it is built: :meth:`burn_table`
    remembers what :meth:`segments` returned.
    """

    #: total bytes this curve is defined over (the disc capacity)
    capacity: int

    def speed_multiple(self, progress: float) -> float:
        raise NotImplementedError

    def segments(
        self, nbytes: float, start_progress: float = 0.0, count: int = 120
    ) -> Iterator[BurnSegment]:
        """Split a burn of ``nbytes`` starting at ``start_progress`` into
        piecewise-constant segments (midpoint speed)."""
        if nbytes <= 0:
            return
        span = nbytes / self.capacity
        step = span / count
        for index in range(count):
            seg_start = start_progress + index * step
            seg_end = seg_start + step
            mid = (seg_start + seg_end) / 2.0
            yield BurnSegment(
                start_progress=seg_start,
                end_progress=seg_end,
                nbytes=nbytes / count,
                speed_multiple=self.speed_multiple(min(mid, 1.0)),
            )

    def burn_table(
        self, nbytes: float, start_progress: float = 0.0, count: int = 120
    ) -> tuple[BurnRow, ...]:
        """:meth:`segments` as plain rows, computed once per argument set.

        A row is ``(rate, seconds, nbytes, end_progress)`` with ``rate``
        the segment's nominal bytes/second and ``seconds`` its
        uncontended duration (``segment.seconds``).  Equal-sized images
        burned on one curve share one table; the memo keeps at most
        :data:`BURN_TABLE_MEMO_SIZE` tables, dropping the oldest.
        """
        memo = self.__dict__.setdefault("_burn_tables", {})
        key = (nbytes, start_progress, count)
        table = memo.get(key)
        if table is None:
            table = tuple(
                (
                    units.bd_speed(segment.speed_multiple),
                    segment.seconds,
                    segment.nbytes,
                    segment.end_progress,
                )
                for segment in self.segments(nbytes, start_progress, count)
            )
            if len(memo) >= BURN_TABLE_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = table
        return table

    def burn_seconds(self, nbytes: float) -> float:
        """Total burn time for ``nbytes`` from the disc's inner edge (no
        contention), by integration."""
        return sum(
            segment.seconds for segment in self.segments(nbytes, count=600)
        )

    def average_multiple(self, nbytes: float) -> float:
        seconds = self.burn_seconds(nbytes)
        return nbytes / seconds / units.BLU_RAY_1X


class ZonedCAVCurve(RecordingCurve):
    """CAV ramp used for 25 GB discs: v(p) = v_max*sqrt(c^2+(1-c^2)p)."""

    def __init__(self, capacity: int = BD25.capacity):
        self.capacity = int(capacity)

    def speed_multiple(self, progress: float) -> float:
        if not 0.0 <= progress <= 1.0:
            raise ValueError(f"progress {progress} outside [0, 1]")
        c2 = CAV_INNER_FRACTION**2
        return CAV_V_MAX * math.sqrt(c2 + (1.0 - c2) * progress)


class FailSafeCurve(RecordingCurve):
    """Constant nominal speed with fail-safe dips (100 GB BDXL burns)."""

    def __init__(
        self,
        capacity: int = BD100.capacity,
        nominal: float = 6.0,
        reduced: float = 4.0,
        dip_progress_fraction: float = 0.034,
        dip_count: int = 12,
        seed: int = 0,
    ):
        self.capacity = int(capacity)
        self.nominal = nominal
        self.reduced = reduced
        self.dips: list[tuple[float, float]] = []
        if dip_progress_fraction > 0 and dip_count > 0:
            rng = DeterministicRNG(seed).child("failsafe-dips")
            width = dip_progress_fraction / dip_count
            # Place dip centres uniformly at random, non-overlapping by
            # construction of the stratified draw.
            for index in range(dip_count):
                stratum_start = index / dip_count
                centre = stratum_start + rng.uniform(0.1, 0.9) / dip_count
                start = max(0.0, centre - width / 2)
                self.dips.append((start, min(1.0, start + width)))

    def speed_multiple(self, progress: float) -> float:
        if not 0.0 <= progress <= 1.0:
            raise ValueError(f"progress {progress} outside [0, 1]")
        for start, end in self.dips:
            if start <= progress < end:
                return self.reduced
        return self.nominal


@functools.lru_cache(maxsize=16)
def _cav_curve(capacity: int) -> ZonedCAVCurve:
    """One CAV curve per disc capacity (media types are few), so its burn
    tables are shared by every drive that burns that media."""
    return ZonedCAVCurve(capacity=capacity)


def curve_for(disc_type: DiscType, seed: int = 0) -> RecordingCurve:
    """The calibrated recording curve for a disc type."""
    if disc_type.capacity >= 100 * units.GB:
        # BDXL burns at 6X on the dedicated drive (§5.4); denser future
        # media run at their own reference speeds, fail-safe included.
        nominal = max(6.0, disc_type.reference_write_speed)
        return FailSafeCurve(
            capacity=disc_type.capacity,
            nominal=nominal,
            reduced=nominal * 2.0 / 3.0,
            seed=seed,
        )
    if disc_type.max_write_speed <= disc_type.reference_write_speed:
        # RW media: constant slow reference speed, no CAV ramp.
        return FailSafeCurve(
            capacity=disc_type.capacity,
            nominal=disc_type.reference_write_speed,
            dip_progress_fraction=0.0,
            dip_count=0,
        )
    return _cav_curve(disc_type.capacity)
