"""Calibrated per-phase mechanical timings.

The paper reports composite latencies (Table 3: load 68.7/73.2 s, unload
81.7/86.5 s for uppermost/lowest layers) and a few component facts: roller
rotation "less than 2 seconds", vertical arm travel "up to 5 seconds",
separating 12 discs into drives "almost 61 seconds", fetching them back
"74 seconds" (§5.5).  The per-phase constants below are the inputs of the
model, chosen so the composed operations land on the published numbers:

    load(layer)   = rotate + fan_out + travel_empty(layer) + engage
                    + lift + fan_in + separate
                  = 1.9 + 1.5 + 4.5*f + 1.0 + 1.8 + 1.5 + 61.0
                  = 68.7 + 4.5*f           (f = layer fraction, 0..1)

    unload(layer) = collect + rotate + fan_out + travel_loaded(layer)
                    + engage + lower + fan_in
                  = 74.0 + 1.9 + 1.5 + 4.8*f + 1.0 + 1.8 + 1.5
                  = 81.7 + 4.8*f

A loaded arm travels slightly slower than an empty one (4.8 s vs 4.5 s full
stroke), matching the ~5 s lowest-layer penalty on both paths.

``parallel_scheduling`` models the §3.2 observation that overlapping roller
rotation, tray fan-in and drive-tray actuation with arm motion "can save up
to almost 10 seconds" per load/unload pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class MechanicalTimings:
    """Per-phase delays in seconds; see module docstring for calibration."""

    rotate: float = 1.9  # reposition roller to a slot (<2 s, §5.5)
    fan_out: float = 1.5  # tray fans out of the roller
    fan_in: float = 1.5  # tray fans back in
    engage: float = 1.0  # arm locks/unlocks the tray hook
    lift: float = 1.8  # raise stack above drives / lower into tray
    separate_all: float = 61.0  # place 12 discs into 12 drives, one by one
    collect_all: float = 74.0  # fetch 12 discs from drives, one by one
    travel_empty_full: float = 4.5  # arm full stroke, not carrying discs
    travel_loaded_full: float = 4.8  # arm full stroke, carrying a stack
    #: overlap savings when roller/arm/drive motions are pipelined (§3.2)
    parallel_save_load: float = 4.4
    parallel_save_unload: float = 5.3

    def travel(self, layer_fraction: float, loaded: bool) -> float:
        """Vertical travel time to a layer at ``layer_fraction`` from top."""
        full = self.travel_loaded_full if loaded else self.travel_empty_full
        return full * layer_fraction

    @cached_property
    def separate_one(self) -> float:
        """Time to separate a single disc from the stack into one drive."""
        return self.separate_all / 12.0

    @cached_property
    def collect_one(self) -> float:
        """Time to fetch a single disc from one drive back onto the stack."""
        return self.collect_all / 12.0

    def load_total(
        self, layer_fraction: float, parallel: bool = False
    ) -> float:
        """Composite tray-to-drives load time (Table 3, row 'loading')."""
        total = (
            self.rotate
            + self.fan_out
            + self.travel(layer_fraction, loaded=False)
            + self.engage
            + self.lift
            + self.fan_in
            + self.separate_all
        )
        if parallel:
            total -= min(self.parallel_save_load, total - self.separate_all)
        return total

    def unload_total(
        self, layer_fraction: float, parallel: bool = False
    ) -> float:
        """Composite drives-to-tray unload time (Table 3, row 'unloading')."""
        total = (
            self.collect_all
            + self.rotate
            + self.fan_out
            + self.travel(layer_fraction, loaded=True)
            + self.engage
            + self.lift
            + self.fan_in
        )
        if parallel:
            total -= min(self.parallel_save_unload, total - self.collect_all)
        return total


#: Timings calibrated to the paper's prototype.
DEFAULT_TIMINGS = MechanicalTimings()
