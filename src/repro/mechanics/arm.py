"""The robotic arm: vertical motion, tray hooking, disc separation.

The arm (§3.2) moves only vertically.  It locks a tray's outer hook so the
roller's rotation fans the tray out, lifts the 12-disc stack above the drive
set, then separates discs one by one — top drive first — into the opened
drive trays.  Unloading reverses the process.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import MechanicsError
from repro.mechanics.geometry import DEFAULT_GEOMETRY, RollerGeometry
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.media.disc import OpticalDisc
from repro.sim.engine import Delay, Engine
from repro.sim.landing import sleep_after

#: The arm parks at the uppermost layer (§5.2 measurement note).
PARK_LAYER = 0


class RoboticArm:
    """One vertical-travel robotic arm serving one roller."""

    def __init__(
        self,
        engine: Engine,
        arm_id: int = 0,
        geometry: RollerGeometry = DEFAULT_GEOMETRY,
    ):
        self.engine = engine
        self.arm_id = arm_id
        self.geometry = geometry
        self.timings = DEFAULT_TIMINGS
        self.layer = PARK_LAYER
        self.holding: list[OpticalDisc] = []
        self.hooked = False
        self.travel_seconds = 0.0
        self.moves = 0

    @property
    def is_loaded(self) -> bool:
        return bool(self.holding)

    # ------------------------------------------------------------------
    # Motion processes.  ``lead`` is command latency still to be spent
    # before the motion starts: one sleep covers both, and the span opens
    # where the motion starts.  A motion that refuses or has nothing to
    # move does not sleep, lead included.
    # ------------------------------------------------------------------
    def move_to_layer(self, layer: int, lead: float = 0.0) -> Generator:
        """Travel vertically to ``layer``; slower when carrying a stack."""
        if not (0 <= layer < self.geometry.layers):
            raise MechanicsError(f"layer {layer} out of range")
        if layer == self.layer:
            return
        distance = abs(
            self.geometry.layer_fraction(layer)
            - self.geometry.layer_fraction(self.layer)
        )
        seconds = self.timings.travel(distance, loaded=self.is_loaded)
        with self.engine.trace.span(
            "arm.move", "arm", {"arm_id": self.arm_id, "layer": layer},
            at=self.engine.now + lead,
        ):
            yield from sleep_after(self.engine, lead, seconds)
        self.travel_seconds += seconds
        self.moves += 1
        self.layer = layer

    def hook_tray(self, lead: float = 0.0) -> Generator:
        """Lock the outer hook of the tray facing the arm."""
        if self.hooked:
            raise MechanicsError("arm already hooked to a tray")
        with self.engine.trace.span(
            "arm.hook", "arm", {"arm_id": self.arm_id},
            at=self.engine.now + lead,
        ):
            yield from sleep_after(self.engine, lead, self.timings.engage)
        self.hooked = True

    def release_tray(self, lead: float = 0.0) -> Generator:
        if not self.hooked:
            raise MechanicsError("arm is not hooked to a tray")
        yield from sleep_after(self.engine, lead, 0.0)
        self.hooked = False

    def grab_stack(
        self, discs: list[OpticalDisc], lead: float = 0.0
    ) -> Generator:
        """Lift a fetched disc stack up to the position atop the drives.

        The prototype charges the lift-to-drives motion at a constant time
        regardless of source layer (the layer-dependent cost shows up only
        in the approach travel — Table 3 adds ~4.5 s for the lowest layer,
        once).  The arm therefore ends this operation parked at the drive
        position (layer 0).
        """
        if self.holding:
            raise MechanicsError("arm is already holding discs")
        with self.engine.trace.span(
            "arm.grab", "arm", {"arm_id": self.arm_id, "discs": len(discs)},
            at=self.engine.now + lead,
        ):
            yield from sleep_after(self.engine, lead, self.timings.lift)
        self.holding = list(discs)
        self.layer = PARK_LAYER

    def lower_stack(self, lead: float = 0.0) -> Generator:
        """Lower the held stack into the open tray; returns the discs."""
        if not self.holding:
            raise MechanicsError("arm is not holding discs")
        with self.engine.trace.span(
            "arm.lower", "arm", {"arm_id": self.arm_id},
            at=self.engine.now + lead,
        ):
            yield from sleep_after(self.engine, lead, self.timings.lift)
        discs, self.holding = self.holding, []
        return discs

    def separate_next(self, lead: float = 0.0) -> Generator:
        """Separate the bottom disc of the held stack (for the next drive).

        The ROS arm places discs from the bottom of the stack into drives
        from the top down (§3.2).  Returns the separated disc.
        """
        if not self.holding:
            raise MechanicsError("no discs left to separate")
        with self.engine.trace.span(
            "arm.separate", "arm", {"arm_id": self.arm_id},
            at=self.engine.now + lead,
        ):
            yield from sleep_after(
                self.engine, lead, self.timings.separate_one()
            )
        return self.holding.pop(0)

    def collect_next(self, disc: OpticalDisc) -> Generator:
        """Fetch one disc from an ejected drive tray onto the held stack."""
        with self.engine.trace.span(
            "arm.collect", "arm", {"arm_id": self.arm_id}
        ):
            yield Delay(self.timings.collect_one())
        self.holding.append(disc)

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "arm_id": self.arm_id,
            "layer": self.layer,
            "holding": len(self.holding),
            "hooked": self.hooked,
            "moves": self.moves,
            "travel_seconds": round(self.travel_seconds, 6),
        }
