"""The robotic arm: vertical motion, tray hooking, disc separation.

The arm (§3.2) moves only vertically.  It locks a tray's outer hook so the
roller's rotation fans the tray out, lifts the 12-disc stack above the drive
set, then separates discs one by one — top drive first — into the opened
drive trays.  Unloading reverses the process.
"""

from __future__ import annotations

from repro.errors import MechanicsError
from repro.mechanics import geometry
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.media.disc import OpticalDisc
from repro.media.tray import Tray

#: The arm parks at the uppermost layer (§5.2 measurement note).
PARK_LAYER = 0


class RoboticArm:
    """One vertical-travel robotic arm serving one roller."""

    def __init__(self, arm_id: int = 0):
        self.arm_id = arm_id
        self.geometry = geometry.DEFAULT_GEOMETRY
        self.timings = DEFAULT_TIMINGS
        self.layer = PARK_LAYER
        self.holding: list[OpticalDisc] = []
        self.hooked = False
        self.travel_seconds = 0.0
        self.moves = 0

    # ------------------------------------------------------------------
    # Motions.  Each checks that it can run and returns ``(seconds, span
    # name, span tag value or None, commit)``: the PLC sleeps ``seconds``
    # inside the span (none when its name is None; the PLC builds its tags
    # only when tracing), then ``commit()`` lands the state
    # change and returns the motion's result.  ``None`` means there is
    # nothing to move; a refusal raises before anything changes.
    # ------------------------------------------------------------------
    def move_to_layer(self, layer: int):
        """Travel vertically to ``layer``; slower when carrying a stack."""
        if not (0 <= layer < self.geometry.layers):
            raise MechanicsError(f"layer {layer} out of range")
        if layer == self.layer:
            return None
        distance = abs(
            self.geometry.layer_fraction(layer)
            - self.geometry.layer_fraction(self.layer)
        )
        seconds = self.timings.travel(distance, loaded=bool(self.holding))

        def arrive():
            self.travel_seconds += seconds
            self.moves += 1
            self.layer = layer

        return seconds, "arm.move", layer, arrive

    def hook_tray(self):
        """Lock the outer hook of the tray facing the arm."""
        if self.hooked:
            raise MechanicsError("arm already hooked to a tray")
        return self.timings.engage, "arm.hook", None, self._hook

    def _hook(self) -> None:
        self.hooked = True

    def release_tray(self):
        if not self.hooked:
            raise MechanicsError("arm is not hooked to a tray")
        return 0.0, None, None, self._release

    def _release(self) -> None:
        self.hooked = False

    def grab_stack(self, tray: Tray):
        """Take ``tray``'s disc stack and lift it atop the drives; the
        commit returns the discs.

        The prototype charges the lift-to-drives motion at a constant time
        regardless of source layer (the layer-dependent cost shows up only
        in the approach travel — Table 3 adds ~4.5 s for the lowest layer,
        once).  The arm therefore ends this operation parked at the drive
        position (layer 0).
        """
        if self.holding:
            raise MechanicsError("arm is already holding discs")
        discs = tray.take_all()

        def lifted():
            self.holding = list(discs)
            self.layer = PARK_LAYER
            return discs

        return self.timings.lift, "arm.grab", len(discs), lifted

    def lower_stack(self, tray: Tray):
        """Lower the held stack into ``tray``, which must be taking it."""
        if not self.holding:
            raise MechanicsError("arm is not holding discs")
        tray.check_return(len(self.holding))

        def lowered():
            discs, self.holding = self.holding, []
            tray.put_back(discs)

        return self.timings.lift, "arm.lower", None, lowered

    def separate_next(self):
        """Separate the bottom disc of the held stack (for the next drive).

        The ROS arm places discs from the bottom of the stack into drives
        from the top down (§3.2).  The commit returns the separated disc.
        """
        if not self.holding:
            raise MechanicsError("no discs left to separate")
        seconds = self.timings.separate_one
        return seconds, "arm.separate", None, self._separate

    def _separate(self) -> OpticalDisc:
        return self.holding.pop(0)

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
