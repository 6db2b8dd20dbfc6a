"""Roller geometry: layers, slots and tray addressing.

One roller (§3.2): a rotatable cylinder, height 1.67 m, diameter 433 mm,
holding 510 trays of 12 discs — 85 layers of 6 lotus-arranged trays —
for 6120 discs.  A 42U rack fits two rollers (12,240 discs) plus 1-4 sets
of 12 half-height optical drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


class TrayAddress(NamedTuple):
    """Physical position of a tray: layer (0 = uppermost) and slot."""

    layer: int
    slot: int


@dataclass(frozen=True)
class RollerGeometry:
    """Dimensions and addressing of one roller."""

    layers: int = 85
    slots_per_layer: int = 6
    discs_per_tray: int = 12
    height_m: float = 1.67
    diameter_mm: float = 433.0
    #: positioning precision of disc separation (§3.3: 0.05 mm)
    separation_precision_mm: float = 0.05

    def __post_init__(self):
        if self.layers < 1 or self.slots_per_layer < 1:
            raise ValueError("geometry must have at least one layer and slot")

    @property
    def trays(self) -> int:
        return self.layers * self.slots_per_layer

    @property
    def disc_capacity(self) -> int:
        return self.trays * self.discs_per_tray

    def validate(self, address: TrayAddress) -> None:
        if not (0 <= address.layer < self.layers):
            raise ValueError(
                f"layer {address.layer} out of range 0..{self.layers - 1}"
            )
        if not (0 <= address.slot < self.slots_per_layer):
            raise ValueError(
                f"slot {address.slot} out of range 0..{self.slots_per_layer - 1}"
            )

    def addresses(self) -> Iterator[TrayAddress]:
        """All tray addresses, top layer first (the arm parks at the top)."""
        for layer in range(self.layers):
            for slot in range(self.slots_per_layer):
                yield TrayAddress(layer, slot)

    def layer_fraction(self, layer: int) -> float:
        """Vertical position of a layer as a 0..1 fraction from the top."""
        if self.layers == 1:
            return 0.0
        return layer / (self.layers - 1)


#: The paper's production geometry.
DEFAULT_GEOMETRY = RollerGeometry()
