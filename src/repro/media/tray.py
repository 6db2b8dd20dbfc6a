"""Trays: the 12-disc arrays that the roller stores and the arm carries.

Each tray lives at a (layer, slot) position in a roller (85 layers x 6
lotus-arranged slots, §3.2) and holds up to 12 vertically stacked discs.
A tray-load of discs is the unit the robotic arm moves and the unit OLFS
treats as a RAID-protected *disc array*.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import MechanicsError
from repro.media.disc import OpticalDisc

#: Discs per tray (= per disc array), fixed by the mechanical design.
DISCS_PER_TRAY = 12


class Tray:
    """A tray of up to 12 discs at a fixed roller position."""

    def __init__(self, layer: int, slot: int, capacity: int = DISCS_PER_TRAY):
        self.layer = layer
        self.slot = slot
        self.address = (layer, slot)
        self.capacity = capacity
        self._discs: list[Optional[OpticalDisc]] = [None] * capacity
        #: True while the tray's discs are away in the drives.
        self.checked_out = False

    @property
    def disc_count(self) -> int:
        return sum(1 for disc in self._discs if disc is not None)

    @property
    def is_full(self) -> bool:
        return self.disc_count == self.capacity

    @property
    def is_empty(self) -> bool:
        for disc in self._discs:
            if disc is not None:
                return False
        return True

    def discs(self) -> Iterator[OpticalDisc]:
        for disc in self._discs:
            if disc is not None:
                yield disc

    def fill(self, discs: list[OpticalDisc]) -> None:
        """Populate an empty tray with a full stack of discs."""
        if not self.is_empty:
            raise MechanicsError(f"tray {self.address} is not empty")
        if len(discs) > self.capacity:
            raise MechanicsError(
                f"{len(discs)} discs exceed tray capacity {self.capacity}"
            )
        for index, disc in enumerate(discs):
            self._discs[index] = disc

    def take_all(self) -> list[OpticalDisc]:
        """Remove and return every disc (the arm fetching the stack)."""
        if self.checked_out:
            raise MechanicsError(f"tray {self.address} already checked out")
        discs = [disc for disc in self._discs if disc is not None]
        self._discs = [None] * self.capacity
        self.checked_out = True
        return discs

    def check_return(self, count: int) -> None:
        """Raise unless this tray can take back a stack of ``count``."""
        if not self.checked_out:
            raise MechanicsError(f"tray {self.address} was not checked out")
        if count > self.capacity:
            raise MechanicsError("too many discs for tray")

    def put_back(self, discs: list[OpticalDisc]) -> None:
        """Return a stack of discs fetched earlier."""
        self.check_return(len(discs))
        self.checked_out = False
        for index, disc in enumerate(discs):
            self._discs[index] = disc
