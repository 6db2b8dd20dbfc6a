"""The rotatable roller holding 510 trays of discs.

The roller's only degree of freedom is rotation: it turns (in either
direction, §3.2) to bring a tray slot in front of the robotic arm.  Tray
fan-out/fan-in are cooperative motions between the roller and the arm hook;
here they are modelled as timed roller operations with sensor feedback.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import MechanicsError
from repro.mechanics import geometry
from repro.mechanics.geometry import TrayAddress
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.media.disc import OpticalDisc, BD25
from repro.media.tray import Tray

#: The ids :meth:`Roller.populate_blank` gives discs name their home tray.
_POPULATED_DISC_ID = re.compile(r"r\d+-l(\d+)-s(\d+)-d\d+")


def home_of_disc(disc_id: str) -> Optional[TrayAddress]:
    """Parse the home tray out of a ``populate_blank`` disc id."""
    match = _POPULATED_DISC_ID.fullmatch(disc_id)
    if match is None:
        return None
    return TrayAddress(int(match.group(1)), int(match.group(2)))


class Roller:
    """One rotatable cylinder of trays plus its rotation state."""

    def __init__(self, roller_id: int = 0):
        self.roller_id = roller_id
        self.geometry = geometry.DEFAULT_GEOMETRY
        self.timings = DEFAULT_TIMINGS
        self.trays: dict[TrayAddress, Tray] = {
            address: Tray(
                address.layer, address.slot, self.geometry.discs_per_tray
            )
            for address in self.geometry.addresses()
        }
        #: which slot column currently faces the arm
        self.facing_slot = 0
        #: fan-in leaves the roller in a mechanical detent slightly off
        #: angle, so every array operation begins with a short alignment
        #: rotation (<2 s, §5.5) even when the slot has not changed.
        self.aligned = False
        self.rotation_count = 0
        self.rotation_seconds = 0.0
        self._fanned_out: Optional[TrayAddress] = None

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def tray_at(self, address: TrayAddress) -> Tray:
        self.geometry.validate(address)
        return self.trays[address]

    def populate_blank(self) -> int:
        """Fill every tray with blank BD-25 discs; returns the disc count."""
        count = 0
        for address, tray in self.trays.items():
            if not tray.is_empty:
                continue
            discs = [
                OpticalDisc(
                    disc_id=(
                        f"r{self.roller_id}-l{address.layer:02d}"
                        f"-s{address.slot}-d{position:02d}"
                    ),
                    disc_type=BD25,
                )
                for position in range(self.geometry.discs_per_tray)
            ]
            tray.fill(discs)
            count += len(discs)
        return count

    def disc_count(self) -> int:
        return sum(tray.disc_count for tray in self.trays.values())

    def find_disc(self, disc_id: str) -> Optional[TrayAddress]:
        # A disc normally rests in the tray its id names: look there
        # before walking every tray (ids are unique, so a hit is final).
        home = home_of_disc(disc_id)
        if home in self.trays and any(
            disc.disc_id == disc_id for disc in self.trays[home].discs()
        ):
            return home
        for address, tray in self.trays.items():
            for disc in tray.discs():
                if disc.disc_id == disc_id:
                    return address
        return None

    # ------------------------------------------------------------------
    # Motions: checked now, committed when the PLC's sleep ends; see
    # ``RoboticArm``
    # ------------------------------------------------------------------
    def rotate_to(self, slot: int):
        """Rotate the roller so ``slot`` faces the arm."""
        if self._fanned_out is not None:
            raise MechanicsError(
                f"cannot rotate roller {self.roller_id}: tray "
                f"{self._fanned_out} is fanned out"
            )
        if slot == self.facing_slot and self.aligned:
            return None

        def rotated():
            self.rotation_count += 1
            self.rotation_seconds += self.timings.rotate
            self.facing_slot = slot
            self.aligned = True

        return self.timings.rotate, "roller.rotate", slot, rotated

    def fan_out(self, address: TrayAddress):
        """Fan the addressed tray out of the roller.

        Requires the roller to already face the tray's slot; the arm must
        have locked the tray's outer hook (the caller sequences this).
        """
        self.geometry.validate(address)
        if address.slot != self.facing_slot or not self.aligned:
            raise MechanicsError(
                f"tray {address} is not aligned with the arm "
                f"(facing slot {self.facing_slot}, aligned={self.aligned})"
            )
        if self._fanned_out is not None:
            raise MechanicsError(f"tray {self._fanned_out} already fanned out")

        def fanned():
            self._fanned_out = address

        return self.timings.fan_out, "roller.fan_out", None, fanned

    def fan_in(self):
        """Close the currently fanned-out tray back into the roller."""
        if self._fanned_out is None:
            raise MechanicsError("no tray is fanned out")
        return self.timings.fan_in, "roller.fan_in", None, self._closed

    def _closed(self) -> None:
        self._fanned_out = None
        self.aligned = False

    @property
    def fanned_out(self) -> Optional[TrayAddress]:
        return self._fanned_out

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "roller_id": self.roller_id,
            "facing_slot": self.facing_slot,
            "aligned": self.aligned,
            "fanned_out": (
                [self._fanned_out.layer, self._fanned_out.slot]
                if self._fanned_out is not None
                else None
            ),
            "rotation_count": self.rotation_count,
            "rotation_seconds": round(self.rotation_seconds, 6),
            "discs": self.disc_count(),
        }
