"""Magazine-based optical library baseline (§3.2's design comparison).

Traditional libraries (Panasonic LB-DH8 class) keep discs in cassette
*magazines* parked in fixed slots.  Serving an array means: eject the whole
magazine from its slot, carry it with a robot that must move in **three
dimensions**, dock it at the drive block, then separate the discs.  The
paper's §3.2 argues this costs mechanical complexity, motion time and
placement density; this model quantifies all three so the ablation bench
can compare against the ROS roller + 1-D arm.

Density anchor: an LB-DH8-style 42U rack holds ~6500 discs — "half the
capacity of our design" (§6) — versus ROS's 12,240.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MagazineLibraryModel:
    """Timing/density model of a magazine library in a 42U rack."""

    discs_per_magazine: int = 12
    discs_per_rack: int = 6500  # §6: half of ROS's 12,240
    # Motion phases (seconds), calibrated to DH8-class mechanisms:
    magazine_eject: float = 3.0  # unlatch + slide the cassette out
    robot_xyz_travel_mean: float = 9.0  # 3-D gantry move, slot->drives
    magazine_dock: float = 3.0  # align + latch at the drive block
    separate_all: float = 75.0  # per-disc separation is slower: the
    #   gripper works inside the cassette shell
    collect_all: float = 88.0
    robot_return_mean: float = 9.0

    #: degrees of freedom the robot needs (ROS: roller spin + 1 vertical)
    motion_axes: int = 3

    def load_seconds(self) -> float:
        """Slot -> drives for one magazine (mean over slot positions)."""
        return (
            self.magazine_eject
            + self.robot_xyz_travel_mean
            + self.magazine_dock
            + self.separate_all
        )

    def unload_seconds(self) -> float:
        return (
            self.collect_all
            + self.magazine_dock
            + self.robot_xyz_travel_mean
            + self.magazine_eject
        )
