"""Power and energy accounting (§5.1: idle 185 W, peak 652 W).

The rack's draw decomposes into the always-on baseline (controller,
fans, idle electronics) plus activity-proportional components.  The
composition below reproduces the paper's two measured corner points:

    idle:  185 W
    peak:  185 (base) + 192 (24 drives x 8 W) + 84 (14 HDDs active)
           + 141 (SC CPUs under load) + 50 (roller motor)
         = 652 W

Energy for a simulated run integrates each component's busy time, which
the substrates already track (drive ``busy_seconds``, roller
``rotation_seconds``, arm ``travel_seconds``, volume byte counters).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Measured corner points (§5.1).
IDLE_POWER_W = 185.0
PEAK_POWER_W = 652.0

#: Component draws composing the peak.
DRIVE_ACTIVE_W = 8.0  # per optical drive (§5.1)
HDD_ACTIVE_W = 6.0  # per buffer disk under I/O
SC_LOAD_W = 141.0  # the Xeon pair under full load
ROLLER_MOTOR_W = 50.0  # §3.2: "less than 50 watts"
ARM_MOTOR_W = 60.0

_HDD_COUNT = 14
_DRIVE_COUNT = 24


@dataclass
class EnergyReport:
    """Joules by component over a simulated interval."""

    elapsed_seconds: float
    baseline_j: float
    drives_j: float
    mechanics_j: float
    disk_tier_j: float
    cpu_j: float

    @property
    def total_j(self) -> float:
        return (
            self.baseline_j
            + self.drives_j
            + self.mechanics_j
            + self.disk_tier_j
            + self.cpu_j
        )

    @property
    def total_kwh(self) -> float:
        return self.total_j / 3.6e6

    @property
    def average_power_w(self) -> float:
        if self.elapsed_seconds <= 0:
            return IDLE_POWER_W
        return self.total_j / self.elapsed_seconds

    def breakdown(self) -> dict[str, float]:
        return {
            "baseline": self.baseline_j,
            "drives": self.drives_j,
            "mechanics": self.mechanics_j,
            "disk_tier": self.disk_tier_j,
            "cpu": self.cpu_j,
        }


class PowerModel:
    """Energy accounting for one ROS instance's simulated activity."""

    def __init__(self, ros):
        self.ros = ros

    # -- corner points ---------------------------------------------------
    @staticmethod
    def idle_power_w() -> float:
        return IDLE_POWER_W

    @staticmethod
    def peak_power_w() -> float:
        """Everything at once: all drives, disks, CPUs and the roller."""
        return (
            IDLE_POWER_W
            + _DRIVE_COUNT * DRIVE_ACTIVE_W
            + _HDD_COUNT * HDD_ACTIVE_W
            + SC_LOAD_W
            + ROLLER_MOTOR_W
        )

    # -- integration -------------------------------------------------------
    def report(self) -> EnergyReport:
        ros = self.ros
        elapsed = ros.now
        drive_busy = sum(
            drive.busy_seconds
            for drive_set in ros.mech.drive_sets
            for drive in drive_set.drives
        )
        rotation = sum(
            roller.rotation_seconds for roller in ros.mech.rollers
        )
        travel = sum(arm.travel_seconds for arm in ros.mech.arms)
        # Disk-tier activity: bytes moved at the tier's effective rates.
        disk_seconds = 0.0
        for volume in [ros.mv_volume, *ros.buffer_volumes]:
            disk_seconds += volume.read_bytes_total / volume.effective_read_rate()
            disk_seconds += (
                volume.write_bytes_total / volume.effective_write_rate()
            )
        # CPU: charged per POSIX op at the calibrated ~2.5 ms each.
        op_count = ros.mv.lookups + ros.mv.updates
        cpu_seconds = op_count * 0.0025
        return EnergyReport(
            elapsed_seconds=elapsed,
            baseline_j=IDLE_POWER_W * elapsed,
            drives_j=DRIVE_ACTIVE_W * drive_busy,
            mechanics_j=ROLLER_MOTOR_W * rotation + ARM_MOTOR_W * travel,
            disk_tier_j=HDD_ACTIVE_W * _HDD_COUNT * disk_seconds,
            cpu_j=SC_LOAD_W * cpu_seconds,
        )
