"""Mechanical subsystem: roller geometry, robotic arm, sensors, timings.

The paper's §3.2 mechanical design reduced to its essence: a rotating
cylinder of trays plus an arm that only moves vertically.  Two movements
combine to load/unload 12-disc arrays into the drive sets; the timing model
is calibrated to the published per-phase delays (Table 3 and §3.2 text).
"""

from repro.mechanics.geometry import RollerGeometry, TrayAddress
from repro.mechanics.timing import MechanicalTimings
from repro.mechanics.roller import Roller
from repro.mechanics.arm import RoboticArm
from repro.mechanics.sensors import PositionSensor, RangeSensor, SensorSuite
from repro.mechanics.library import MechanicalSubsystem

__all__ = [
    "MechanicalSubsystem",
    "MechanicalTimings",
    "PositionSensor",
    "RangeSensor",
    "RoboticArm",
    "Roller",
    "RollerGeometry",
    "SensorSuite",
    "TrayAddress",
]
