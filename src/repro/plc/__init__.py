"""PLC: the programmable logic controller driving motors and sensors.

The system controller (SC) sends instructions to the PLC over an internal
TCP/IP link (§3.3); the PLC executes each motion with closed-loop sensor
feedback and reports completion.
"""

from repro.plc.instructions import (
    Calibrate,
    FanIn,
    FanOut,
    GrabStack,
    HookTray,
    Instruction,
    LowerStack,
    MoveArm,
    ReleaseTray,
    Rotate,
    SeparateDisc,
)
from repro.plc.controller import PLCController

__all__ = [
    "Calibrate",
    "FanIn",
    "FanOut",
    "GrabStack",
    "HookTray",
    "Instruction",
    "LowerStack",
    "MoveArm",
    "PLCController",
    "ReleaseTray",
    "Rotate",
    "SeparateDisc",
]
