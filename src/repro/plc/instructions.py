"""The PLC instruction set.

§3.3: "the PLC controller defines an instruction set to execute basic
mechanical operations".  Each instruction is a small immutable record; the
:class:`~repro.plc.controller.PLCController` receives and interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Instruction:
    """Base class for PLC instructions; ``mnemonic`` (``ROTATE``) is what
    the link journals, ``span`` (``plc.rotate``) what the PLC traces."""

    mnemonic: ClassVar[str] = "INSTRUCTION"
    span: ClassVar[str] = "plc.instruction"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.mnemonic = cls.__name__.upper()
        cls.span = f"plc.{cls.__name__.lower()}"


@dataclass(frozen=True)
class Rotate(Instruction):
    """Rotate a roller so ``slot`` faces the arm."""

    roller: int
    slot: int


@dataclass(frozen=True)
class MoveArm(Instruction):
    """Move a robotic arm vertically to ``layer``."""

    arm: int
    layer: int


@dataclass(frozen=True)
class HookTray(Instruction):
    """Lock the arm's hook on the tray facing it."""

    arm: int


@dataclass(frozen=True)
class ReleaseTray(Instruction):
    """Release the arm's tray hook."""

    arm: int


@dataclass(frozen=True)
class FanOut(Instruction):
    """Fan the addressed tray out of the roller (roller counter-rotates)."""

    roller: int
    layer: int
    slot: int


@dataclass(frozen=True)
class FanIn(Instruction):
    """Close the fanned-out tray back into the roller."""

    roller: int


@dataclass(frozen=True)
class GrabStack(Instruction):
    """Lift the fanned-out tray's disc stack above the drives."""

    arm: int


@dataclass(frozen=True)
class LowerStack(Instruction):
    """Lower the held stack into the fanned-out tray."""

    arm: int


@dataclass(frozen=True)
class SeparateDisc(Instruction):
    """Separate the bottom disc of the held stack into the next drive."""

    arm: int


@dataclass(frozen=True)
class Calibrate(Instruction):
    """Re-zero an arm against its reference sensors."""

    arm: int
