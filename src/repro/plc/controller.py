"""PLC controller: interprets instructions with sensor feedback.

Every motion ends with a feedback check against the sensor suite (§3.3:
"all mechanical operations can be executed correctly by precise feedback
control"); a mismatch raises :class:`~repro.errors.PLCFaultError`, which is
how miscalibration faults surface in tests.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import MechanicsError, PLCFaultError
from repro.mechanics.arm import RoboticArm
from repro.mechanics.roller import Roller
from repro.mechanics.sensors import SensorSuite
from repro.mechanics.geometry import TrayAddress
from repro.plc.instructions import (
    Calibrate,
    CollectDisc,
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
from repro.sim.engine import Delay, Engine
from repro.sim.landing import sleep_after


class PLCController:
    """Executes PLC instructions over rollers/arms with feedback checks."""

    def __init__(
        self,
        engine: Engine,
        rollers: list[Roller],
        arms: list[RoboticArm],
    ):
        if len(rollers) != len(arms):
            raise ValueError("one arm per roller is required")
        self.engine = engine
        self.rollers = rollers
        self.arms = arms
        self.suites = [
            self._build_suite(roller, arm)
            for roller, arm in zip(rollers, arms)
        ]
        self.instructions_executed = 0
        self.faults = 0
        #: a disc picked up by SeparateDisc awaiting drive insertion
        self._separated = {index: None for index in range(len(arms))}

    @staticmethod
    def _build_suite(roller: Roller, arm: RoboticArm) -> SensorSuite:
        return SensorSuite(
            roller_position=lambda: float(roller.facing_slot),
            arm_layer=lambda: float(arm.layer),
            # Gap between separated discs; the probe reports nominal unless
            # drifted by fault injection.
            separation_gap_mm=lambda: 0.0,
        )

    def execute(self, instruction: Instruction, lead: float = 0.0) -> Generator:
        """Run one instruction to completion; returns its result, if any.

        ``lead`` is wire latency the command has yet to spend (see
        :meth:`~repro.plc.channel.ControlChannel.send`); the motion sleeps
        through it and itself in one occurrence, and its spans open at the
        arrival instant.  A motion that refuses, or finds nothing to move,
        has not slept: the lead is spent here, so either outcome surfaces
        when the command arrives.
        """
        self.instructions_executed += 1
        sent = self.engine.now
        with self.engine.trace.span(
            f"plc.{type(instruction).__name__.lower()}", "plc",
            at=sent + lead,
        ):
            try:
                try:
                    result = yield from self._dispatch(instruction, lead)
                except MechanicsError:
                    if lead and self.engine.now == sent:
                        yield Delay(lead)  # refused on arrival
                    raise
                if lead and self.engine.now == sent:
                    yield Delay(lead)  # nothing to move
            except PLCFaultError:
                self.faults += 1
                raise
        return result

    def _dispatch(self, instruction: Instruction, lead: float) -> Generator:
        if isinstance(instruction, Rotate):
            roller = self.rollers[instruction.roller]
            yield from roller.rotate_to(instruction.slot, lead)
            self.suites[instruction.roller].verify_roller_at(instruction.slot)
            return None
        if isinstance(instruction, MoveArm):
            arm = self.arms[instruction.arm]
            yield from arm.move_to_layer(instruction.layer, lead)
            self.suites[instruction.arm].verify_arm_at(instruction.layer)
            return None
        if isinstance(instruction, HookTray):
            yield from self.arms[instruction.arm].hook_tray(lead)
            return None
        if isinstance(instruction, ReleaseTray):
            yield from self.arms[instruction.arm].release_tray(lead)
            return None
        if isinstance(instruction, FanOut):
            roller = self.rollers[instruction.roller]
            arm = self.arms[instruction.roller]
            if not arm.hooked:
                raise PLCFaultError("fan-out without the tray hooked")
            address = TrayAddress(instruction.layer, instruction.slot)
            yield from roller.fan_out(address, lead)
            return None
        if isinstance(instruction, FanIn):
            yield from self.rollers[instruction.roller].fan_in(lead)
            return None
        if isinstance(instruction, GrabStack):
            roller = self.rollers[instruction.roller]
            arm = self.arms[instruction.arm]
            address = roller.fanned_out
            if address is None:
                raise PLCFaultError("grab-stack with no tray fanned out")
            tray = roller.tray_at(address)
            discs = tray.take_all()
            yield from arm.grab_stack(discs, lead)
            return discs
        if isinstance(instruction, LowerStack):
            roller = self.rollers[instruction.roller]
            arm = self.arms[instruction.arm]
            address = roller.fanned_out
            if address is None:
                raise PLCFaultError("lower-stack with no tray fanned out")
            discs = yield from arm.lower_stack(lead)
            roller.tray_at(address).put_back(discs)
            return None
        if isinstance(instruction, SeparateDisc):
            arm = self.arms[instruction.arm]
            disc = yield from arm.separate_next(lead)
            suite = self.suites[instruction.arm]
            suite.verify_separation_gap(0.0)
            return disc
        if isinstance(instruction, CollectDisc):
            # The caller removes the disc from the drive and passes it via
            # the two-phase collect protocol (see MechanicalSubsystem).
            raise PLCFaultError(
                "CollectDisc must be executed via collect_into_arm()"
            )
        if isinstance(instruction, Calibrate):
            yield from sleep_after(self.engine, lead, 1.0)
            for sensor in self.suites[instruction.arm].all_sensors():
                sensor.repair()
            return None
        raise PLCFaultError(f"unknown instruction {instruction!r}")

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "instructions_executed": self.instructions_executed,
            "faults": self.faults,
            "separated_pending": sum(
                1 for disc in self._separated.values() if disc is not None
            ),
            "sensors_unhealthy": sum(
                1
                for suite in self.suites
                for sensor in suite.all_sensors()
                if sensor.failed or sensor._fault_offset != 0.0
            ),
        }

    def collect_into_arm(self, arm_index: int, disc) -> Generator:
        """Timed fetch of one disc from a drive tray onto the arm's stack."""
        self.instructions_executed += 1
        with self.engine.trace.span("plc.collectdisc", "plc"):
            yield from self.arms[arm_index].collect_next(disc)
