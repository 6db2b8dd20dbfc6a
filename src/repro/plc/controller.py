"""PLC controller: interprets instructions with sensor feedback.

Every motion ends with a feedback check against the sensor suite (§3.3:
"all mechanical operations can be executed correctly by precise feedback
control"); a mismatch raises :class:`~repro.errors.PLCFaultError`, which is
how miscalibration faults surface in tests.

The system controller sends each instruction over an internal TCP/IP
network (§3.1): :meth:`PLCController.execute` spends the command's wire
latency and its motion in one sleep, and counts and journals the command
when it arrives (the ``plc.channel`` fault site).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import MechanicsError, PLCFaultError
from repro.mechanics.arm import RoboticArm
from repro.mechanics.roller import Roller
from repro.mechanics.sensors import SensorSuite
from repro.mechanics.geometry import TrayAddress
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
from repro.sim.engine import Delay, Engine
from repro.sim.landing import delay_until

#: One command round-trip on the internal network.
COMMAND_LATENCY = 0.001


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
        self.commands_sent = 0
        #: ``(arrival time, mnemonic)`` of the latest command
        self.last_command: Optional[tuple[float, str]] = None

    @staticmethod
    def _build_suite(roller: Roller, arm: RoboticArm) -> SensorSuite:
        return SensorSuite(
            roller_position=lambda: float(roller.facing_slot),
            arm_layer=lambda: float(arm.layer),
            # Gap between separated discs; the probe reports nominal unless
            # drifted by fault injection.
            separation_gap_mm=lambda: 0.0,
        )

    def execute(
        self, instruction: Instruction, lead: float = COMMAND_LATENCY
    ) -> Generator:
        """Send one instruction and run it to completion; returns its
        result, if any.

        ``lead`` is wire latency the command has yet to spend; a command
        with a lead is counted and journalled when it arrives (``lead=0.0``
        runs a motion whose wire was already spent).  The wire stretch is
        its own sleep only when ``FaultInjector.live`` says a
        ``plc.channel`` fault could trip on arrival, and the link is
        checked then; a fault armed during the flight trips the next
        command.  The instruction is checked now; its spans, opened only
        when tracing, start at the arrival instant, and one sleep (the
        :mod:`~repro.sim.landing` rule) covers the lead and the motion,
        after which the motion commits and the sensors are checked.  A motion
        that refuses, or finds nothing to move, sleeps only the lead, so
        either outcome surfaces when the command arrives.
        """
        engine = self.engine
        arrival = engine._now + lead
        if lead:
            faults = engine.faults
            if faults.enabled and faults.live("plc.channel", arrival):
                yield Delay(lead)
                lead = 0.0
                fault = faults.check("plc.channel")
                if fault is not None:
                    raise PLCFaultError(
                        f"control link error sending {instruction.mnemonic} "
                        f"(injected {fault.kind})"
                    )
            self.commands_sent += 1
            self.last_command = (arrival, instruction.mnemonic)
            if engine.recorder.enabled:
                engine.recorder.record(
                    "plc.instruction", at=arrival, mnemonic=instruction.mnemonic
                )
        self.instructions_executed += 1
        trace = engine.trace
        scope = trace.enabled and trace.span(instruction.span, "plc", at=arrival)
        moving = False
        try:
            try:
                if instruction.__class__ not in _DISPATCH:
                    raise PLCFaultError(f"unknown instruction {instruction!r}")
                handler, check = _DISPATCH[instruction.__class__]
                motion = handler(self, instruction)
                if motion is None and check is not None:
                    check(self, instruction)  # where it already is
            except MechanicsError:
                if lead:
                    yield Delay(lead)  # refused on arrival
                raise
            result = None
            if motion is None:
                if lead:
                    yield Delay(lead)  # nothing to move
            else:
                seconds, name, tag, commit = motion
                moving = scope and name is not None and trace.span(
                    name, name.partition(".")[0],
                    _span_tags(self, instruction, name, tag), at=arrival
                )
                if lead:
                    due = arrival + seconds
                    while (now := engine._now) < due:
                        delay = due - now
                        if now + delay > due:  # rounded past it
                            delay = delay_until(now, due)
                        yield Delay(delay)
                else:
                    yield Delay(seconds)
                if moving:
                    moving.__exit__(None, None, None)
                    moving = False
                result = commit()
                if check is not None:
                    check(self, instruction)
        except BaseException as error:
            if isinstance(error, PLCFaultError):
                self.faults += 1
            for open_scope in (moving, scope):  # innermost first
                if open_scope:
                    open_scope.__exit__(type(error), error, None)
            raise
        if scope:
            scope.__exit__(None, None, None)
        return result

    # What the handler table calls beyond one arm or roller motion.
    def _fan_out(self, fan_out: FanOut):
        if not self.arms[fan_out.roller].hooked:
            raise PLCFaultError("fan-out without the tray hooked")
        address = TrayAddress(fan_out.layer, fan_out.slot)
        return self.rollers[fan_out.roller].fan_out(address)

    def _fanned_tray(self, roller_index: int, command: str):
        roller = self.rollers[roller_index]
        if roller.fanned_out is None:
            raise PLCFaultError(f"{command} with no tray fanned out")
        return roller.tray_at(roller.fanned_out)

    def _calibrate(self, calibrate: Calibrate):
        def repair():
            for sensor in self.suites[calibrate.arm].all_sensors():
                sensor.repair()

        return 1.0, None, None, repair

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "instructions_executed": self.instructions_executed,
            "faults": self.faults,
            # a separated disc goes straight into its drive
            "separated_pending": 0,
            "sensors_unhealthy": sum(
                1
                for suite in self.suites
                for sensor in suite.all_sensors()
                if not sensor.healthy
            ),
        }

    def channel_health(self) -> dict:
        """The SC <-> PLC link's snapshot for the system monitor."""
        last = self.last_command
        return {
            "commands_sent": self.commands_sent,
            "command_latency": COMMAND_LATENCY,
            "last_command": (
                {"t": round(last[0], 6), "mnemonic": last[1]}
                if last is not None
                else None
            ),
        }

    def collect_into_arm(self, arm_index: int, disc) -> Generator:
        """Timed fetch of one disc from a drive tray onto the arm's stack."""
        self.instructions_executed += 1
        arm = self.arms[arm_index]
        trace = self.engine.trace
        if trace.enabled:
            with trace.span("plc.collectdisc", "plc"), trace.span(
                "arm.collect", "arm", {"arm_id": arm.arm_id}
            ):
                yield Delay(arm.timings.collect_one)
        else:
            yield Delay(arm.timings.collect_one)
        arm.holding.append(disc)


#: instruction class -> ``handler(plc, instruction)``: checks the
#: instruction and returns its motion (see ``RoboticArm``), or None when
#: there is nothing to move
_HANDLERS = {
    Rotate: lambda plc, i: plc.rollers[i.roller].rotate_to(i.slot),
    MoveArm: lambda plc, i: plc.arms[i.arm].move_to_layer(i.layer),
    HookTray: lambda plc, i: plc.arms[i.arm].hook_tray(),
    ReleaseTray: lambda plc, i: plc.arms[i.arm].release_tray(),
    FanOut: PLCController._fan_out,
    FanIn: lambda plc, i: plc.rollers[i.roller].fan_in(),
    GrabStack: lambda plc, i: plc.arms[i.arm].grab_stack(
        plc._fanned_tray(i.arm, "grab-stack")
    ),
    LowerStack: lambda plc, i: plc.arms[i.arm].lower_stack(
        plc._fanned_tray(i.arm, "lower-stack")
    ),
    SeparateDisc: lambda plc, i: plc.arms[i.arm].separate_next(),
    Calibrate: PLCController._calibrate,
}

#: motion span name -> the key of the tag value its motion returns
_TAG_KEYS = {"arm.move": "layer", "arm.grab": "discs", "roller.rotate": "slot"}


def _span_tags(plc: PLCController, instruction, name: str, tag) -> dict:
    """A motion span's tags: its arm's or roller's id, and ``tag``."""
    tags = ({"arm_id": plc.arms[instruction.arm].arm_id} if name[:4] == "arm."
            else {"roller_id": plc.rollers[instruction.roller].roller_id})
    return tags if tag is None else {**tags, _TAG_KEYS[name]: tag}


#: instruction class -> the sensor check after its motion commits (or at
#: once, when there was nothing to move)
_CHECKS = {
    Rotate: lambda plc, i: plc.suites[i.roller].verify_roller_at(i.slot),
    MoveArm: lambda plc, i: plc.suites[i.arm].verify_arm_at(i.layer),
    SeparateDisc: lambda plc, i: (
        plc.suites[i.arm].verify_separation_gap(0.0)
    ),
}

#: instruction class -> ``(handler, its sensor check or None)``
_DISPATCH = {
    cls: (handler, _CHECKS.get(cls)) for cls, handler in _HANDLERS.items()
}
