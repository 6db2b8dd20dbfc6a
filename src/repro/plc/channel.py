"""The SC <-> PLC control link.

The system controller talks to the PLC over an internal TCP/IP network
(§3.1).  Command latency is sub-millisecond and negligible next to motion
times, but it is modelled (and counted) so the control-path cost is visible
in traces.

A command is one occurrence, not two: :meth:`ControlChannel.send` hands its
wire latency to the PLC as a *lead* and the motion sleeps through both at
once (the :mod:`~repro.sim.landing` rule), ending on the instant the
two sleeps ended on.  The counters, the journal entry and the spans are
stamped with the arrival instant, so a traced or recorded run takes the
same path, and issues the same events, as a bare one.  The wire stretch is
its own occurrence only when the simulated world can make something happen
at its end: :meth:`~repro.faults.injector.FaultInjector.live` says a
``plc.channel`` fault could trip on arrival, and the channel is checked
then.  A fault armed *during* a command's flight was not live when the
command was sent, so it trips the next command instead.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import PLCFaultError
from repro.plc.instructions import Instruction
from repro.sim.engine import Delay, Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.plc.controller import PLCController

#: One command round-trip on the internal network.
COMMAND_LATENCY = 0.001


class ControlChannel:
    """Carries instructions from the SC to the PLC and returns results."""

    def __init__(self, engine: Engine, plc: "PLCController"):
        self.engine = engine
        self.plc = plc
        self.commands_sent = 0
        #: ``(arrival time, mnemonic)`` of the latest command
        self.last_command: Optional[tuple[float, str]] = None

    def send(self, instruction: Instruction) -> Generator:
        """Transmit and execute one instruction; returns its result."""
        engine = self.engine
        lead = COMMAND_LATENCY
        arrival = engine.now + lead
        if engine.faults.live("plc.channel", arrival):
            yield Delay(lead)
            lead = 0.0
            fault = engine.faults.check("plc.channel")
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
        result = yield from self.plc.execute(instruction, lead)
        return result

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
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
