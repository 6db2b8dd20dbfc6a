"""The SC <-> PLC control link.

The system controller talks to the PLC over an internal TCP/IP network
(§3.1).  Command latency is sub-millisecond and negligible next to motion
times, but it is modelled (and counted) so the control-path cost is visible
in traces and can be inflated for sensitivity tests.

A command is one occurrence, not two: :meth:`ControlChannel.send` hands its
wire latency to the PLC as a *lead* and the motion sleeps through both at
once (:func:`~repro.sim.landing.sleep_after`), ending on the instant the
two sleeps ended on.  The wire stretch is its own occurrence only when
something can happen at its end: an injector is installed (the
``plc.channel`` check), or a recorder or tracer is (the journal entry and
the span starts carry the arrival time).  With none of them the counters
and a grabbed stack move when the command is sent, 1 ms before it arrives.
As in :meth:`~repro.drives.drive.OpticalDrive.burn`, an injector installed
*during* a fused instruction is first consulted by the next ``send``.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import PLCFaultError
from repro.plc.instructions import Instruction
from repro.sim.engine import Delay, Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.plc.controller import PLCController

#: One command round-trip on the internal network.
DEFAULT_COMMAND_LATENCY = 0.001


class ControlChannel:
    """Carries instructions from the SC to the PLC and returns results."""

    def __init__(
        self,
        engine: Engine,
        plc: "PLCController",
        command_latency: float = DEFAULT_COMMAND_LATENCY,
    ):
        self.engine = engine
        self.plc = plc
        self.command_latency = command_latency
        self.commands_sent = 0
        #: ``(arrival time, mnemonic)`` of the latest command
        self.last_command: Optional[tuple[float, str]] = None

    def send(self, instruction: Instruction) -> Generator:
        """Transmit and execute one instruction; returns its result."""
        engine = self.engine
        lead = self.command_latency
        # Stepped: something can happen when the command arrives.
        if engine.faults.enabled or engine.recorder.enabled or engine.trace.enabled:
            yield Delay(lead)
            lead = 0.0
            fault = engine.faults.check("plc.channel")
            if fault is not None:
                raise PLCFaultError(
                    f"control link error sending {instruction.mnemonic} "
                    f"(injected {fault.kind})"
                )
        self.commands_sent += 1
        self.last_command = (engine.now + lead, instruction.mnemonic)
        if engine.recorder.enabled:
            engine.recorder.record(
                "plc.instruction", mnemonic=instruction.mnemonic
            )
        result = yield from self.plc.execute(instruction, lead)
        return result

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        last = self.last_command
        return {
            "commands_sent": self.commands_sent,
            "command_latency": self.command_latency,
            "last_command": (
                {"t": round(last[0], 6), "mnemonic": last[1]}
                if last is not None
                else None
            ),
        }
