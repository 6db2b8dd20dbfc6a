"""The SC <-> PLC control link.

The system controller talks to the PLC over an internal TCP/IP network
(§3.1).  Command latency is sub-millisecond and negligible next to motion
times, but it is modelled (and counted) so the control-path cost is visible
in traces.

A command is one occurrence in one frame: :meth:`ControlChannel.send`
hands the instruction, its wire latency as a *lead* and the channel to
:meth:`~repro.plc.controller.PLCController.execute`, whose frame stamps
the channel's counters and journal entry with the arrival instant and
sleeps the wire and the motion at once (the :mod:`~repro.sim.landing`
rule), so a traced or recorded run takes the same path, and issues the
same events, as a bare one.  The wire stretch is its own occurrence only
when :meth:`~repro.faults.injector.FaultInjector.live` says a
``plc.channel`` fault could trip on arrival, and the channel is checked
then.  A fault armed *during* a command's flight was not live when the
command was sent, so it trips the next command instead.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.plc.instructions import Instruction
from repro.sim.engine import Engine

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
        """Transmit and execute one instruction, in the PLC's frame."""
        return self.plc.execute(instruction, COMMAND_LATENCY, self)

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
