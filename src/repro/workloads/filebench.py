"""Filebench-equivalent workloads (§5.2 uses filebench singlestream).

``SinglestreamWorkload`` reproduces filebench's ``singlestreamread`` /
``singlestreamwrite`` personalities: one thread streaming sequential I/O
at a fixed request size (1 MB) against one large file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro import units
from repro.frontend.stack import FilesystemStack
from repro.sim.engine import Engine

#: filebench's singlestream request size
IO_SIZE = float(units.MB)


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    total_bytes: float
    elapsed_seconds: float

    @property
    def throughput_mb_s(self) -> float:
        return self.total_bytes / self.elapsed_seconds / units.MB


class SinglestreamWorkload:
    """filebench singlestream(read|write) at 1 MB I/O size."""

    def __init__(
        self, direction: str = "read", total_bytes: float = 2 * units.GB
    ):
        if direction not in ("read", "write"):
            raise ValueError(f"direction must be read/write, not {direction!r}")
        self.direction = direction
        self.total_bytes = float(total_bytes)

    @property
    def name(self) -> str:
        return f"singlestream{self.direction}"

    def run_on_stack(
        self, engine: Engine, stack: FilesystemStack
    ) -> Generator:
        """Drive the stream through a frontend stack (timed); returns a
        :class:`WorkloadResult`."""
        start = engine.now
        yield from stack.singlestream(
            engine, self.total_bytes, IO_SIZE, self.direction
        )
        return WorkloadResult(
            self.name, self.total_bytes, engine.now - start
        )
