"""LTFS baseline: POSIX on a single linear tape (§2.2, §6).

IBM's Linear Tape File System makes one tape's files directly accessible
through POSIX — the closest prior art to OLFS's inline accessibility — but
"LTFS is built on a single tape and its performance is limited by linear
seek latency of the tape media" (§6), and there is no global namespace
across cartridges.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LTFSTapeModel:
    """An LTO-6-class cartridge under LTFS."""

    capacity: float = 2.5e12  # 2.5 TB native
    mount_seconds: float = 15.0  # load + thread + index read
    full_wind_seconds: float = 114.0  # end-to-end wrap traversal
    streaming_rate: float = 160e6  # bytes/s sustained

    def seek_seconds(self, position_fraction: float) -> float:
        """Linear seek to a file at ``position_fraction`` of the tape."""
        if not 0.0 <= position_fraction <= 1.0:
            raise ValueError("position fraction must be in [0, 1]")
        return self.full_wind_seconds * position_fraction

    def read_latency(
        self, nbytes: float, position_fraction: float = 0.5, mounted: bool = False
    ) -> float:
        """Open + read one file at a tape position."""
        latency = 0.0 if mounted else self.mount_seconds
        latency += self.seek_seconds(position_fraction)
        latency += nbytes / self.streaming_rate
        return latency
