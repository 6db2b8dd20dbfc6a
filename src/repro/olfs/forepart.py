"""The forepart-data-stored mechanism (§4.8).

For reads that miss both disks and drives, the mechanical delay (~70 s)
would blow client timeouts.  OLFS therefore stores the forepart (first
256 KB) of each file inside its index file in MV; a cold read
answers its first bytes within ~2 ms and trickles the forepart "at a slow
but controllable rate until the requested disc is fetched into drives".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.olfs.config import OLFSConfig

#: Fixed OLFS processing to serve the first word from the index file
#: ("the first word of the file can quickly respond within 2 ms", §4.8).
FOREPART_RESPONSE_SECONDS = 0.0012

#: Bytes of each file stored in its index file.
FOREPART_BYTES = 256 * units.KB
#: Controlled trickle rate while the mechanical fetch proceeds.
FOREPART_TRICKLE_RATE = 128 * units.KB


@dataclass
class TrickleePlan:
    """Timeline of a forepart-bridged cold read."""

    first_byte_seconds: float
    forepart_bytes: int
    trickle_rate: float
    fetch_seconds: float

    @property
    def forepart_drained_at(self) -> float:
        """When the trickled forepart runs out, relative to the request."""
        return self.first_byte_seconds + self.forepart_bytes / self.trickle_rate

    @property
    def bridges_fetch(self) -> bool:
        """True when the trickle outlasts the mechanical fetch — the
        client never observes a stall."""
        return self.forepart_drained_at >= self.fetch_seconds


class ForepartManager:
    """Stores and serves file foreparts via the index files."""

    def __init__(self, config: OLFSConfig, mv=None):
        self.config = config
        self.mv = mv  # the MetadataVolume whose index files hold them

    @property
    def enabled(self) -> bool:
        return self.config.forepart_enabled

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "enabled": self.enabled,
            "forepart_bytes": FOREPART_BYTES,
            "trickle_rate": FOREPART_TRICKLE_RATE,
        }

    def forepart_of(self, data: bytes) -> Optional[bytes]:
        """The prefix to embed in the index file at write time."""
        if not self.enabled:
            return None
        return data[:FOREPART_BYTES]

    def view_burned(self, payloads: list, extents: list[dict]) -> None:
        """MV foreparts the burned blobs of ``payloads`` hold become views
        of them.  ``extents`` maps each data blob's paths to (data, offset);
        a forepart qualifies as its file's whole extent or a prefix of the
        current version's first."""
        for (blob, _, image_id), files in zip(payloads, extents):
            view = memoryview(blob)
            for path, (data, offset) in files.items():
                index = self.mv.stored_index(path)
                forepart = index and index.forepart
                if forepart and (forepart is data or (
                    index.current.locations[0] == image_id
                    and data.startswith(forepart)
                )):
                    index.forepart = view[offset : offset + len(forepart)]

    def plan(
        self,
        forepart: bytes,
        mv_lookup_seconds: float,
        fetch_seconds: float,
    ) -> TrickleePlan:
        """Timeline for serving a cold read bridged by the forepart."""
        return TrickleePlan(
            first_byte_seconds=mv_lookup_seconds + FOREPART_RESPONSE_SECONDS,
            forepart_bytes=len(forepart),
            trickle_rate=FOREPART_TRICKLE_RATE,
            fetch_seconds=fetch_seconds,
        )
