"""Volumes: the timing facade OLFS charges its disk I/O against.

A volume sits on a RAID array (or a single device) and exposes stream-level
transfers with processor-sharing contention — the §4.7 effect: user writes,
parity generation reads/writes and burn staging reads all interfere when
scheduled onto one volume.

Content stays in higher layers (buckets, images, index files); the volume
tracks capacity usage and charges time.  RAID content operations remain
available through ``volume.array`` for the reconstruction paths.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import NoSpaceOLFSError, StorageError
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.engine import Delay, Engine
from repro.storage.raid import RAIDArray


class Volume:
    """A named, capacity-tracked bandwidth domain over a RAID array."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        array: Optional[RAIDArray] = None,
        read_throughput: Optional[float] = None,
        write_throughput: Optional[float] = None,
        capacity: Optional[int] = None,
        access_latency: Optional[float] = None,
    ):
        if array is None and (
            read_throughput is None
            or write_throughput is None
            or capacity is None
        ):
            raise StorageError(
                "volume needs an array or explicit throughput + capacity"
            )
        self.engine = engine
        self.name = name
        self.array = array
        reads = read_throughput or array.aggregate_read_throughput()
        writes = write_throughput or array.aggregate_write_throughput()
        self.capacity = int(
            capacity if capacity is not None else array.data_capacity
        )
        if access_latency is None:
            access_latency = (
                max(d.access_latency for d in array.devices) if array else 0.001
            )
        self.access_latency = access_latency
        # One shared pipe per direction; mixed read/write streams on the
        # same spindles contend, modelled by a combined pipe sized at the
        # larger direction (reads and writes share heads in practice).
        self._pipe = SharedBandwidth(
            engine, max(reads, writes), name=f"{name}-pipe"
        )
        self._read_scale = max(reads, writes) / reads
        self._write_scale = max(reads, writes) / writes
        self.used = 0
        self.read_bytes_total = 0.0
        self.write_bytes_total = 0.0
        #: optional pressure valve: callable(bytes_needed) that frees
        #: space (e.g. the read cache evicting burned images) before an
        #: allocation is refused
        self.reclaimer = None

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> None:
        if nbytes > self.free and self.reclaimer is not None:
            self.reclaimer(nbytes - self.free)
        if nbytes > self.free:
            raise NoSpaceOLFSError(
                f"volume {self.name}: {nbytes} bytes requested, "
                f"{self.free} free"
            )
        self.used += int(nbytes)

    def release(self, nbytes: int) -> None:
        if nbytes > self.used:
            raise StorageError(f"volume {self.name}: over-release")
        self.used -= int(nbytes)

    # ------------------------------------------------------------------
    # Timed transfers
    # ------------------------------------------------------------------
    def read(self, nbytes: float, weight: float = 1.0) -> Generator:
        """Charge a read of ``nbytes`` (shares bandwidth with all streams)."""
        if nbytes < 0:
            raise StorageError("negative read")
        self.read_bytes_total += nbytes
        yield Delay(self.access_latency)
        yield from self._pipe.transfer(
            nbytes * self._read_scale, weight=weight
        )

    def write(self, nbytes: float, weight: float = 1.0) -> Generator:
        """Charge a write of ``nbytes`` (shares bandwidth with all streams)."""
        if nbytes < 0:
            raise StorageError("negative write")
        self.write_bytes_total += nbytes
        yield Delay(self.access_latency)
        yield from self._pipe.transfer(
            nbytes * self._write_scale, weight=weight
        )

    def effective_read_rate(self) -> float:
        """Uncontended sequential read throughput, bytes/s."""
        return self._pipe.capacity / self._read_scale

    def effective_write_rate(self) -> float:
        """Uncontended sequential write throughput, bytes/s."""
        return self._pipe.capacity / self._write_scale
