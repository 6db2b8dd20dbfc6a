"""Multi-rack federation (§2.3's datacenter-integration motivation).

"Optical libraries should provide a persistent online view of their data
so that the data can be shared by external clients using standard storage
interfaces that can be easily integrated and scaled in cloud datacenters."

A :class:`RackCluster` federates several ROS racks behind one namespace:
paths route to a home rack by rendezvous (highest-random-weight) hashing,
optional synchronous replication writes each file to ``replicas``
additional racks, and reads fail over when a rack is marked down.  All
racks share one simulation engine, so cluster-wide timing is coherent.

A cluster is a rack: ``cluster.pi`` has the three generator methods of
the serving layer's rack contract (``write_file`` / ``read_file`` /
``stat``, like ``ros.pi``), and ``cluster.write`` / ``read`` / ``stat``
run them to completion the way :class:`~repro.olfs.filesystem.OLFS`'s do.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import Optional

from repro.errors import FileNotFoundOLFSError, ROSError
from repro.olfs.config import OLFSConfig
from repro.olfs.filesystem import OLFS
from repro.sim.engine import Engine


class RackDownError(ROSError):
    """Raised when no rack holding a file is reachable."""


class RackCluster:
    """Several ROS racks behind one namespace."""

    def __init__(
        self,
        rack_count: int = 2,
        replicas: int = 0,
        config: Optional[OLFSConfig] = None,
        **rack_kwargs,
    ):
        if rack_count < 1:
            raise ValueError("need at least one rack")
        if replicas >= rack_count:
            raise ValueError("replicas must be below the rack count")
        self.engine = Engine()
        self.replicas = replicas
        self.racks = [
            OLFS(config=config, engine=self.engine, **rack_kwargs)
            for _ in range(rack_count)
        ]
        self._down: set[int] = set()
        self.pi = SimpleNamespace(
            write_file=self._write_file,
            read_file=self._read_file,
            stat=self._stat,
        )

    # ------------------------------------------------------------------
    # Placement: rendezvous hashing (stable under rack addition)
    # ------------------------------------------------------------------
    def placement(self, path: str) -> list[int]:
        """Rack indices for ``path``: home first, then replicas."""
        scores = []
        for index in range(len(self.racks)):
            digest = hashlib.sha256(f"{index}:{path}".encode()).digest()
            scores.append((digest, index))
        ranked = [index for _, index in sorted(scores)]
        return ranked[: self.replicas + 1]

    def home_rack(self, path: str) -> int:
        return self.placement(path)[0]

    # ------------------------------------------------------------------
    # Availability management
    # ------------------------------------------------------------------
    def fail_rack(self, index: int) -> None:
        """Mark a rack unreachable (power/network loss)."""
        self._down.add(index)

    def restore_rack(self, index: int) -> None:
        self._down.discard(index)

    def _alive(self, indices: list[int]) -> list[int]:
        return [index for index in indices if index not in self._down]

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def write(self, path: str, data: bytes, logical_size=None):
        return self.engine.run_process(
            self.pi.write_file(path, data, logical_size), "write"
        )

    def read(self, path: str):
        return self.engine.run_process(self.pi.read_file(path), "read")

    def readdir(self, path: str) -> list[str]:
        """Union of the directory's entries across reachable racks."""
        names: set[str] = set()
        found = False
        for index, rack in enumerate(self.racks):
            if index in self._down:
                continue
            try:
                names.update(rack.readdir(path))
                found = True
            except FileNotFoundOLFSError:
                continue
        if not found:
            raise FileNotFoundOLFSError(f"{path!r}: not in the cluster")
        return sorted(names)

    def unlink(self, path: str) -> None:
        removed = False
        for index in self._alive(self.placement(path)):
            try:
                self.racks[index].unlink(path)
                removed = True
            except FileNotFoundOLFSError:
                continue
        if not removed:
            raise FileNotFoundOLFSError(f"{path!r}: not in the cluster")

    # ------------------------------------------------------------------
    # ``self.pi``: the one copy of each operation's placement and
    # failover.  Serving sessions are simulation processes and
    # ``yield from`` these; the synchronous facade above runs them.
    # ------------------------------------------------------------------
    def _write_file(self, path: str, data: bytes, logical_size):
        """Write to the home rack and every replica (synchronous)."""
        targets = self._alive(self.placement(path))
        if not targets:
            raise RackDownError(f"no rack available for {path!r}")
        traces = []
        for index in targets:
            trace = yield from self.racks[index].pi.write_file(
                path, data, logical_size
            )
            traces.append(trace)
        return traces[0]

    def _read_file(self, path: str):
        """Read from the first holder that can actually serve the bytes.

        Failover covers any :class:`ROSError` — not just racks explicitly
        marked down.  A replica whose drives are hard-failed or whose read
        times out raises (DriveError, TimeoutOLFSError, ...) and the next
        holder is tried; the last error is re-raised only when every holder
        failed.
        """
        last_error: Optional[Exception] = None
        for index in self._alive(self.placement(path)):
            try:
                result = yield from self.racks[index].pi.read_file(path)
            except ROSError as error:
                last_error = error
                continue
            return result
        if last_error is not None:
            raise last_error
        raise RackDownError(f"every rack holding {path!r} is down")

    def _stat(self, path: str):
        for index in self._alive(self.placement(path)):
            try:
                return (yield from self.racks[index].pi.stat(path))
            except FileNotFoundOLFSError:
                continue
        raise FileNotFoundOLFSError(f"{path!r}: not in the cluster")

    # ------------------------------------------------------------------
    def flush(self) -> int:
        return sum(
            rack.flush()
            for index, rack in enumerate(self.racks)
            if index not in self._down
        )

    def status(self) -> dict:
        per_rack = [
            None if index in self._down else rack.status()
            for index, rack in enumerate(self.racks)
        ]
        alive = [s for s in per_rack if s is not None]
        return {
            "racks": len(self.racks),
            "down": sorted(self._down),
            "replicas": self.replicas,
            "discs_total": sum(s["discs_total"] for s in alive),
            "arrays_used": sum(s["arrays"]["Used"] for s in alive),
            "per_rack": per_rack,
        }
