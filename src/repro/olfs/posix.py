"""The POSIX Interface (PI): OLFS's externally visible file operations.

Every client-visible call decomposes into the internal operations the
paper traces in Figure 7::

    write  = stat (miss) ; mknod ; stat ; write ; close      (~16 ms)
    read   = stat ; read ; close                              (~9 ms)

Each internal op pays a calibrated fixed cost (FUSE kernel-user switch +
OLFS user-space processing) *plus* its real I/O (MV index traffic, bucket
writes, image reads, mechanical fetches), so Figure 7's per-op averages of
~2.5 ms and Table 1's location-dependent latencies both emerge from the
same machinery.  A frontend stack (samba) may add per-op overhead and the
seven extra ``stat`` calls the paper observed on the SMB write path.

Each internal op is an ``op.*`` span under the call's ``posix.*`` span;
``write_file`` also returns its ops as an :class:`OpTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    IsADirectoryOLFSError,
)
from repro.olfs.bucket import WritingBucketManager
from repro.olfs.config import OLFSConfig
from repro.olfs.fetching import FetchController
from repro.olfs.forepart import ForepartManager
from repro.olfs.index import IndexFile, VersionEntry
from repro.olfs.metadata import MetadataVolume
from repro.sim.engine import Delay, Engine

#: Fixed processing cost per internal op (seconds): FUSE switch + OLFS
#: user-space work, excluding the op's real I/O.  Calibrated so the
#: composed averages land on Figure 7 (stat ~2.5 ms, mknod ~6 ms total
#: with their MV/bucket traffic included).
OP_PROCESS_SECONDS = {
    "stat": 0.0019,
    "mknod": 0.0042,
    "write": 0.0016,
    "read": 0.0026,
    "close": 0.0018,
    "mkdir": 0.0019,
    "readdir": 0.0019,
    "unlink": 0.0019,
}

#: Histogram bucket bounds (seconds) for per-op latency: sub-ms cached ops
#: through multi-minute mechanical fetches (Table 1's full range).
OP_LATENCY_BOUNDS = (0.001, 0.002, 0.005, 0.01, 0.05, 0.5, 5.0, 60.0, 300.0)


@dataclass
class OpRecord:
    name: str
    seconds: float


@dataclass
class OpTrace:
    """Internal-op breakdown of one client-visible call (Figure 7)."""

    call: str
    ops: list[OpRecord] = field(default_factory=list)


@dataclass
class ReadResult:
    """A completed read: content plus its latency decomposition."""

    data: bytes
    source: str
    first_byte_seconds: float
    total_seconds: float
    used_forepart: bool = False


class POSIXInterface:
    """The PI module; all methods are simulation processes."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        mv: MetadataVolume,
        wbm: WritingBucketManager,
        fetcher: FetchController,
        foreparts: Optional[ForepartManager] = None,
    ):
        self.engine = engine
        self.config = config
        self.mv = mv
        self.wbm = wbm
        self.fetcher = fetcher
        self.foreparts = foreparts or ForepartManager(config)
        #: per-op overhead added by the frontend (seconds); samba sets >0
        self.frontend_per_op_seconds = 0.0
        #: extra stat calls the frontend issues on the write path (§5.3)
        self.frontend_extra_write_stats = 0
        #: optional MetricsRegistry; OLFS wires its own in
        self.metrics = None
        #: its ``posix.op_seconds`` histogram, fetched at the first op, and
        #: ``posix.ops.<name>`` counters, each fetched at its op's first
        #: run (a registry snapshot lists only the ops that ran)
        self._op_seconds = None
        self._op_counters: dict = {}

    # ------------------------------------------------------------------
    # Internal-op plumbing
    # ------------------------------------------------------------------
    def _op(
        self, name: str, work=None, trace: Optional[OpTrace] = None
    ) -> Generator:
        """Run one internal op: fixed processing + optional timed work,
        recorded in ``trace`` when the call returns one."""
        with self.engine.trace.span(f"op.{name}", "posix"):
            start = self.engine.now
            fixed = OP_PROCESS_SECONDS[name] + self.frontend_per_op_seconds
            yield Delay(fixed)
            result = None
            if work is not None:
                result = yield from work
            elapsed = self.engine.now - start
            if trace is not None:
                trace.ops.append(OpRecord(name, elapsed))
            if self.metrics is not None:
                counter = self._op_counters.get(name)
                if counter is None:
                    counter = self._op_counters[name] = self.metrics.counter(
                        f"posix.ops.{name}"
                    )
                counter.inc()
                if self._op_seconds is None:
                    self._op_seconds = self.metrics.histogram(
                        "posix.op_seconds", OP_LATENCY_BOUNDS
                    )
                self._op_seconds.observe(elapsed)
        return result

    def _stat_work(self, path: str) -> Generator:
        """MV lookup for a stat; returns the IndexFile or None."""
        try:
            index = yield from self.mv.lookup_index(path)
            return index
        except FileNotFoundOLFSError:
            return None

    # ------------------------------------------------------------------
    # Client-visible calls
    # ------------------------------------------------------------------
    def write_file(
        self,
        path: str,
        data: bytes,
        logical_size: Optional[int] = None,
    ) -> Generator:
        """Create or update a file (the Figure 7 write sequence).

        Returns the :class:`OpTrace`.
        """
        with self.engine.trace.span(
            "posix.write", "posix", {"path": path, "bytes": len(data)}
        ):
            trace = OpTrace("write")
            index = yield from self._op("stat", self._stat_work(path), trace)
            kind = yield from self.mv.entry_kind(path)
            if kind == "dir":
                raise IsADirectoryOLFSError(f"{path!r} is a directory")
            creating = index is None
            if creating:
                # The frontend (samba) re-stats around creation (§5.3).
                for _ in range(self.frontend_extra_write_stats):
                    yield from self._op("stat", self._stat_work(path), trace)
                index = IndexFile(path)
                yield from self._op(
                    "mknod", self.mv.write_index(path, index), trace
                )
                yield from self._op("stat", self._stat_work(path), trace)

            # §4.6: update in place when the current version sits in an open
            # bucket with room (no new version entry — the old bytes are
            # overwritten); otherwise the regenerating update writes the new
            # copy elsewhere and bumps the version.
            prefer = None
            avoid: set = set()
            if not creating:
                old_locations = index.current.locations
                # Every live version sitting in a still-open bucket must not
                # be overwritten by the regenerating update.
                for entry in index.entries:
                    for image_id in entry.locations:
                        if self.wbm.find_bucket(image_id) is not None:
                            avoid.add(image_id)
                in_place_ok = (
                    self.config.update_in_place
                    and len(old_locations) == 1
                    and self.wbm.find_bucket(old_locations[0]) is not None
                )
                if in_place_ok:
                    prefer = old_locations[0]
                    avoid.discard(prefer)

            def do_write() -> Generator:
                image_ids, sizes = yield from self.wbm.write_file(
                    path,
                    data,
                    logical_size,
                    mtime=self.engine.now,
                    prefer_bucket=prefer,
                    avoid_buckets=avoid or None,
                )
                return image_ids, sizes

            image_ids, sizes = yield from self._op("write", do_write(), trace)
            size = len(data) if logical_size is None else int(logical_size)
            in_place = (
                not creating
                and prefer is not None
                and image_ids == [prefer]
            )
            entry = VersionEntry(
                version=(
                    index.current.version if in_place else index.next_version
                ),
                size=size,
                mtime=self.engine.now,
                locations=image_ids,
                subfile_sizes=sizes,
            )
            if in_place:
                index.entries[-1] = entry
            else:
                index.add_version(entry)
            index.forepart = self.foreparts.forepart_of(data)

            close = self.mv.write_index(path, index)
            yield from self._op("close", close, trace)
        return trace

    def read_file(
        self, path: str, version: Optional[int] = None
    ) -> Generator:
        """Read a file (the Figure 7 read sequence): stat; read; close.

        Returns a :class:`ReadResult`; multi-part files are reassembled
        across their subfile images (§4.5).
        """
        with self.engine.trace.span(
            "posix.read", "posix", {"path": path}
        ) as span:
            start = self.engine.now
            index = yield from self._op("stat", self._stat_work(path))
            if index is None:
                raise FileNotFoundOLFSError(f"{path!r}: no such file")
            entry = (
                index.current if version is None else index.version(version)
            )
            first_byte = None
            used_forepart = False
            if (
                index.forepart
                and version is None
                and self._needs_mechanical_fetch(entry)
            ):
                # §4.8: answer the first bytes from the index file right away.
                used_forepart = True
                from repro.olfs.forepart import FOREPART_RESPONSE_SECONDS

                first_byte = (
                    self.engine.now - start
                ) + FOREPART_RESPONSE_SECONDS

            def do_read() -> Generator:
                parts = []
                for image_id in entry.locations:
                    result = yield from self.fetcher.fetch_file(image_id, path)
                    parts.append(result)
                return parts

            timeout = self.config.client_read_timeout
            if timeout is not None and not used_forepart:
                # §4.8: an impatient client gives up if the fetch outlasts its
                # deadline; the fetch keeps running in the background (and
                # warms the cache), but this call errors out.
                from repro.errors import TimeoutOLFSError
                from repro.sim.engine import FirstOf

                def deadline() -> Generator:
                    yield Delay(timeout)
                    return None

                def race() -> Generator:
                    spawn = self.engine.spawn
                    fetch_process = spawn(do_read(), name="client-fetch")
                    timer_process = spawn(deadline(), name="client-timer")
                    index, value = yield FirstOf(
                        [fetch_process, timer_process]
                    )
                    if index == 1:
                        raise TimeoutOLFSError(
                            f"read of {path!r} exceeded the client's "
                            f"{timeout:.0f} s deadline"
                        )
                    return value

                try:
                    parts = yield from self._op("read", race())
                except TimeoutOLFSError:
                    raise
            else:
                parts = yield from self._op("read", do_read())
            if first_byte is None:
                first_byte = self.engine.now - start
            yield from self._op("close")
            data = b"".join(part.data for part in parts)
            result = ReadResult(
                data=data,
                source=parts[-1].source if parts else "none",
                first_byte_seconds=first_byte,
                total_seconds=self.engine.now - start,
                used_forepart=used_forepart,
            )
            span.tag("source", result.source)
        return result

    def _needs_mechanical_fetch(self, entry: VersionEntry) -> bool:
        from repro.olfs.images import BURNED

        for image_id in entry.locations:
            record = self.fetcher.dim.records.get(image_id)
            if record is None:
                continue
            if record.state == BURNED and record.image is None:
                if record.image_id not in self.fetcher.cache:
                    in_drive = any(
                        ds.find_disc(record.disc_id) is not None
                        for ds in self.fetcher.mc.mech.drive_sets
                    )
                    if not in_drive:
                        return True
        return False

    def stat(self, path: str) -> Generator:
        """getattr: size/mtime/versions from the index file."""
        with self.engine.trace.span("posix.stat", "posix", {"path": path}):
            index = yield from self._op("stat", self._stat_work(path))
            if index is None:
                kind = yield from self.mv.entry_kind(path)
                if kind == "dir":
                    return {"type": "dir"}
                raise FileNotFoundOLFSError(f"{path!r}: no such entry")
            entry = index.current
            return {
                "type": "file",
                "size": entry.size,
                "mtime": entry.mtime,
                "version": entry.version,
                "versions": index.versions(),
                "locations": list(entry.locations),
            }

    def mkdir(self, path: str) -> Generator:
        with self.engine.trace.span("posix.mkdir", "posix", {"path": path}):
            kind = yield from self.mv.entry_kind(path)
            if kind is not None:
                raise FileExistsOLFSError(f"{path!r} exists")
            yield from self._op("mkdir", self.mv.make_dir(path))

    def readdir(self, path: str) -> Generator:
        with self.engine.trace.span("posix.readdir", "posix", {"path": path}):
            names = yield from self._op("readdir", self.mv.listdir(path))
        return names

    def unlink(self, path: str) -> Generator:
        """Remove from the global namespace.  Data already burned stays on
        its discs (WORM); OLFS remains a traceable file system (§4.6)."""
        with self.engine.trace.span("posix.unlink", "posix", {"path": path}):
            yield from self._op("unlink", self.mv.remove_index(path))

    def versions(self, path: str) -> Generator:
        index = yield from self.mv.lookup_index(path)
        return index.versions()
