"""Preliminary Bucket Writing: the WBM module (§4.3, §4.5).

Incoming file data lands in *buckets* — updatable UDF volumes (Linux loop
devices in the prototype) on the disk write buffer.  A filled bucket closes
and becomes a disc image with the same image ID.  The manager implements
the §4.5 partitioning policy:

* first-come-first-served into the currently open, not-full bucket;
* the unique-file-path rule — a file's ancestor directory chain is created
  inside the bucket (§4.4);
* files that outgrow the open bucket split into subfiles across
  consecutive images, with a link file on each later image pointing back
  to the previous subfile (§4.5).

Every write charges the buffer volume assigned to the USER_WRITE stream.
"""

from __future__ import annotations

import json
from typing import Callable, Generator, Optional

from repro.errors import NoSpaceOLFSError, ReadOnlyOLFSError
from repro.olfs.config import BUCKET_ACCESS_SECONDS, OLFSConfig
from repro.sim.engine import Delay, Engine
from repro.storage.volume import Volume
from repro.udf.constants import BLOCK_SIZE
from repro.udf.entry import blocks_for_data
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage

#: Suffix of the §4.5 link files written next to continued subfiles.
LINK_SUFFIX = ".roslink"


#: Open buckets kept ready ("a couple of updatable buckets", §4.3).
OPEN_BUCKETS = 2


def link_path(path: str, part: int) -> str:
    return f"{path}{LINK_SUFFIX}{part}"


class Bucket:
    """One open, updatable UDF volume accumulating incoming files."""

    def __init__(self, engine: Engine, image_id: str, capacity: int):
        self.engine = engine
        self.image_id = image_id
        self.filesystem = UDFFileSystem(capacity, label=image_id)
        self.closed = False

    @property
    def is_empty(self) -> bool:
        return self.filesystem.used_blocks <= 1

    @property
    def free_bytes(self) -> int:
        return self.filesystem.free_bytes

    def fits(self, path: str, nbytes: int) -> bool:
        return self.filesystem.fits(path, nbytes)

    def max_data_bytes_for(self, path: str, extra_entries: int = 0) -> int:
        """Largest file payload at ``path`` this bucket can still take."""
        overhead = self.filesystem.blocks_needed_for(path, 0)
        overhead += extra_entries
        free = self.filesystem.free_blocks - overhead
        return max(0, free * BLOCK_SIZE)

    def to_image(self) -> DiscImage:
        """Close the bucket into an immutable disc image (§4.3)."""
        self.filesystem.close()
        self.closed = True
        return DiscImage(self.image_id, kind="data", filesystem=self.filesystem)


class WritingBucketManager:
    """Creates, fills, closes and recycles buckets (the WBM module)."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        volume: Volume,
        on_bucket_closed: Optional[Callable[[DiscImage], None]] = None,
        on_bucket_created: Optional[Callable[[str], None]] = None,
    ):
        self.engine = engine
        self.config = config
        self.volume = volume
        #: called with the new DiscImage whenever a bucket fills and closes
        self.on_bucket_closed = on_bucket_closed
        #: called with the image ID whenever a fresh bucket opens
        self.on_bucket_created = on_bucket_created
        self._buckets: list[Bucket] = []
        self._image_counter = 0
        self.buckets_created = 0
        self.buckets_closed = 0
        for _ in range(OPEN_BUCKETS):
            self._new_bucket()

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _new_bucket(self) -> Bucket:
        self._image_counter += 1
        image_id = f"img-{self._image_counter:08d}"
        bucket = Bucket(self.engine, image_id, self.config.bucket_capacity)
        # Under buffer pressure the volume's reclaimer (the read cache)
        # evicts burned images before this allocation can fail (§5.3:
        # the buffer is a cache, not a hard capacity limit).
        self.volume.allocate(self.config.bucket_capacity)
        self._buckets.append(bucket)
        self.buckets_created += 1
        if self.on_bucket_created is not None:
            self.on_bucket_created(image_id)
        return bucket

    def open_buckets(self) -> list[Bucket]:
        return [bucket for bucket in self._buckets if not bucket.closed]

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        open_buckets = self.open_buckets()
        return {
            "open": len(open_buckets),
            "created": self.buckets_created,
            "closed": self.buckets_closed,
            "open_fill_bytes": sum(
                bucket.filesystem.used_bytes for bucket in open_buckets
            ),
        }

    def find_bucket(self, image_id: str) -> Optional[Bucket]:
        for bucket in self._buckets:
            if bucket.image_id == image_id and not bucket.closed:
                return bucket
        return None

    def _close(self, bucket: Bucket) -> DiscImage:
        image = bucket.to_image()
        self._buckets.remove(bucket)
        self.buckets_closed += 1
        # The closed image keeps occupying buffer space until the image
        # manager takes ownership; transfer the reservation to it *before*
        # recycling.  The hand-off releases a full bucket's reservation
        # and re-allocates at most that much (the image's logical size),
        # so it can never fail — whereas recycling first could eat the
        # freed space and leave the sealed image orphaned in the manager
        # (readable by nobody: not an open bucket, never buffered).
        self.volume.release(self.config.bucket_capacity)
        if self.on_bucket_closed is not None:
            self.on_bucket_closed(image)
        # Recycle: keep OPEN_BUCKETS open buckets ready.
        # Under genuine buffer pressure this may raise ENOSPC at the
        # writer that triggered the close — clean backpressure, with the
        # closed image already safely handed off.
        while len(self.open_buckets()) < OPEN_BUCKETS:
            self._new_bucket()
        return image

    def close_nonempty_buckets(self) -> list[DiscImage]:
        """Force-close every bucket holding data (flush, §4.7)."""
        images = []
        for bucket in list(self.open_buckets()):
            if not bucket.is_empty:
                images.append(self._close(bucket))
        return images

    # ------------------------------------------------------------------
    # Writing (the §4.5 partitioning policy)
    # ------------------------------------------------------------------
    def write_file(
        self,
        path: str,
        data: bytes,
        logical_size: Optional[int] = None,
        mtime: float = 0.0,
        prefer_bucket: Optional[str] = None,
        avoid_buckets: Optional[set] = None,
    ) -> Generator:
        """Write a file into buckets; returns ``(image_ids, sizes)``.

        ``prefer_bucket`` implements §4.6 update-in-place; ``avoid_buckets``
        implements the regenerating update — open buckets holding any live
        version of this path must not be overwritten, so the new copy
        lands elsewhere.

        Normally one bucket takes the whole file.  When the open bucket
        cannot hold it, the file splits: the first subfile fills the
        current bucket (which closes), later subfiles continue in fresh
        buckets carrying link files pointing at the previous part (§4.5).

        Bucket choice happens before the timed transfer, so a concurrent
        writer can fill or seal the chosen bucket while this write's data
        is still in flight.  Such a raced write restarts against another
        bucket (the transfer time already spent stands, as it would for a
        real rewrite); only the bucket-filesystem write is transactional.
        """
        size = len(data) if logical_size is None else int(logical_size)
        remaining_data = data
        remaining_size = size
        image_ids: list[str] = []
        sizes: list[int] = []
        part = 0
        races = 0
        while True:
            bucket = None
            if prefer_bucket is not None:
                # §4.6 update-in-place: reuse the version's open bucket
                # when it still has room.
                candidate = self.find_bucket(prefer_bucket)
                if candidate is not None and candidate.fits(
                    path, remaining_size
                ):
                    bucket = candidate
                else:
                    # In-place impossible: fall back to a regenerating
                    # update, which must not clobber the old version.
                    avoid_buckets = set(avoid_buckets or ()) | {prefer_bucket}
                prefer_bucket = None
            if bucket is None:
                bucket = self._pick_bucket(
                    path, remaining_size, avoid_buckets
                )
            extra_entries = 2 if part > 0 else 0  # link file entry + data block
            room = bucket.max_data_bytes_for(path, extra_entries)
            if room >= remaining_size:
                try:
                    yield from self._timed_write(
                        bucket, path, remaining_data, remaining_size, mtime
                    )
                except (NoSpaceOLFSError, ReadOnlyOLFSError):
                    avoid_buckets = self._raced(bucket, races, avoid_buckets)
                    races += 1
                    continue
                if part > 0:
                    self._write_link(bucket, path, part, image_ids[-1], mtime)
                image_ids.append(bucket.image_id)
                sizes.append(remaining_size)
                if bucket.free_bytes < 2 * BLOCK_SIZE:
                    self._close(bucket)
                return image_ids, sizes
            if room < BLOCK_SIZE:
                if bucket.is_empty:
                    # Even a fresh bucket cannot hold this path's ancestor
                    # chain plus one data block: the path is too deep for
                    # the configured bucket capacity.
                    raise NoSpaceOLFSError(
                        f"path {path!r} does not fit an empty bucket of "
                        f"{self.config.bucket_capacity} bytes"
                    )
                # Bucket too full even for one data block: close, retry.
                self._close(bucket)
                continue
            # Split: write what fits, close the bucket, continue.
            take = room
            real_take = min(take, len(remaining_data))
            chunk = remaining_data[:real_take]
            try:
                yield from self._timed_write(bucket, path, chunk, take, mtime)
            except (NoSpaceOLFSError, ReadOnlyOLFSError):
                avoid_buckets = self._raced(bucket, races, avoid_buckets)
                races += 1
                continue
            if part > 0:
                self._write_link(bucket, path, part, image_ids[-1], mtime)
            image_ids.append(bucket.image_id)
            sizes.append(take)
            remaining_data = remaining_data[real_take:]
            remaining_size -= take
            part += 1
            self._close(bucket)

    #: restart bound for raced writes.  Every restart re-pays the bucket
    #: access latency and the buffer-volume transfer, so a livelock would
    #: need another writer to fill a fresh bucket during every retry —
    #: the cap only turns a pathological storm into a clean ENOSPC.
    MAX_WRITE_RACES = 16

    def _raced(
        self, bucket: Bucket, races: int, avoid_buckets: Optional[set]
    ) -> set:
        """Check a mid-transfer bucket race; returns the new avoid set."""
        if races + 1 >= self.MAX_WRITE_RACES:
            raise NoSpaceOLFSError(
                f"write restarted {races + 1} times: every chosen bucket "
                "was filled or sealed by concurrent writers mid-transfer"
            )
        return set(avoid_buckets or ()) | {bucket.image_id}

    def _pick_bucket(
        self, path: str, nbytes: int, avoid_buckets: Optional[set] = None
    ) -> Bucket:
        """First-come-first-served: the first open bucket that fits, else
        the emptiest open bucket (which the caller may split into)."""
        avoid = avoid_buckets or set()
        open_buckets = [
            bucket
            for bucket in self.open_buckets()
            if bucket.image_id not in avoid
        ]
        if not open_buckets:
            open_buckets = [self._new_bucket()]
        for bucket in open_buckets:
            if bucket.fits(path, nbytes):
                return bucket
        return max(open_buckets, key=lambda b: b.free_bytes)

    def _timed_write(
        self,
        bucket: Bucket,
        path: str,
        data: bytes,
        logical_size: int,
        mtime: float,
    ) -> Generator:
        yield Delay(BUCKET_ACCESS_SECONDS)
        yield from self.volume.write(logical_size)
        bucket.filesystem.write_file(
            path, data, logical_size=logical_size, mtime=mtime, overwrite=True
        )

    def _write_link(
        self,
        bucket: Bucket,
        path: str,
        part: int,
        previous_image_id: str,
        mtime: float,
    ) -> None:
        """§4.5: a link file on the continuation image points to the
        previous subfile so the namespace reconstructs without MV."""
        payload = json.dumps(
            {"continues": previous_image_id, "part": part, "path": path}
        ).encode()
        bucket.filesystem.write_file(
            link_path(path, part), payload, mtime=mtime, overwrite=True
        )

    # ------------------------------------------------------------------
    # Reads that hit an open bucket
    # ------------------------------------------------------------------
    def read_file(self, image_id: str, path: str) -> Generator:
        """Read file content from a still-open bucket (timed)."""
        bucket = self.find_bucket(image_id)
        if bucket is None:
            raise NoSpaceOLFSError(f"bucket {image_id} is not open")
        entry = bucket.filesystem.file_entry(path)
        yield Delay(BUCKET_ACCESS_SECONDS)
        yield from self.volume.read(entry.size)
        return entry.data
