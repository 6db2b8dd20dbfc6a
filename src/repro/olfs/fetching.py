"""Fetching Task Management (FTM): resolving reads to data, anywhere (§4.1).

``fetch_file`` serves a read given the image ID and unique file path from
the index file.  The resolution ladder mirrors Table 1:

1. open bucket on the disk buffer                  (~1 ms)
2. closed image on the disk buffer / read cache    (~2 ms)
3. disc already in a drive                         (~0.2 s)
4. disc array in the roller, free drives           (~70 s)
5. disc array in the roller, occupied drives       (~155 s)
6. all drives burning                              (minutes, or the
   interrupt-burn policy)

After a mechanical fetch the whole disc image is copied back to the disk
buffer in the background (the read cache admits it), so re-reads hit case 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import FileNotFoundOLFSError, FilesystemError
from repro.olfs.bucket import WritingBucketManager
from repro.olfs.cache import ReadCache
from repro.faults.policy import RetryPolicy
from repro.olfs.config import (
    BUCKET_ACCESS_SECONDS,
    IMAGE_ACCESS_SECONDS,
    OLFSConfig,
)
from repro.olfs.images import BURNED, BUFFERED, IN_BUCKET, DiscImageManager
from repro.olfs.mechanical import MechanicalController, PRIORITY_FETCH
from repro.olfs.prefetch import FileGrainCache, SequentialPrefetcher
from repro.sim.engine import Delay, Engine
from repro.storage.scheduler import IOStreamScheduler, StreamKind
from repro.udf.image import DiscImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.olfs.burning import BurnController

#: Byte budget of the file-grain cache (``cache_granularity='file'``).
FILE_CACHE_BYTES = 8 * 1024 * 1024

#: Retries for mechanical fetches (drive/PLC errors; media errors
#: propagate so reads fall through to scrub + parity repair).
FETCH_RETRY = RetryPolicy(
    attempts=3, base_delay=1.0, multiplier=2.0, max_delay=30.0
)


@dataclass
class FetchResult:
    """Where a read was served from and the data itself."""

    data: bytes
    source: str  # bucket | file-cache | buffer | drive | roller


class FetchController:
    """The FTM module."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        dim: DiscImageManager,
        wbm: WritingBucketManager,
        cache: ReadCache,
        mc: MechanicalController,
        scheduler: IOStreamScheduler,
        burn_controller: Optional["BurnController"] = None,
    ):
        self.engine = engine
        self.config = config
        self.dim = dim
        self.wbm = wbm
        self.cache = cache
        self.mc = mc
        self.scheduler = scheduler
        self.burn_controller = burn_controller
        self.fetch_tasks = 0
        self.fetch_retries = 0
        #: an image's bytes on disc -> its parse, which WORM never makes
        #: stale.  Keyed by what ``ImageOnDisc.read()`` returns, so every
        #: fetch still reads the disc (sector errors raise there).
        self._parsed: dict[bytes, DiscImage] = {}
        #: §4.1 future-work knobs (config-gated)
        self.file_cache = (
            FileGrainCache(FILE_CACHE_BYTES)
            if config.cache_granularity == "file"
            else None
        )
        self.prefetcher = (
            SequentialPrefetcher(config.prefetch_siblings)
            if config.prefetch_siblings > 0
            else None
        )

    def forget_file_cache(self) -> None:
        """Drop every cached file payload: a fresh, empty cache with
        zeroed hit and miss counters (no-op in image-grain mode)."""
        if self.file_cache is not None:
            self.file_cache = FileGrainCache(self.file_cache.capacity_bytes)

    # ------------------------------------------------------------------
    def fetch_file(self, image_id: str, path: str) -> Generator:
        """Read ``path`` out of ``image_id`` wherever it lives.

        Returns a :class:`FetchResult`.
        """
        trace = self.engine.trace
        with trace.span(
            "ftm.fetch", "ftm", {"image_id": image_id, "path": path}
        ) as span:
            record = self.dim.record(image_id)
            cached_file = image = None
            if self.file_cache is not None and record.state == BURNED:
                cached_file = self.file_cache.get(image_id, path)
            if record.state == BURNED and cached_file is None:
                # Burned content lives under the read cache's LRU policy.
                image = self.cache.get(image_id)
                trace.event(
                    "cache.hit" if image is not None else "cache.miss",
                    "cache",
                    {"image_id": image_id},
                )
            if image is None and cached_file is None:
                image = self.dim.get_buffered(image_id)
            if record.state == IN_BUCKET:
                with trace.span("ftm.read_bucket", "ftm"):
                    data = yield from self.wbm.read_file(image_id, path)
                result = FetchResult(data, "bucket")
            elif cached_file is not None:
                with trace.span("ftm.read_file_cache", "ftm"):
                    volume = self.scheduler.volume_for(StreamKind.USER_READ)
                    yield Delay(BUCKET_ACCESS_SECONDS)
                    yield from volume.read(len(cached_file))
                result = FetchResult(cached_file, "file-cache")
            elif image is not None:
                # A closed image on the disk buffer (~2 ms for small files).
                with trace.span("ftm.read_buffer", "ftm"):
                    volume = self.scheduler.volume_for(StreamKind.USER_READ)
                    entry = image.file_entry(path)
                    yield Delay(IMAGE_ACCESS_SECONDS)
                    yield from volume.read(entry.size)
                result = FetchResult(entry.data, "buffer")
            elif record.state != BURNED:
                raise FilesystemError(
                    f"image {image_id} unreadable in state {record.state}"
                )
            else:
                with trace.span(
                    "ftm.read_disc", "ftm", {"disc_id": record.disc_id}
                ):
                    result = yield from self._read_from_disc(record, path)
            span.tag("source", result.source)
        return result

    def _read_from_disc(self, record, path: str) -> Generator:
        """Cases 3-6, under the fetch retry policy: a drive or mechanics
        error is journalled and the mechanics reset before the retry; a
        media error (:class:`~repro.errors.SectorError`) propagates so
        the caller can fall through to the scrub + parity-repair path."""

        def failed(error, attempt) -> None:
            self.fetch_retries += 1
            self.engine.trace.event(
                "ftm.fetch_retry",
                "ftm",
                {"image_id": record.image_id, "attempt": attempt},
            )
            if self.engine.recorder.enabled:
                self.engine.recorder.record(
                    "ftm.retry",
                    image_id=record.image_id,
                    attempt=attempt,
                    error=str(error),
                )

        return FETCH_RETRY.retry(
            lambda: self._read_from_disc_once(record, path),
            failed, self.mc.mech, PRIORITY_FETCH,
        )

    def _read_from_disc_once(self, record, path: str) -> Generator:
        """Cases 3-6: the disc itself, maybe via mechanical operations."""
        self.fetch_tasks += 1
        was_in_drive = any(
            drive_set.find_disc(record.disc_id) is not None
            for drive_set in self.mc.mech.drive_sets
        )
        drive, grant = yield from self.mc.ensure_disc_in_drive(record.disc_id)
        try:
            yield from drive.mount()
            yield from drive.seek()
            on_disc = drive.disc.image(record.image_id)
            if on_disc is None:
                raise FileNotFoundOLFSError(
                    f"image {record.image_id} not on disc {drive.disc.disc_id}"
                )
            blob = on_disc.read()
            image = self._parsed.get(blob)
            if image is None:
                image = self._parsed[blob] = DiscImage.deserialize(blob)
            entry = image.file_entry(path)
            # Stream the file's bytes off the disc.
            yield from drive.read_bytes(entry.size)
        except BaseException:
            grant.release()
            raise
        # Background: populate the configured cache tier; the set lock is
        # released once the background copy finishes.
        if self.file_cache is not None:
            self.engine.spawn(
                self._file_cache_fill(drive, grant, record, image, path, entry),
                name=f"file-cache-fill-{record.image_id}",
            )
        else:
            # Image-grain (paper default): copy the whole image back to
            # the disk buffer and admit it to the read cache.
            self.engine.spawn(
                self._cache_fill(drive, grant, record, image),
                name=f"cache-fill-{record.image_id}",
            )
        # The §4.8 interrupt policy: the read is served, resume burns.
        if self.burn_controller is not None:
            self.burn_controller.resume_interrupted()
        return FetchResult(entry.data, "drive" if was_in_drive else "roller")

    def _file_cache_fill(
        self, drive, grant, record, image, path, entry
    ) -> Generator:
        """File-grain admission (§4.1 future work): keep only the
        requested bytes (plus any sequential-prefetch siblings) on the
        buffer, not the whole image."""
        try:
            volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
            yield from volume.write(entry.size)
            self.file_cache.put(record.image_id, path, entry.data)
            if self.prefetcher is not None:
                for sibling in self.prefetcher.candidates(image, path):
                    sibling_entry = image.file_entry(sibling)
                    yield from drive.read_bytes(sibling_entry.size)
                    yield from volume.write(sibling_entry.size)
                    self.file_cache.put(
                        record.image_id, sibling, sibling_entry.data
                    )
                    self.prefetcher.prefetched += 1
        finally:
            grant.release()

    def _cache_fill(self, drive, grant, record, image) -> Generator:
        """Copy the fetched image to the disk buffer, then free the set."""
        try:
            with self.engine.trace.span(
                "ftm.cache_fill", "ftm", {"image_id": record.image_id}
            ):
                yield from drive.read_bytes(record.logical_size)
                volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
                yield from volume.write(record.logical_size)
                self.cache.put(record.image_id, image)
        finally:
            grant.release()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "fetch_tasks": self.fetch_tasks,
            "fetch_retries": self.fetch_retries,
            "file_cache": (
                {"entries": len(self.file_cache.entries)}
                if self.file_cache is not None
                else None
            ),
            "prefetched": (
                self.prefetcher.prefetched
                if self.prefetcher is not None
                else 0
            ),
        }
