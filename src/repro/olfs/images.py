"""Disc Image Management (DIM): registry, locations, delayed parity (§4.7).

Tracks every disc image's life cycle::

    open bucket -> buffered (closed, on the disk buffer, unburned)
                -> burned   (on a disc; content may stay cached)
                -> lost     (unrecoverable, or superseded by a rewrite)

and maintains the DILindex — image ID to physical location (§4.1) — and
the ready queue burn tasks are formed from (unclaimed buffered data).  Parity
images are generated *delayed*: only once a full array of data images is
ready, by streaming all data images off the buffer and writing the parity
image back (the four-stream interference scenario of §4.7; reads/writes
are charged to the volumes the I/O scheduler assigns).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Generator, Optional

import numpy as np

from repro.errors import FilesystemError
from repro.olfs.config import OLFSConfig
from repro.sim.engine import AllOf, Engine
from repro.storage.gf256 import generator_coefficient, gf_mul_bytes
from repro.storage.scheduler import IOStreamScheduler, StreamKind
from repro.udf.image import DiscImage

BUFFERED = "buffered"
BURNED = "burned"
IN_BUCKET = "in-bucket"
LOST = "lost"


@dataclass
class ImageRecord:
    """DILindex entry: where an image is and what state it is in."""

    image_id: str
    kind: str
    state: str
    logical_size: int = 0
    #: in-memory content while buffered/cached; None once evicted, and
    #: for a parity image until its burn task's first round
    image: Optional[DiscImage] = None
    #: disc holding the burned image, if any
    disc_id: Optional[str] = None
    #: tray position of that disc's array (roller index, layer, slot)
    array_address: Optional[tuple] = None
    #: sha256 of the serialized image as burned — the stored checksum the
    #: background scrubber verifies disc sectors against (§4.7)
    checksum: Optional[str] = None
    #: position in the DILindex: the order records were created in
    rank: int = field(default=-1, compare=False, repr=False)


_rank = attrgetter("rank")


class DiscImageManager:
    """The DIM module plus the DILindex."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        scheduler: IOStreamScheduler,
    ):
        self.engine = engine
        self.config = config
        self.scheduler = scheduler
        self.records: dict[str, ImageRecord] = {}
        #: ids a burn task has claimed since claims were last released
        self.claimed: set[str] = set()
        #: buffered data images not claimed, in DILindex order (read-only)
        self.ready: list[ImageRecord] = []
        self._parity_counter = itertools.count(1)

    def _add(self, record: ImageRecord) -> ImageRecord:
        """Enter a new image's record at the end of the DILindex."""
        record.rank = len(self.records)
        self.records[record.image_id] = record
        self._place(record)
        return record

    def _place(self, record: ImageRecord) -> None:
        """Queue ``record`` exactly while it is buffered, unclaimed data."""
        ready = self.ready
        at = bisect.bisect_left(ready, record.rank, key=_rank)
        queued = at < len(ready) and ready[at] is record
        if (
            record.kind == "data"
            and record.state == BUFFERED
            and record.image_id not in self.claimed
        ):
            if not queued:
                ready.insert(at, record)
        elif queued:
            del ready[at]

    # ------------------------------------------------------------------
    # Life-cycle transitions
    # ------------------------------------------------------------------
    def register_open_bucket(self, image_id: str) -> ImageRecord:
        return self._add(ImageRecord(image_id, kind="data", state=IN_BUCKET))

    def bucket_closed(self, image: DiscImage) -> ImageRecord:
        """A bucket became an image: pin it on the buffer until burned."""
        record = self.records.get(image.image_id)
        if record is None:
            record = ImageRecord(image.image_id, kind=image.kind, state=BUFFERED)
            self._add(record)
        record.state = BUFFERED
        record.image = image
        record.logical_size = image.logical_size
        self._place(record)
        volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
        volume.allocate(image.logical_size)
        return record

    def register_parity(self, image_id: str, logical_size: int) -> ImageRecord:
        """A parity record, with no image until :meth:`encode_parity`."""
        record = self._add(ImageRecord(
            image_id, kind="parity", state=BUFFERED, logical_size=logical_size
        ))
        # Buffer-space accounting is kept on the USER_WRITE volume for
        # every buffered image, wherever its stream was charged.
        volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
        volume.allocate(logical_size)
        return record

    def claim(self, records: list[ImageRecord]) -> None:
        """A burn task took these images: they leave the ready queue."""
        for record in records:
            self.claimed.add(record.image_id)
            self._place(record)

    def release_claims(self, keep: set[str]) -> list[ImageRecord]:
        """Forget every claim but those in ``keep``; returns the released
        images that are still buffered (back in the ready queue), in
        DILindex order."""
        released = self.claimed - keep
        self.claimed -= released
        for image_id in released:
            self._place(self.records[image_id])
        return [record for record in self.ready if record.image_id in released]

    def mark_burned(
        self,
        image_id: str,
        disc_id: str,
        blob: bytes,
        array_address: Optional[tuple] = None,
    ) -> None:
        """``blob`` is the serialized image exactly as burned."""
        record = self.records[image_id]
        record.state = BURNED
        record.disc_id = disc_id
        record.array_address = array_address
        self._place(record)
        # Fingerprint the burned bytes so scrubs can verify track payloads
        # end-to-end (content integrity, not just readable-sector
        # bookkeeping).
        if record.checksum is None and record.image is not None:
            record.checksum = hashlib.sha256(blob).hexdigest()

    def mark_lost(self, image_id: str) -> None:
        """Superseded or unrecoverable: the image's content is gone."""
        record = self.records.get(image_id)
        if record is not None:
            record.state = LOST
            record.image = None
            self._place(record)

    def evict_content(self, image_id: str) -> None:
        """Drop a burned image's bytes from the disk buffer."""
        record = self.records[image_id]
        if record.state != BURNED:
            raise FilesystemError(
                f"cannot evict unburned image {image_id} ({record.state})"
            )
        if record.image is not None:
            volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
            volume.release(record.logical_size)
            record.image = None

    def restore_content(self, image_id: str, image: DiscImage) -> None:
        """An image fetched back from disc re-enters the buffer (RC)."""
        record = self.records[image_id]
        if record.image is None:
            volume = self.scheduler.volume_for(StreamKind.USER_WRITE)
            volume.allocate(record.logical_size or image.logical_size)
        record.image = image
        if not record.logical_size:
            record.logical_size = image.logical_size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record(self, image_id: str) -> ImageRecord:
        if image_id not in self.records:
            raise FilesystemError(f"unknown image {image_id}")
        return self.records[image_id]

    def get_buffered(self, image_id: str) -> Optional[DiscImage]:
        record = self.records.get(image_id)
        return record.image if record else None

    # ------------------------------------------------------------------
    # Delayed parity generation (§4.7)
    # ------------------------------------------------------------------
    def generate_parity(self, data_images: list[DiscImage]) -> Generator:
        """The timed part of parity generation over a prepared array.

        Streams every data image off the buffer (parity-read), then
        registers each parity image and writes it back (parity-write);
        both streams are charged to the volumes the scheduler assigned,
        so this is exactly the interference workload §4.7 describes.
        Returns the parity records, ``[P]`` for the 11+1 schema and
        ``[P, Q]`` for 10+2, whose bytes :meth:`encode_parity` makes.
        """
        if not data_images:
            raise FilesystemError("parity over an empty image set")
        read_volume = self.scheduler.volume_for(StreamKind.PARITY_READ)
        write_volume = self.scheduler.volume_for(StreamKind.PARITY_WRITE)
        logical = max(image.logical_size for image in data_images)

        def read_one(blob_size: float) -> Generator:
            yield from read_volume.read(blob_size)

        readers = [
            self.engine.spawn(
                read_one(image.logical_size),
                name=f"parity-read-{image.image_id}",
            )
            for image in data_images
        ]
        yield AllOf(readers)

        records = []
        for _ in range(self.config.parity_discs_per_array):
            parity_id = f"par-{next(self._parity_counter):08d}"
            yield from write_volume.write(logical)
            records.append(self.register_parity(parity_id, logical))
        return records

    @staticmethod
    def encode_parity(records: list, blobs: list) -> list[DiscImage]:
        """Attach (and return) ``records``' parity images over the data
        ``blobs``: P, then Q (see :func:`parity_shard`)."""
        for position, record in enumerate(records):
            record.image = DiscImage(
                record.image_id,
                kind="parity",
                raw=parity_shard(blobs, position),
                logical_size=record.logical_size,
            )
        return [record.image for record in records]


def parity_shard(blobs: list, position: int) -> np.ndarray:
    """Parity shard ``position`` (0 is P, 1 is Q) over the data ``blobs``,
    as wide as the widest.

    Each blob folds into its own prefix, unpadded: a zero-padded tail
    adds nothing, since ``0 ^ x = x`` and ``0 * g = 0`` in GF(256).  So
    the shard equals :func:`~repro.storage.raid.erasure_parity` over
    :func:`pad_blobs`, in erasure_decode's order, without the padded
    copies."""
    shard = np.zeros(max(map(len, blobs), default=0), dtype=np.uint8)
    for index, blob in enumerate(blobs):
        data = np.frombuffer(blob, dtype=np.uint8)
        if position:
            data = gf_mul_bytes(data, generator_coefficient(index))
        shard[: len(data)] ^= data
    return shard


class ParityRecipe:
    """A burned parity track's payload, kept as what makes it (§4.7).

    A parity image is derived: its volume's header bytes and the data
    blobs its array burned, which the array's data discs keep anyway.
    ``bytes()`` rebuilds the burned bytes through :func:`parity_shard`,
    the encoder that made them; ``len()`` is their length."""

    __slots__ = ("head", "blobs", "position")

    def __init__(self, volume: bytes, blobs: list, position: int):
        """``volume``: the parity image's bytes as burned, shard
        ``position`` over the data ``blobs`` after its header."""
        self.blobs = blobs
        self.position = position
        #: the header, copied out of ``volume`` (a slice of bytes is a
        #: copy), so the recipe keeps no reference to ``volume`` itself
        self.head = volume[: len(volume) - max(map(len, blobs), default=0)]

    def __len__(self) -> int:
        return len(self.head) + max(map(len, self.blobs), default=0)

    def __bytes__(self) -> bytes:
        return b"".join(
            (self.head, parity_shard(self.blobs, self.position))
        )


def pad_blobs(blobs: list[bytes]) -> list[np.ndarray]:
    """``blobs`` as equal-length erasure shards, zero-padded to the widest.

    A data image's blob is never wider than its array's parity images,
    so padding survivors together with a parity raw restores the width
    they were encoded at."""
    width = max(map(len, blobs), default=0)
    shards = []
    for blob in blobs:
        shard = np.zeros(width, dtype=np.uint8)
        shard[: len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        shards.append(shard)
    return shards
