"""Optical disc model: capacity, WORM semantics, tracks and POW.

A disc stores *tracks* (independent burn sessions).  ROS normally burns a
whole disc image in one session (*write-all-once*, §2.1); the
Pseudo-Over-Write (POW) mechanism lets a drive append further tracks at the
cost of a freshly formatted metadata zone per track, wasting capacity and
time — which is why OLFS only uses it for the interrupt-burn read policy
(§4.8).

Large-scale experiments use *declared sizes*: a track may claim a logical
size bigger than its real payload so that burn/read timing and capacity
accounting behave like full 25/100 GB media without allocating gigabytes of
RAM.  Content-correctness tests use real payloads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.errors import (
    DiscFullError,
    MediaError,
    SectorError,
    WormViolationError,
)

#: UDF / Blu-ray sector size in bytes (fixed by the standard, §4.5).
SECTOR_SIZE = 2048

#: Capacity lost to the formatted metadata zone of each POW track (§2.1:
#: "this mechanism causes capacity loss"); a modest, documented constant.
POW_METADATA_OVERHEAD = 128 * units.MB

#: Time the drive spends formatting a POW metadata zone ("tens of seconds").
POW_FORMAT_SECONDS = 30.0

#: Track-label suffixes of an image whose burn was interrupted (§4.8) and
#: later resumed on the same disc: the burned prefix, then the remainder.
#: :meth:`OpticalDisc.image` joins the pieces back into one image.
PARTIAL_SUFFIX = ".partial"
REST_SUFFIX = ".rest"


@dataclass(frozen=True)
class DiscType:
    """A class of optical media (capacity, speed class, rewritability)."""

    name: str
    capacity: int
    worm: bool
    reference_write_speed: float  # speed multiple (e.g. 6.0 = 6X)
    max_write_speed: float
    read_speed_mbs: float  # sustained single-drive read rate, MB/s


#: 25 GB single-layer write-once BD-R (reference 6X, measured up to 12X).
BD25 = DiscType(
    name="BD-R 25GB",
    capacity=25 * units.GB,
    worm=True,
    reference_write_speed=6.0,
    max_write_speed=12.0,
    read_speed_mbs=24.1,
)

#: 100 GB triple-layer write-once BDXL (reference 4X, 6X on BDR-PR1AME).
BD100 = DiscType(
    name="BDXL 100GB",
    capacity=100 * units.GB,
    worm=True,
    reference_write_speed=4.0,
    max_write_speed=6.0,
    read_speed_mbs=18.0,
)

#: Holographic disc (§2.1: "Hologram discs with 2TB have been realized
#: and demonstrated") — projected drive characteristics.
HOLO2TB = DiscType(
    name="Holographic 2TB",
    capacity=2 * units.TB,
    worm=True,
    reference_write_speed=80.0,  # ~360 MB/s page-parallel writes
    max_write_speed=80.0,
    read_speed_mbs=400.0,
)

#: 5D optical disc (§2.1: "poised to offer hundreds of TB capacity") —
#: femtosecond-laser voxel media, speculative throughput.
FIVED_DISC = DiscType(
    name="5D 360TB",
    capacity=360 * units.TB,
    worm=True,
    reference_write_speed=50.0,
    max_write_speed=50.0,
    read_speed_mbs=250.0,
)

#: Re-writable BD-RE: slow (2X), costly (§2.1).
BD25_RW = DiscType(
    name="BD-RE 25GB",
    capacity=25 * units.GB,
    worm=False,
    reference_write_speed=2.0,
    max_write_speed=2.0,
    read_speed_mbs=24.1,
)


class DiscStatus(enum.Enum):
    BLANK = "blank"
    OPEN = "open"  # has tracks, POW-appendable (metadata zone reserved)
    CLOSED = "closed"  # finalized; no further writes


@dataclass
class Track:
    """One burn session: contiguous sectors holding an image's bytes.

    ``payload`` is those bytes, or an object that ``bytes()`` rebuilds
    them from and ``len()`` measures (see :meth:`OpticalDisc.read_track`).
    """

    start_sector: int
    sector_count: int
    payload: bytes
    logical_size: int
    label: str = ""


def sectors_for(nbytes: int) -> int:
    """Number of 2 KB sectors needed to hold ``nbytes``."""
    return -(-int(nbytes) // SECTOR_SIZE)


@dataclass(frozen=True)
class ImageOnDisc:
    """One image as a disc holds it: a single track, or the pieces a
    resumed burn left, in track order."""

    disc: OpticalDisc
    image_id: str
    tracks: tuple[Track, ...]

    @property
    def logical_size(self) -> int:
        """Bytes a drive streams to read the whole image."""
        return sum(track.logical_size for track in self.tracks)

    @property
    def payload_length(self) -> int:
        """Length of the image's serialized bytes."""
        return sum(len(track.payload) for track in self.tracks)

    def read(self) -> bytes:
        """The image's bytes; a sector error on any piece raises.  Those
        of a one-track image are that track's payload object itself."""
        pieces = [self.disc.read_track(track) for track in self.tracks]
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)


class OpticalDisc:
    """A single optical disc with WORM/POW burn semantics.

    The disc tracks burned regions by sector; reads below go through the
    owning library's :class:`~repro.media.errors_model.SectorErrorModel`
    when one is attached.
    """

    def __init__(self, disc_id: str, disc_type: DiscType = BD25):
        self.disc_id = disc_id
        self.disc_type = disc_type
        self.tracks: list[Track] = []
        self.status = DiscStatus.BLANK
        #: sectors marked unreadable by the error model
        self.bad_sectors: set[int] = set()
        #: sectors wasted on POW metadata zones
        self._metadata_overhead_sectors = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.disc_type.capacity

    @property
    def used_sectors(self) -> int:
        data = sum(track.sector_count for track in self.tracks)
        return data + self._metadata_overhead_sectors

    @property
    def used_bytes(self) -> int:
        return self.used_sectors * SECTOR_SIZE

    @property
    def is_blank(self) -> bool:
        return self.status is DiscStatus.BLANK

    # ------------------------------------------------------------------
    # Burning
    # ------------------------------------------------------------------
    def burn_track(
        self,
        payload: bytes,
        logical_size: Optional[int] = None,
        label: str = "",
        close: bool = True,
    ) -> Track:
        """Burn one session onto the disc (state change only — timing is the
        drive's job).

        ``logical_size`` defaults to ``len(payload)``; when larger, capacity
        and timing accounting scale to it while content stays real.
        ``close=True`` finalizes the disc (write-all-once); ``close=False``
        leaves it POW-appendable, charging the metadata-zone overhead.
        """
        if self.status is DiscStatus.CLOSED:
            raise WormViolationError(f"disc {self.disc_id} is finalized")
        size = len(payload) if logical_size is None else int(logical_size)
        if size < len(payload):
            raise MediaError(
                f"logical size {size} smaller than payload {len(payload)}"
            )
        needed = sectors_for(size)
        overhead = 0
        if not close:
            overhead = sectors_for(POW_METADATA_OVERHEAD)
        free = self.capacity // SECTOR_SIZE - self.used_sectors
        if needed + overhead > free:
            raise DiscFullError(
                f"disc {self.disc_id}: need {needed + overhead} sectors, "
                f"only {free} free"
            )
        track = Track(
            start_sector=self.used_sectors,
            sector_count=needed,
            payload=payload,
            logical_size=size,
            label=label,
        )
        self.tracks.append(track)
        self._metadata_overhead_sectors += overhead
        self.status = DiscStatus.CLOSED if close else DiscStatus.OPEN
        return track

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def find_track(self, label: str) -> Optional[Track]:
        for track in self.tracks:
            if track.label == label:
                return track
        return None

    def image(self, image_id: Optional[str] = None) -> Optional[ImageOnDisc]:
        """The image ``image_id`` as this disc holds it, or None.

        The track labelled exactly ``image_id`` wins; otherwise every
        track of that image (label up to its first ``.``) is a piece of
        a resumed burn.  ``image_id`` defaults to the first track's.
        """
        if not self.tracks:
            return None
        if image_id is None:
            image_id = self.tracks[0].label.partition(".")[0]
        exact = self.find_track(image_id)
        if exact is not None:
            return ImageOnDisc(self, image_id, (exact,))
        pieces = tuple(
            track
            for track in self.tracks
            if track.label.partition(".")[0] == image_id
        )
        return ImageOnDisc(self, image_id, pieces) if pieces else None

    def read_track(self, track: Track) -> bytes:
        """Return one of this disc's tracks' payload as bytes, honouring
        injected sector errors.  A payload may be any object ``bytes()``
        and ``len()`` take (a ``bytes`` payload is returned itself)."""
        # Only payload-backed sectors can corrupt actual data.
        end = track.start_sector + sectors_for(len(track.payload))
        bad = [s for s in self.bad_sectors if track.start_sector <= s < end]
        if bad:
            raise SectorError(self.disc_id, min(bad))
        return bytes(track.payload)
