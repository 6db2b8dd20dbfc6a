"""Archival workload generation: realistic file populations.

Generates the kinds of datasets the paper's introduction motivates —
scientific records, media assets, IoT telemetry — as reproducible streams
of (path, payload) pairs with log-normal size distributions (the standard
model for file-size populations) and a fixed directory fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro import units
from repro.sim.rng import DeterministicRNG


@dataclass(frozen=True)
class FileSpec:
    """One generated file: where it goes and what goes in it."""

    path: str
    size: int
    payload: bytes
    logical_size: Optional[int] = None

    @property
    def declared_size(self) -> int:
        return self.logical_size if self.logical_size is not None else self.size


#: Named size profiles: (log-normal mean of ln(bytes), sigma).
SIZE_PROFILES = {
    "scientific": (13.0, 1.5),  # ~0.4 MB median, heavy tail
    "media": (16.5, 1.0),  # ~15 MB median video/image masters
    "iot": (8.5, 0.8),  # ~5 KB telemetry records
    "mixed": (11.0, 2.0),
}

#: Directory fan-out under each profile's root.
DIRECTORIES = 8

#: Real payload bytes per file are capped here; larger files carry their
#: size as a declared (logical) size instead.
PAYLOAD_CAP = 64 * 1024


class ArchivalWorkloadGenerator:
    """Reproducible stream of archival files."""

    def __init__(
        self,
        profile: str = "mixed",
        seed: int = 42,
        root: str = "/archive",
        max_file_bytes: int = 64 * units.MB,
    ):
        if profile not in SIZE_PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; pick from {sorted(SIZE_PROFILES)}"
            )
        self.profile = profile
        self.root = root.rstrip("/")
        self.max_file_bytes = max_file_bytes
        self._seed = seed

    def files(self, count: int) -> Iterator[FileSpec]:
        """Yield ``count`` file specs — the same stream on every call."""
        rng = DeterministicRNG(self._seed).child(f"workload-{self.profile}")
        mean, sigma = SIZE_PROFILES[self.profile]
        for index in range(count):
            size = int(min(rng.lognormal(mean, sigma), self.max_file_bytes))
            size = max(size, 1)
            directory = rng.integers(0, DIRECTORIES)
            path = (
                f"{self.root}/{self.profile}/dir{directory:02d}/"
                f"file-{index:06d}.bin"
            )
            real = min(size, PAYLOAD_CAP)
            payload = rng.bytes(real)
            yield FileSpec(
                path=path,
                size=size,
                payload=payload,
                logical_size=size if size > real else None,
            )
