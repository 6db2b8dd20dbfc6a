"""I/O-stream-to-volume scheduling (§4.7).

Four intensive stream kinds coexist in ROS: user writes landing in buckets,
parity-maker reads, parity-maker writes, and burn staging reads.  On a
single volume they interfere (processor sharing); ROS therefore configures
multiple independent RAID volumes and schedules the streams apart.  The
:class:`IOStreamScheduler` implements both policies so the ablation bench
can quantify the difference.
"""

from __future__ import annotations

import enum
import itertools

from repro.errors import StorageError
from repro.storage.volume import Volume


class StreamKind(enum.Enum):
    USER_WRITE = "user-write"
    PARITY_READ = "parity-read"
    PARITY_WRITE = "parity-write"
    BURN_READ = "burn-read"
    USER_READ = "user-read"


class IOStreamScheduler:
    """Maps stream kinds onto buffer volumes.

    ``policy='partitioned'`` pins each kind to its own volume (round-robin
    when kinds outnumber volumes, pairing the two parity streams last);
    ``policy='shared'`` sends everything to the first volume — the baseline
    that §4.7 warns about.
    """

    POLICIES = ("partitioned", "shared")

    def __init__(self, volumes: list[Volume], policy: str = "partitioned"):
        if not volumes:
            raise StorageError("scheduler needs at least one volume")
        if policy not in self.POLICIES:
            raise StorageError(f"unknown policy {policy!r}")
        self.volumes = list(volumes)
        self.policy = policy
        #: optional MetricsRegistry; OLFS wires its own in
        self.metrics = None
        self._assignment: dict[StreamKind, Volume] = {}
        self._build_assignment()

    def _build_assignment(self) -> None:
        if self.policy == "shared":
            for kind in StreamKind:
                self._assignment[kind] = self.volumes[0]
            return
        # Partitioned: keep writer streams and reader streams apart first.
        preference = [
            StreamKind.USER_WRITE,
            StreamKind.BURN_READ,
            StreamKind.PARITY_READ,
            StreamKind.PARITY_WRITE,
            StreamKind.USER_READ,
        ]
        cycle = itertools.cycle(range(len(self.volumes)))
        for kind in preference:
            self._assignment[kind] = self.volumes[next(cycle)]

    def volume_for(self, kind: StreamKind) -> Volume:
        if self.metrics is not None:
            self.metrics.counter(f"scheduler.requests.{kind.value}").inc()
        return self._assignment[kind]

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "policy": self.policy,
            "assignment": {
                kind.value: volume.name
                for kind, volume in sorted(
                    self._assignment.items(), key=lambda item: item[0].value
                )
            },
            "volumes": [
                {
                    "name": volume.name,
                    "used": volume.used,
                    "capacity": volume.capacity,
                    "read_bytes_total": round(volume.read_bytes_total, 3),
                    "write_bytes_total": round(volume.write_bytes_total, 3),
                }
                for volume in self.volumes
            ],
        }
