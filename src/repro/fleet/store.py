"""The fleet store: erasure-coded disc images over sites of racks.

``put`` cuts an image into ``k`` data shards, computes ``m`` parity
shards with the RAID-6 P/Q math from :mod:`repro.storage.raid`, and
stores all ``n = k + m`` on distinct racks chosen by rendezvous
placement with a per-site cap.  ``get`` reads back any ``k`` shards —
preferring the caller's site, then lightly-loaded racks — decodes, and
verifies the image digest, failing over across racks and sites without
the caller noticing.

The store is also the fleet's ground truth for invariant I8 ("no
durable image is unrecoverable while its surviving shards ≥ k"): every
acked ``put`` records the image's sha256, and :meth:`decode_now` is the
zero-time audit path chaos uses to prove survivors still express the
original bytes.

Payload-cap note: like the serve layer, in-simulation payloads are
capped (64 KiB) while *wire* sizes use the declared logical size —
parity math runs on real bytes, timing runs on logical bytes.
"""

from __future__ import annotations

import hashlib
from typing import Generator, Optional

import numpy as np

from repro.errors import (
    FleetError,
    ObjectUnrecoverableError,
    RackLostError,
    ShardUnavailableError,
)
from repro.fleet.placement import place, rank_racks
from repro.fleet.rack import ShardRack
from repro.fleet.topology import FleetTopology, Layout
from repro.sim.engine import AllOf, Delay, Engine, Join, SimEvent
from repro.storage.raid import erasure_decode, erasure_parity

#: the cross-site round trip a get pays once when it reads any shard
#: from another site
WAN_RTT_S = 0.06


class ObjectRecord:
    """Catalog entry for one stored disc image."""

    __slots__ = (
        "path", "size", "digest", "k", "m", "placement", "shard_wire",
        "pad", "acked",
    )

    def __init__(
        self,
        path: str,
        size: int,
        digest: str,
        k: int,
        m: int,
        placement: list[str],
        shard_wire: float,
        pad: int,
    ):
        self.path = path
        self.size = size            # declared logical bytes
        self.digest = digest        # sha256 of the actual payload
        self.k = k
        self.m = m
        self.placement = placement  # shard position -> rack id
        self.shard_wire = shard_wire
        self.pad = pad              # padding added to the actual payload
        self.acked = False

    @property
    def n(self) -> int:
        return self.k + self.m

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "size": self.size,
            "digest": self.digest,
            "k": self.k,
            "m": self.m,
            "placement": list(self.placement),
        }


def encode_object(data: bytes, k: int, m: int) -> tuple[list[bytes], int]:
    """Cut ``data`` into ``k`` padded data shards + ``m`` parity shards.

    Returns ``(shards, pad)`` where ``shards[i]`` is position ``i``
    (``0..k-1`` data, then P, then Q) and ``pad`` is the zero padding
    appended before splitting.
    """
    if not data:
        data = b"\0"  # zero-byte images still need one coded symbol
    shard_len = -(-len(data) // k)
    pad = shard_len * k - len(data)
    padded = data + b"\0" * pad
    arrays = [
        np.frombuffer(
            padded[i * shard_len:(i + 1) * shard_len], dtype=np.uint8
        ).copy()
        for i in range(k)
    ]
    shards = [array.tobytes() for array in arrays]
    if m:
        shards.extend(
            parity.tobytes() for parity in erasure_parity(arrays, m)
        )
    return shards, pad


def decode_object(shards: dict[int, bytes], k: int, pad: int) -> bytes:
    """Inverse of :func:`encode_object` from any ``k`` shard positions."""
    arrays = {
        position: np.frombuffer(payload, dtype=np.uint8)
        for position, payload in shards.items()
    }
    data = b"".join(
        chunk.tobytes() for chunk in erasure_decode(k, arrays)
    )
    return data[: len(data) - pad] if pad else data


def home_rack(path: str, rack_ids) -> str:
    """First-choice rack for ``path`` by rendezvous rank.

    The single-shard analogue of :func:`~repro.fleet.placement.place`:
    where the erasure-coded store spreads ``n`` shards over the top-``n``
    racks, whole-object routing (the XL serving campaign, cache homing)
    sends the object to the rank-1 rack.  Pure function of the rack set
    and the path — every shard layout computes the same home, which is
    what keeps the sharded event loop's cross-rack routing byte-stable.
    """
    return rank_racks(rack_ids, path)[0]


class FleetStore:
    """Placement, durability and failure-domain state of the fleet."""

    def __init__(
        self,
        engine: Engine,
        topology: Optional[FleetTopology] = None,
        layout: Optional[Layout] = None,
    ):
        self.engine = engine
        self.topology = topology or FleetTopology()
        self.layout = layout or Layout()
        self.topology.validate_layout(self.layout)
        self.site_cap = self.topology.effective_site_cap(self.layout)
        self.racks: dict[str, ShardRack] = {
            rack_id: ShardRack(engine, rack_id, site)
            for rack_id, site in self.topology.rack_sites().items()
        }
        self.catalog: dict[str, ObjectRecord] = {}
        self._loss_event: SimEvent = engine.event("fleet.loss")
        self.stats = {
            "puts": 0,
            "gets": 0,
            "remote_gets": 0,
            "failovers": 0,
            "shards_destroyed": 0,
            "drains": 0,
            "undrains": 0,
        }

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _serving_racks(self) -> dict[str, str]:
        """Racks a new shard may land on (up, not drained, in rack-id
        order).  A drained rack still serves the shards it holds."""
        return {
            rack_id: rack.site
            for rack_id, rack in sorted(self.racks.items())
            if rack.up and not rack.drained
        }

    def set_drained(self, rack_id: str, drained: bool = True) -> bool:
        """Drain (or undrain) one rack: excluded from new placements and
        rebuild targets, deprioritized on reads.  The supervisor's
        "reroute tenants off the rack" remediation.  Returns True if
        the flag actually changed."""
        if rack_id not in self.racks:
            raise FleetError(f"unknown rack {rack_id}")
        rack = self.racks[rack_id]
        if rack.drained == drained:
            return False
        rack.drained = drained
        self.stats["drains" if drained else "undrains"] += 1
        return True

    def placement_for(self, path: str) -> list[str]:
        candidates = self._serving_racks()
        if len(candidates) < self.layout.n:
            raise FleetError(
                f"only {len(candidates)} racks up, need {self.layout.n}"
            )
        return place(path, candidates, self.layout.n, self.site_cap)

    # ------------------------------------------------------------------
    # Data path (generators — run inside the engine)
    # ------------------------------------------------------------------
    def put(
        self, path: str, data: bytes, declared_size: Optional[int] = None
    ) -> Generator:
        """Store one image durably; acks only once all ``n`` shards land."""
        declared = int(declared_size if declared_size else len(data)) or 1
        shards, pad = encode_object(data, self.layout.k, self.layout.m)
        placement = self.placement_for(path)
        record = ObjectRecord(
            path=path,
            size=declared,
            digest=hashlib.sha256(data).hexdigest(),
            k=self.layout.k,
            m=self.layout.m,
            placement=placement,
            shard_wire=declared / self.layout.k,
            pad=pad,
        )

        def land(position: int) -> Generator:
            return self.racks[placement[position]].store(
                path, position, shards[position],
                wire_bytes=record.shard_wire,
            )

        def store_shard(position: int) -> Generator:
            try:
                yield from land(position)
            except RackLostError:
                # The rack was lost under the shard: re-home the
                # position as a rebuild would, rather than fail a write
                # the other n - 1 racks accepted.
                placement[position] = self.rebuild_target(record, position)
                yield from land(position)

        workers = [
            self.engine.spawn(store_shard(position), name=f"put-{rack_id}")
            for position, rack_id in enumerate(placement)
        ]
        try:
            yield AllOf(workers)
        except FleetError:
            # No home left for a shard, so no catalog entry will own
            # the others: let those in flight land, then release them.
            for worker in workers:
                try:
                    yield Join(worker)
                except FleetError:
                    pass
            for position, rack_id in enumerate(placement):
                self.racks[rack_id].drop(path, position)
            raise
        self.catalog[path] = record
        record.acked = True
        self.stats["puts"] += 1
        return declared

    def _read_order(
        self, record: ObjectRecord, site: Optional[str]
    ) -> list[int]:
        """Shard positions by preference: available first, local site,
        undrained before drained, then lighter lanes, then stable rack
        order."""
        candidates = []
        for position, rack_id in enumerate(record.placement):
            rack = self.racks[rack_id]
            if not rack.up or not rack.has_shard(record.path, position):
                continue
            remote = 1 if (site is not None and rack.site != site) else 0
            candidates.append(
                (remote, 1 if rack.drained else 0,
                 rack.lane.active_flows, rack_id, position)
            )
        candidates.sort()
        return [position for *_rank, position in candidates]

    def get(self, path: str, site: Optional[str] = None) -> Generator:
        """Read one image back from any ``k`` shards, verifying bytes."""
        record = self.catalog.get(path)
        if record is None:
            raise FleetError(f"unknown object {path}")
        order = self._read_order(record, site)
        if len(order) < record.k:
            raise ObjectUnrecoverableError(
                f"{path}: {len(order)} shards reachable, need {record.k}"
            )
        chosen = order[: record.k]
        remote = any(
            self.racks[record.placement[position]].site != site
            for position in chosen
        ) if site is not None else False
        if remote:
            self.stats["remote_gets"] += 1
            yield from self._wan_hop()
        fetched: dict[int, bytes] = {}

        def fetch_one(position: int) -> Generator:
            rack = self.racks[record.placement[position]]
            payload = yield from rack.fetch(path, position)
            fetched[position] = payload

        workers = [
            self.engine.spawn(fetch_one(position), name=f"get-{position}")
            for position in chosen
        ]
        try:
            yield AllOf(workers)
        except (RackLostError, ShardUnavailableError):
            pass  # a rack died mid-read; fail over to the survivors below
        missing = [p for p in chosen if p not in fetched]
        if missing:
            self.stats["failovers"] += 1
            retry = [
                position
                for position in self._read_order(record, site)
                if position not in fetched
            ]
            for position in retry:
                if len(fetched) >= record.k:
                    break
                try:
                    payload = yield from self.racks[
                        record.placement[position]
                    ].fetch(path, position)
                except (RackLostError, ShardUnavailableError):
                    continue
                fetched[position] = payload
            if len(fetched) < record.k:
                raise ObjectUnrecoverableError(
                    f"{path}: {len(fetched)} shards fetched, need {record.k}"
                )
        data = decode_object(fetched, record.k, record.pad)
        if hashlib.sha256(data).hexdigest() != record.digest:
            raise FleetError(f"{path}: decoded bytes do not match digest")
        self.stats["gets"] += 1
        return data

    def _wan_hop(self) -> Generator:
        yield Delay(WAN_RTT_S)

    def stat(self, path: str) -> dict:
        record = self.catalog.get(path)
        if record is None:
            raise FleetError(f"unknown object {path}")
        return record.to_dict()

    # ------------------------------------------------------------------
    # Failure-domain events
    # ------------------------------------------------------------------
    def fail_rack(self, rack_id: str, destroy: bool = False) -> int:
        if rack_id not in self.racks:
            raise FleetError(f"unknown rack {rack_id}")
        lost = self.racks[rack_id].fail(destroy=destroy)
        self.stats["shards_destroyed"] += lost
        if destroy:
            self.signal_loss()
        return lost

    def fail_site(self, site: str, destroy: bool = False) -> int:
        racks = [r for r in self.racks.values() if r.site == site]
        if not racks:
            raise FleetError(f"unknown site {site}")
        lost = 0
        for rack in sorted(racks, key=lambda r: r.rack_id):
            lost += rack.fail(destroy=destroy)
        self.stats["shards_destroyed"] += lost
        if destroy:
            self.signal_loss()
        return lost

    def restore_rack(self, rack_id: str) -> None:
        self.racks[rack_id].restore()
        # A restore changes what the recovery manager can rebuild
        # (fresh target racks, reachable survivors): wake it.
        self.signal_loss()

    def restore_site(self, site: str) -> None:
        for rack in self.racks.values():
            if rack.site == site:
                rack.restore()
        self.signal_loss()

    @property
    def loss_event(self) -> SimEvent:
        """The event the recovery manager waits on; re-armed per fire.

        Fired on every fleet shape change — destruction *and* restore —
        plus the manager's own ``stop()``."""
        return self._loss_event

    def signal_loss(self) -> None:
        event = self._loss_event
        self._loss_event = self.engine.event("fleet.loss")
        event.succeed(None)

    # ------------------------------------------------------------------
    # Audit paths (no simulated time)
    # ------------------------------------------------------------------
    def surviving_shards(self, path: str) -> list[int]:
        """Positions whose shard bytes physically survive (rack may be
        down — data outlives an outage, not a destruction)."""
        record = self.catalog[path]
        return [
            position
            for position, rack_id in enumerate(record.placement)
            if self.racks[rack_id].peek(path, position) is not None
        ]

    def lost_shards(self) -> list[tuple[str, int]]:
        """(path, position) pairs whose shard bytes no longer exist."""
        lost = []
        for path in sorted(self.catalog):
            record = self.catalog[path]
            for position, rack_id in enumerate(record.placement):
                if self.racks[rack_id].peek(path, position) is None:
                    lost.append((path, position))
        return lost

    def recoverable(self, path: str) -> bool:
        return len(self.surviving_shards(path)) >= self.catalog[path].k

    def decode_now(self, path: str) -> bytes:
        """Audit decode from surviving shards, zero simulated time."""
        record = self.catalog[path]
        survivors = self.surviving_shards(path)
        if len(survivors) < record.k:
            raise ObjectUnrecoverableError(
                f"{path}: {len(survivors)} shards survive, need {record.k}"
            )
        shards = {
            position: self.racks[record.placement[position]].peek(
                path, position
            )
            for position in survivors[: record.k + record.m]
        }
        data = decode_object(shards, record.k, record.pad)
        if hashlib.sha256(data).hexdigest() != record.digest:
            raise FleetError(f"{path}: decoded bytes do not match digest")
        return data

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def rebuild_target(self, record: ObjectRecord, position: int) -> str:
        """New home for a lost shard: best-ranked up rack not already in
        the placement, preferring racks that keep the site cap intact."""
        occupied = {
            record.placement[p]
            for p in range(record.n)
            if p != position
        }
        per_site: dict[str, int] = {}
        for p, rack_id in enumerate(record.placement):
            if p == position:
                continue
            if self.racks[rack_id].peek(record.path, p) is not None:
                site = self.racks[rack_id].site
                per_site[site] = per_site.get(site, 0) + 1
        candidates = [
            rack_id
            for rack_id, rack in sorted(self.racks.items())
            if rack.up and not rack.drained and rack_id not in occupied
        ]
        if not candidates:
            raise FleetError("no rack available for rebuild")
        ranked = rank_racks(candidates, record.path)
        for rack_id in ranked:
            site = self.racks[rack_id].site
            if per_site.get(site, 0) < self.site_cap:
                return rack_id
        return ranked[0]  # every surviving site is at cap: relax it

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        racks_up = sum(1 for rack in self.racks.values() if rack.up)
        per_site: dict[str, dict] = {}
        for rack in self.racks.values():
            entry = per_site.setdefault(
                rack.site, {"racks": 0, "up": 0, "shards": 0}
            )
            entry["racks"] += 1
            entry["up"] += 1 if rack.up else 0
            entry["shards"] += len(rack.shards)
        at_risk = sum(
            0 if self.recoverable(path) else 1 for path in self.catalog
        )
        return {
            "racks": len(self.racks),
            "racks_up": racks_up,
            "sites": dict(sorted(per_site.items())),
            "objects": len(self.catalog),
            "objects_unrecoverable": at_risk,
            "lost_shards": len(self.lost_shards()),
            "stats": dict(self.stats),
        }
