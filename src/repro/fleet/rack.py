"""Coarse-grained shard racks: the fleet's unit of failure.

A :class:`ShardRack` is the TALICS³-style library model: one ROS rack
reduced to the contract the fleet layer needs — a keyed shard store
behind a shared-bandwidth lane and a fixed per-op latency.  The full
per-drive/per-roller rack (:class:`repro.olfs.filesystem.OLFS`, federated
by :class:`repro.cluster.RackCluster`) stays the model of record for
rack-internal behaviour; simulating tens of full racks per campaign
would drown the event loop in mechanics that don't change fleet-level
outcomes (placement, recovery traffic, cross-site routing).

Timing model: every shard op pays ``BASE_LATENCY_S`` (index lookup +
staging, the inline-accessibility premise of the paper) and then streams
its wire bytes through the rack's processor-sharing lane, so concurrent
recovery rebuilds and client reads genuinely slow each other down.

A rack can *fail* (down, data intact — a power event) or be *destroyed*
(down, shards gone — fire, flood, the LOCKSS threat model).  Restoring a
destroyed rack models hardware replacement: it comes back empty and the
recovery manager re-homes shards onto it.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro import units
from repro.errors import RackLostError, ShardUnavailableError
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.engine import Delay, Engine

#: per-shard-op fixed latency (index + staging)
BASE_LATENCY_S = 0.004
#: rack lane capacity (bytes/s) — a rack's aggregate drive throughput
LANE_BYTES_S = 400 * units.MB


class ShardRack:
    """One rack of the fleet: a shard store behind a bandwidth lane."""

    def __init__(self, engine: Engine, rack_id: str, site: str):
        self.engine = engine
        self.rack_id = rack_id
        self.site = site
        self.lane = SharedBandwidth(engine, LANE_BYTES_S, name=rack_id)
        #: (path, shard position) -> stored shard payload
        self.shards: dict[tuple[str, int], bytes] = {}
        #: (path, shard position) -> logical wire bytes of that shard
        self._wire: dict[tuple[str, int], float] = {}
        self.up = True
        self.destroyed = False
        #: drained racks serve reads but take no new placements — the
        #: supervisor's "reroute tenants off this rack" remediation
        self.drained = False
        #: logical (wire) bytes stored, for capacity accounting
        self.used_bytes = 0.0
        self.failures = 0
        self.destructions = 0
        # monotonic op counters: telemetry agents compute rates from
        # these instead of diffing health() dicts
        self.stores = 0
        self.store_errors = 0
        self.fetches = 0
        self.fetch_errors = 0

    # -- failure-domain state ------------------------------------------
    def fail(self, destroy: bool = False) -> int:
        """Take the rack down; ``destroy`` loses its shards.  Returns the
        number of shards destroyed (0 for a plain outage)."""
        self.up = False
        self.failures += 1
        lost = 0
        if destroy:
            self.destroyed = True
            self.destructions += 1
            lost = len(self.shards)
            self.shards.clear()
            self._wire.clear()
            self.used_bytes = 0.0
        return lost

    def restore(self) -> None:
        """Bring the rack back up.  A destroyed rack returns *empty*
        (replacement hardware); a failed one returns with data intact."""
        self.up = True
        self.destroyed = False

    # -- shard I/O -----------------------------------------------------
    def _require_up(self, verb: str, path: str) -> None:
        if not self.up:
            if verb == "store":
                self.store_errors += 1
            else:
                self.fetch_errors += 1
            raise RackLostError(
                f"{self.rack_id}: rack down, cannot {verb} {path}"
            )

    def store(
        self,
        path: str,
        position: int,
        payload: bytes,
        wire_bytes: Optional[float] = None,
    ) -> Generator:
        """Write one shard (generator).  ``wire_bytes`` is the logical
        shard size that crosses the lane; the in-simulation ``payload``
        may be capped smaller (the serve layer's 64 KiB payload cap)."""
        self._require_up("store", path)
        wire = float(wire_bytes if wire_bytes is not None else len(payload))
        yield Delay(BASE_LATENCY_S)
        if wire > 0:
            yield from self.lane.transfer(wire)
        self._require_up("store", path)
        key = (path, position)
        previous = self._wire.pop(key, 0.0)
        self.shards[key] = payload
        self._wire[key] = wire
        self.used_bytes += wire - previous
        self.stores += 1
        return len(payload)

    def preload(
        self,
        path: str,
        position: int,
        payload: bytes,
        wire_bytes: Optional[float] = None,
    ) -> None:
        """Zero-time bootstrap write: place a shard without simulated I/O.

        Campaign setup uses this to pre-populate racks at ``t=0`` so the
        measured timeline starts with serving traffic, not a bulk-load
        prologue.  The shard is indistinguishable from one written by
        :meth:`store`."""
        wire = float(wire_bytes if wire_bytes is not None else len(payload))
        key = (path, position)
        previous = self._wire.pop(key, 0.0)
        self.shards[key] = payload
        self._wire[key] = wire
        self.used_bytes += wire - previous

    def fetch(self, path: str, position: int) -> Generator:
        """Read one shard back (generator); pays latency + lane time."""
        self._require_up("fetch", path)
        key = (path, position)
        if key not in self.shards:
            self.fetch_errors += 1
            raise ShardUnavailableError(
                f"{self.rack_id}: no shard {position} of {path}"
            )
        wire = self._wire.get(key, float(len(self.shards[key])))
        yield Delay(BASE_LATENCY_S)
        if wire > 0:
            yield from self.lane.transfer(wire)
        self._require_up("fetch", path)
        self.fetches += 1
        return self.shards[key]

    def peek(self, path: str, position: int) -> Optional[bytes]:
        """Audit-path read: shard bytes if physically present (even on a
        down-but-intact rack), no simulated time."""
        return self.shards.get((path, position))

    def has_shard(self, path: str, position: int) -> bool:
        return (path, position) in self.shards

    def drop(self, path: str, position: int) -> None:
        """Forget one shard (placement moved it elsewhere)."""
        key = (path, position)
        if key in self.shards:
            del self.shards[key]
            self.used_bytes -= self._wire.pop(key, 0.0)

    # -- observability -------------------------------------------------
    def health(self) -> dict:
        return {
            "rack": self.rack_id,
            "site": self.site,
            "up": self.up,
            "destroyed": self.destroyed,
            "drained": self.drained,
            "shards": len(self.shards),
            "used_bytes": round(self.used_bytes, 3),
            "active_flows": self.lane.active_flows,
            # monotonic counters, alongside the gauges above
            "failures": self.failures,
            "destructions": self.destructions,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "fetches": self.fetches,
            "fetch_errors": self.fetch_errors,
        }
