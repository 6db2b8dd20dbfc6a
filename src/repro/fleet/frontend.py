"""Fleet-aware serving frontend: locality routing with cross-site failover.

A :class:`FleetBackend` is one site's view of the
:class:`~repro.fleet.store.FleetStore` behind the serve layer's rack
contract (``write_file`` / ``read_file`` / ``stat`` generators, as on
``ros.pi``), so client pools plug into the fleet exactly like they plug
into a single rack or a :class:`~repro.cluster.RackCluster`:

* **reads** prefer shards in the caller's site and lightly-loaded racks
  (the store's read ordering), transparently failing over to remote
  sites — with a WAN round-trip surcharge — when local racks are down;
* **writes** are erasure-coded across sites by placement, acked only
  when all ``n`` shards land;
* **stats** hit the catalog (metadata is replicated fleet-wide).
"""

from __future__ import annotations

from typing import Generator

from repro.errors import FleetError
from repro.fleet.store import FleetStore
from repro.sim.engine import Delay

#: catalog lookup latency for a stat (metadata is hot, SSD-resident)
STAT_LATENCY_S = 0.001


class FleetBackend:
    """One site's rack contract over the shared fleet store."""

    def __init__(self, store: FleetStore, site: str):
        if site not in store.topology.site_names():
            raise FleetError(f"unknown site {site}")
        self.store = store
        self.site = site

    def write_file(
        self, path: str, data: bytes, logical_size=None
    ) -> Generator:
        return self.store.put(path, data, logical_size)

    def read_file(self, path: str) -> Generator:
        return self.store.get(path, site=self.site)

    def stat(self, path: str) -> Generator:
        yield Delay(STAT_LATENCY_S)
        return self.store.stat(path)

