"""Fleet topology: sites, racks, and shard layouts.

A :class:`FleetTopology` names the failure domains of a geo-distributed
archive: ``sites`` machine rooms, each holding ``racks_per_site``
ROS-style optical racks.  A :class:`Layout` says how one disc image is
cut across that topology — ``k`` data shards plus ``m`` parity shards
computed with :func:`~repro.storage.raid.erasure_parity`, the P/Q codec
RAID volumes and disc arrays use too (``k=1`` degenerates to plain
``1+m`` replication, because P and Q of a single shard are copies of it).

The durability contract the placement layer enforces: at most
``site_cap`` shards of any one object land in one site, so losing an
entire site destroys at most ``site_cap`` shards.  With the default
``site_cap = m`` a whole-site loss is always survivable — that is
invariant I8's geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Layout:
    """Erasure layout of one object: ``k`` data + ``m`` parity shards."""

    k: int = 4
    m: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("layout needs at least one data shard")
        if not 0 <= self.m <= 2:
            raise ValueError("layout supports 0, 1 or 2 parity shards")

    @property
    def n(self) -> int:
        return self.k + self.m

    def to_dict(self) -> dict:
        return {"k": self.k, "m": self.m}


@dataclass(frozen=True)
class FleetTopology:
    """Failure-domain tree of the fleet: sites of racks."""

    sites: int = 3
    racks_per_site: int = 8
    #: max shards of one object per site (None = the layout's ``m``)
    site_cap: Optional[int] = None

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("topology needs at least one site")
        if self.racks_per_site < 1:
            raise ValueError("topology needs at least one rack per site")
        if self.site_cap is not None and self.site_cap < 1:
            raise ValueError("site_cap must be at least 1")

    # -- naming --------------------------------------------------------
    @property
    def rack_count(self) -> int:
        return self.sites * self.racks_per_site

    def site_name(self, site: int) -> str:
        return f"site-{site}"

    def site_names(self) -> list[str]:
        return [self.site_name(site) for site in range(self.sites)]

    def rack_id(self, site: int, rack: int) -> str:
        return f"s{site}.r{rack:02d}"

    def rack_ids(self) -> list[str]:
        return [
            self.rack_id(site, rack)
            for site in range(self.sites)
            for rack in range(self.racks_per_site)
        ]

    def site_of(self, rack_id: str) -> str:
        return self.site_name(int(rack_id.split(".", 1)[0][1:]))

    def rack_sites(self) -> dict[str, str]:
        """rack id -> site name, in deterministic rack-id order."""
        return {
            rack_id: self.site_of(rack_id) for rack_id in self.rack_ids()
        }

    # -- durability geometry -------------------------------------------
    def effective_site_cap(self, layout: Layout) -> int:
        return self.site_cap if self.site_cap is not None else max(
            layout.m, 1
        )

    def validate_layout(self, layout: Layout) -> None:
        """Raise if the layout cannot spread over this topology with the
        site cap honoured (distinct racks, at most ``site_cap``/site)."""
        cap = self.effective_site_cap(layout)
        if layout.n > self.rack_count:
            raise ValueError(
                f"layout {layout.k}+{layout.m} needs {layout.n} racks, "
                f"topology has {self.rack_count}"
            )
        per_site = min(cap, self.racks_per_site)
        if layout.n > per_site * self.sites:
            raise ValueError(
                f"layout {layout.k}+{layout.m} cannot honour site cap "
                f"{cap} over {self.sites} sites"
            )

    def to_dict(self) -> dict:
        return {
            "sites": self.sites,
            "racks_per_site": self.racks_per_site,
            "site_cap": self.site_cap,
        }
