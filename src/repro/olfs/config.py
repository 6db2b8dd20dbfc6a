"""OLFS configuration: redundancy schema, buckets, caching, calibration.

:class:`OLFSConfig` holds the structural knobs some run varies — the
11+1/10+2 disc-array schema, bucket size, read-cache size, the busy-drive
read policy and the §4.x switches.  Tests and benches scale
``bucket_capacity`` down so the real data path stays cheap while timing
stays paper-accurate.

The fixed software-path costs the paper measures (Table 1 sub-millisecond
components; Figure 7 per-op costs are composed from these plus the
frontend stack) are the constants below.  The prototype's other fixed
design points are constants beside the module that reads them, e.g.
``bucket.OPEN_BUCKETS`` and ``forepart.FOREPART_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.media.disc import BD25

# -- calibrated software-path costs (Table 1 decomposition) ---------------
#: MV index lookup / update on the SSD RAID-1 (ext4, direct I/O)
MV_LOOKUP_SECONDS = 0.0004
MV_UPDATE_SECONDS = 0.0006
#: locating + reading a file inside an open bucket on the disk buffer
BUCKET_ACCESS_SECONDS = 0.0006
#: extra cost of accessing a closed image on the disk buffer (loop
#: device + UDF lookup; Table 1 row 'disc image' = 2 ms total)
IMAGE_ACCESS_SECONDS = 0.0016


@dataclass
class OLFSConfig:
    """OLFS tunables; defaults reproduce the paper's prototype."""

    # -- redundancy schema (§4.7) -----------------------------------------
    #: data discs per array; 11 (+1 parity) = RAID-5 schema,
    #: 10 (+2) = RAID-6 schema
    data_discs_per_array: int = 11
    parity_discs_per_array: int = 1

    # -- buckets (§4.3) --------------------------------------------------
    #: capacity of each updatable bucket; equals the BD-25 disc capacity
    #: so a filled bucket becomes exactly one disc image
    bucket_capacity: int = BD25.capacity

    # -- read cache (§4.1) ------------------------------------------------
    #: disc images retained on the disk buffer by the LRU read cache
    read_cache_images: int = 4
    #: 'image' (paper default: whole disc images cache) or 'file'
    #: (§4.1 future work: keep only the requested files' bytes)
    cache_granularity: str = "image"
    #: §4.1 future work: prefetch this many same-directory successors of
    #: each mechanically fetched file while the disc is still mounted
    prefetch_siblings: int = 0

    # -- reads that miss everywhere (§4.8) --------------------------------
    #: 'wait' = queue behind the burn; 'interrupt' = appending-burn mode
    busy_drive_policy: str = "wait"
    #: store the first bytes of each file in its index file
    forepart_enabled: bool = True
    #: client-side read timeout (seconds; None = patient client).  §4.8:
    #: "the long mechanical delay might lead to read timeout" — without a
    #: forepart, a cold read that outlasts this deadline errors out while
    #: the fetch continues in the background (warming the cache)
    client_read_timeout: float | None = None

    # -- index files (§4.6) -----------------------------------------------
    #: §4.6: update a file in place when its current version still sits in
    #: an open bucket with room (no new version entry); False forces the
    #: regenerating-update path (every update -> new location + version)
    update_in_place: bool = True

    # -- burning (§4.7) ----------------------------------------------------
    #: start a burn as soon as a full array of data images is ready
    auto_burn: bool = True

    def __post_init__(self):
        if self.busy_drive_policy not in ("wait", "interrupt"):
            raise ValueError(
                f"unknown busy_drive_policy {self.busy_drive_policy!r}"
            )
        if self.cache_granularity not in ("image", "file"):
            raise ValueError(
                f"unknown cache_granularity {self.cache_granularity!r}"
            )
        if self.data_discs_per_array < 1:
            raise ValueError("need at least one data disc per array")
        if self.parity_discs_per_array not in (0, 1, 2):
            raise ValueError("parity discs per array must be 0, 1 or 2")
        if self.data_discs_per_array + self.parity_discs_per_array > 12:
            raise ValueError("a disc array holds at most 12 discs")

    def scaled_for_tests(self, bucket_capacity: int = 512 * units.KB) -> "OLFSConfig":
        """A copy with tiny buckets so the full data path runs in tests."""
        import dataclasses

        return dataclasses.replace(self, bucket_capacity=bucket_capacity)
