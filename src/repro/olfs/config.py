"""OLFS configuration: redundancy schema, buckets, caching, calibration.

Two groups of knobs live here:

* **structural** — disc type, the 11+1/10+2 disc-array schema, bucket pool
  size, read-cache size, the busy-drive read policy, forepart settings;
* **calibration** — the fixed software-path costs the paper measures
  (Table 1 sub-millisecond components, Figure 7 per-op costs are composed
  from these plus the frontend stack).

Tests and benches scale ``bucket_capacity``/``disc_type`` down so the real
data path stays cheap while timing stays paper-accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.faults.policy import RetryPolicy
from repro.media.disc import BD25, DiscType


@dataclass
class OLFSConfig:
    """All OLFS tunables; defaults reproduce the paper's prototype."""

    # -- media / redundancy schema (§4.7) -------------------------------
    disc_type: DiscType = BD25
    #: data discs per array; 11 (+1 parity) = RAID-5 schema,
    #: 10 (+2) = RAID-6 schema
    data_discs_per_array: int = 11
    parity_discs_per_array: int = 1

    # -- buckets (§4.3) --------------------------------------------------
    #: capacity of each updatable bucket; equals the disc capacity so a
    #: filled bucket becomes exactly one disc image
    bucket_capacity: int = 0  # 0 -> disc_type.capacity
    #: open buckets kept ready ("a couple of updatable buckets")
    open_buckets: int = 2

    # -- read cache (§4.1) ------------------------------------------------
    #: disc images retained on the disk buffer by the LRU read cache
    read_cache_images: int = 4
    #: 'image' (paper default: whole disc images cache) or 'file'
    #: (§4.1 future work: keep only the requested files' bytes)
    cache_granularity: str = "image"
    #: byte budget of the file-grain cache (used when granularity='file')
    file_cache_bytes: int = 8 * 1024 * 1024
    #: §4.1 future work: prefetch this many same-directory successors of
    #: each mechanically fetched file while the disc is still mounted
    prefetch_siblings: int = 0

    # -- reads that miss everywhere (§4.8) --------------------------------
    #: 'wait' = queue behind the burn; 'interrupt' = appending-burn mode
    busy_drive_policy: str = "wait"
    #: spindle power policy: drives sleep after this many idle seconds
    #: (the §5.4 sleep state; next access pays the 2 s spin-up).
    #: None keeps loaded drives spinning.
    drive_idle_sleep_seconds: float | None = 300.0
    #: store the first N bytes of each file in its index file
    forepart_bytes: int = 256 * units.KB
    forepart_enabled: bool = True
    #: controlled trickle rate while the mechanical fetch proceeds
    forepart_trickle_rate: float = 128 * units.KB
    #: client-side read timeout (seconds; None = patient client).  §4.8:
    #: "the long mechanical delay might lead to read timeout" — without a
    #: forepart, a cold read that outlasts this deadline errors out while
    #: the fetch continues in the background (warming the cache)
    client_read_timeout: float | None = None

    # -- index files (§4.2, §4.6) -----------------------------------------
    #: version entries per index file before the ring wraps
    max_versions: int = 15
    #: §4.6: update a file in place when its current version still sits in
    #: an open bucket with room (no new version entry); False forces the
    #: regenerating-update path (every update -> new location + version)
    update_in_place: bool = True

    # -- burning (§4.7) ----------------------------------------------------
    #: start a burn as soon as a full array of data images is ready
    auto_burn: bool = True
    #: also burn a partial array when flush() is forced
    allow_partial_arrays: bool = True
    #: blank-tray allocation: 'sequential' (top-down fill), 'nearest'
    #: (minimize arm travel from its current layer), 'random'
    tray_allocation: str = "sequential"

    # -- fault tolerance (repro.faults) -----------------------------------
    #: backoff between burn-task retry rounds after a drive/media error
    burn_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            attempts=4, base_delay=2.0, multiplier=2.0, max_delay=60.0
        )
    )
    #: retries for mechanical fetches (drive/PLC errors; media errors
    #: propagate so reads fall through to scrub + parity repair)
    fetch_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            attempts=3, base_delay=1.0, multiplier=2.0, max_delay=30.0
        )
    )
    #: retries for recovery scans (MV rebuild reads burned discs)
    recovery_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            attempts=3, base_delay=1.0, multiplier=2.0, max_delay=30.0
        )
    )

    # -- calibrated software-path costs (Table 1 decomposition) -----------
    #: MV index lookup / update on the SSD RAID-1 (ext4, direct I/O)
    mv_lookup_seconds: float = 0.0004
    mv_update_seconds: float = 0.0006
    #: locating + reading a file inside an open bucket on the disk buffer
    bucket_access_seconds: float = 0.0006
    #: extra cost of accessing a closed image on the disk buffer (loop
    #: device + UDF lookup; Table 1 row 'disc image' = 2 ms total)
    image_access_seconds: float = 0.0016
    #: POSIX-visible per-internal-op fixed cost through FUSE on ext4
    #: (Figure 7: ~2.5 ms average; per-op values in posix.py)
    internal_op_scale: float = 1.0

    # -- derived ----------------------------------------------------------
    def __post_init__(self):
        if self.bucket_capacity == 0:
            self.bucket_capacity = self.disc_type.capacity
        if self.busy_drive_policy not in ("wait", "interrupt"):
            raise ValueError(
                f"unknown busy_drive_policy {self.busy_drive_policy!r}"
            )
        if self.cache_granularity not in ("image", "file"):
            raise ValueError(
                f"unknown cache_granularity {self.cache_granularity!r}"
            )
        if self.tray_allocation not in ("sequential", "nearest", "random"):
            raise ValueError(
                f"unknown tray_allocation {self.tray_allocation!r}"
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
