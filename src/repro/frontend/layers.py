"""Per-layer cost models for the frontend stack (§5.3 calibration).

Reads and writes compose differently (this is the crux of Figure 6):

* the **read path is synchronous** — each layer's per-byte handling time
  adds to the previous one's (a read request travels down and the data
  travels back up before the client continues), so per-MB costs are
  *additive*;
* the **write path pipelines** — every layer buffers asynchronously, so
  the stream runs at the *minimum* of the layers' write rates.

Layer constants below are calibrated from the paper's own component
measurements (ext4 1.2 GB/s R / 1.0 GB/s W on the RAID-5 volume; FUSE
24.1 % R / 51.8 % W loss; OLFS a further 28.9 % R / 10.1 % W; Samba
68.9 % R / 68.0 % W of ext4).  The Samba-over-FUSE read interaction term
reproduces the extra attribute traffic the paper observed (its seven
extra ``stat`` calls on the write path are modelled per-op).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units


@dataclass(frozen=True)
class Layer:
    """One stack layer's calibrated costs."""

    name: str
    #: additive per-byte read handling cost (seconds per byte)
    read_seconds_per_byte: float = 0.0
    #: write-rate ceiling for the pipelined write path (bytes/s)
    write_rate_cap: float = float("inf")
    #: fixed per-metadata-op overhead this layer adds (seconds)
    per_op_seconds: float = 0.0
    #: extra stat calls this layer issues around a file creation (§5.3)
    extra_write_stats: int = 0
    #: additive read cost applied only when stacked above FUSE (the
    #: Samba-oplock/attribute interaction term)
    fuse_interaction_read_seconds_per_byte: float = 0.0


def _per_mb(ms: float) -> float:
    """ms/MB -> seconds/byte."""
    return ms * 1e-3 / units.MB


#: ext4 on one RAID-5 buffer volume: 1.2 GB/s read, 1.0 GB/s write (§5.3).
EXT4 = Layer(
    name="ext4",
    read_seconds_per_byte=1.0 / (1.2 * units.GB),
    write_rate_cap=1.0 * units.GB,
)

#: FUSE with big_writes (128 KB flushes): 24.1 % read / 51.8 % write loss.
FUSE = Layer(
    name="fuse",
    read_seconds_per_byte=_per_mb(0.265),
    write_rate_cap=0.482 * units.GB,
    per_op_seconds=0.0,  # the switch cost sits in the OLFS op constants
)

#: FUSE at the 4 KB default flush granularity (the §4.8 ablation): 32x the
#: switches per MB on the write path, 4x-ish read-ahead degradation.
FUSE_4K = Layer(
    name="fuse-4k",
    read_seconds_per_byte=_per_mb(1.06),
    write_rate_cap=0.482 * units.GB / 6.0,
)

#: OLFS itself (bucket/UDF handling above FUSE): further 28.9 % R / 10.1 % W.
OLFS_LAYER = Layer(
    name="olfs",
    read_seconds_per_byte=_per_mb(0.449),
    write_rate_cap=0.433 * units.GB,
)

#: Samba/CIFS over 10GbE: 68.9 % read / 68.0 % write loss vs ext4, plus
#: seven extra stats around creation and extra attribute traffic on FUSE.
SAMBA = Layer(
    name="samba",
    read_seconds_per_byte=_per_mb(1.845),
    write_rate_cap=0.320 * units.GB,
    per_op_seconds=0.0017,
    extra_write_stats=7,
    fuse_interaction_read_seconds_per_byte=_per_mb(0.85),
)

#: The raw 10GbE link (an upper bound the NAS path cannot exceed).
NETWORK_10GBE = Layer(
    name="10gbe",
    read_seconds_per_byte=1.0 / (1.25 * units.GB),
    write_rate_cap=1.25 * units.GB,
)
