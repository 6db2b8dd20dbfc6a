"""Factory functions for the prototype's disk models (§5.1).

The ROS prototype uses fourteen 4 TB HDDs ("almost 150 MB/s" sequential,
§3.3) and two 240 GB SSDs for the metadata volume.
"""

from __future__ import annotations

from repro import units
from repro.sim.engine import Engine
from repro.storage.block import BlockDevice

HDD_THROUGHPUT = 150 * units.MB
HDD_LATENCY = 0.008  # seek + rotational average
HDD_CAPACITY = 4 * units.TB

SSD_THROUGHPUT = 500 * units.MB
SSD_LATENCY = 0.0001
SSD_CAPACITY = 240 * units.GB


def make_hdd(engine: Engine, name: str) -> BlockDevice:
    """A 4 TB 7200rpm-class HDD (150 MB/s, ~8 ms access)."""
    return BlockDevice(engine, name, HDD_CAPACITY, HDD_THROUGHPUT, HDD_LATENCY)


def make_ssd(engine: Engine, name: str) -> BlockDevice:
    """A 240 GB SATA SSD (500 MB/s, ~0.1 ms access)."""
    return BlockDevice(engine, name, SSD_CAPACITY, SSD_THROUGHPUT, SSD_LATENCY)
