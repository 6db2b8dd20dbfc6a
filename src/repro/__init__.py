"""ROS: a Rack-based Optical Storage system — full-system reproduction.

Reproduces Yan et al., *ROS: A Rack-based Optical Storage System with
Inline Accessibility for Long-Term Data Preservation* (EuroSys 2017):
the OLFS file system, the rack mechanics (rollers, robotic arms, PLC),
optical drives with calibrated burn curves, the SSD/HDD buffer tier, and
every substrate needed to regenerate the paper's tables and figures —
all on a deterministic discrete-event simulator.

Quickstart::

    from repro import ROS

    ros = ROS()                       # 2 x (roller, arm, 12 drives): 1.16 PB
    ros.write("/archive/a.bin", b"hello, 2076!")
    print(ros.read("/archive/a.bin").data)
    ros.flush()                       # seal buckets, burn disc arrays

See ``examples/`` and DESIGN.md for the full tour.
"""

from repro.olfs import OLFS, OLFSConfig, small_rack
from repro.sim import Engine

#: The friendly name for the assembled system.
ROS = OLFS

__all__ = ["Engine", "OLFS", "OLFSConfig", "ROS", "small_rack"]
__version__ = "1.0.0"
