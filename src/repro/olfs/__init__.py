"""OLFS: the Optical Library File System (the paper's core contribution).

Nine cooperating modules (§4.1, Figure 3):

========================  =====================================================
Paper module              Implementation
========================  =====================================================
POSIX Interface (PI)      :mod:`repro.olfs.posix`
Writing Bucket Mgmt (WBM) :mod:`repro.olfs.bucket`
Disc Image Mgmt (DIM)     :mod:`repro.olfs.images`
Burning Task Mgmt (BTM)   :mod:`repro.olfs.burning`
Disc Burning (DB)         :mod:`repro.olfs.burning` (`BurnTask`)
Fetching Task Mgmt (FTM)  :mod:`repro.olfs.fetching`
Read Cache (RC)           :mod:`repro.olfs.cache`
Mechanical Controller(MC) :mod:`repro.olfs.mechanical`
Maintenance Intf (MI)     :mod:`repro.olfs.maintenance`
========================  =====================================================

plus the Metadata Volume (:mod:`repro.olfs.metadata`), the global-namespace
index files (:mod:`repro.olfs.index`), the forepart-data-stored mechanism
(:mod:`repro.olfs.forepart`) and recovery (:mod:`repro.olfs.recovery`).

:class:`repro.olfs.filesystem.OLFS` wires everything together and is the
main entry point; most users reach it through :class:`repro.ROS`.
"""

from repro.olfs.config import OLFSConfig
from repro.olfs.filesystem import OLFS, small_rack

__all__ = ["OLFS", "OLFSConfig", "small_rack"]
