"""Multi-tenant serving subsystem (§2.3, §4.2, Figure 5).

The paper's rack exports Samba/NFS/REST over a 10GbE NIC; this package
models what happens when *many* concurrent clients share that NIC and the
rack's drive pool:

* :mod:`repro.serve.network` — a full-duplex 10GbE link built on
  :class:`~repro.sim.bandwidth.SharedBandwidth`, with per-session RTT and
  the Figure-6 SMB/FUSE per-op and per-byte overheads folded in;
* :mod:`repro.serve.tenancy` — tenants with token-bucket rate limits and
  a bounded admission queue with deadline-aware start-time-fair dequeue;
* :mod:`repro.serve.session` — client sessions issuing POSIX ops through
  the link into a rack's, cluster's or fleet site's ``write_file`` /
  ``read_file`` / ``stat``;
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.report` — open-loop and
  closed-loop client fleets plus per-tenant throughput / p50-p95-p99
  latency reports (``python -m repro serve``).

Everything is seed-deterministic: the same seed produces byte-identical
reports, and the serving layer draws no randomness unless enabled.
"""

from repro.serve.loadgen import FleetSpec, default_fleets, run_serve
from repro.serve.xl import run_serve_xl
from repro.serve.network import NetworkLink
from repro.serve.report import render_text, report_to_json
from repro.serve.session import ClientSession, ServeOp
from repro.serve.tenancy import AdmissionController, TenantSpec, TokenBucket

__all__ = [
    "AdmissionController",
    "ClientSession",
    "FleetSpec",
    "NetworkLink",
    "ServeOp",
    "TenantSpec",
    "TokenBucket",
    "default_fleets",
    "render_text",
    "report_to_json",
    "run_serve",
    "run_serve_xl",
]
