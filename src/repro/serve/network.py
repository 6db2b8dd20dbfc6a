"""The rack's serving NIC: a shared full-duplex 10GbE link.

§3.3 sizes the rack frontend to "provide more than 1 GB/s external
throughput"; Figure 5 puts every client protocol (SMB / NFS / REST) on one
10GbE port.  :class:`NetworkLink` models that port as two
:class:`~repro.sim.bandwidth.SharedBandwidth` lanes (ingress and egress —
full duplex means the directions do not contend with each other) at the
raw NIC rate, and folds the Figure-6 protocol-stack costs on top:

* the stack's fixed per-op overhead (SMB negotiation + FUSE switch,
  :meth:`~repro.frontend.stack.FilesystemStack.per_op_seconds`) is paid
  once per request;
* the *surplus* per-byte cost of the stack over the raw wire — the gap
  between the NIC's byte time and the stack's sustained byte time — is
  paid serially after each transfer, so a single stream tops out at the
  Figure-6 sustained rate while the wire itself saturates only under
  concurrency.

Sessions add their configured round-trip latency (half on each
direction).  The link consults ``engine.faults`` at the ``net.link`` site
on every crossing, so an armed ``net.link_flap`` window turns transfers
into :class:`~repro.errors.LinkDownError` until it closes.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import LinkDownError
from repro.frontend.layers import NETWORK_10GBE
from repro.frontend.stack import make_stack
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.engine import Delay, Engine

#: site key the link polls on ``engine.faults``
SITE_NET_LINK = "net.link"

#: client round-trip time (datacenter-local: ~200 microseconds)
RTT_SECONDS = 200e-6


class NetworkLink:
    """One 10GbE full-duplex serving link shared by every session."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.capacity = float(NETWORK_10GBE.write_rate_cap)
        self.rtt_seconds = RTT_SECONDS
        self.stack = make_stack("samba+OLFS")
        self.ingress = SharedBandwidth(engine, self.capacity, name="10gbe-in")
        self.egress = SharedBandwidth(engine, self.capacity, name="10gbe-out")
        wire_spb = 1.0 / self.capacity
        #: per-byte stack surplus over the raw wire, write path (ingress)
        self.write_extra_spb = max(
            0.0, 1.0 / self.stack.write_throughput() - wire_spb
        )
        #: per-byte stack surplus over the raw wire, read path (egress)
        self.read_extra_spb = max(
            0.0, self.stack.read_seconds_per_byte() - wire_spb
        )
        #: fixed SMB/FUSE metadata cost per client-visible op
        self.per_op_seconds = self.stack.per_op_seconds()
        self.requests = 0
        self.responses = 0
        self.drops = 0

    # ------------------------------------------------------------------
    def _check(self) -> None:
        spec = self.engine.faults.check(SITE_NET_LINK)
        if spec is not None:
            self.drops += 1
            raise LinkDownError(
                f"10GbE link down at t={self.engine.now:.3f}"
            )

    def request(self, nbytes: float, weight: float = 1.0) -> Generator:
        """Client -> rack crossing: half RTT, per-op cost, ingress bytes."""
        self._check()
        self.requests += 1
        yield Delay(self.rtt_seconds / 2 + self.per_op_seconds)
        yield from self.ingress.transfer(max(1.0, float(nbytes)), weight)
        if nbytes > 0 and self.write_extra_spb:
            yield Delay(self.write_extra_spb * nbytes)

    def respond(self, nbytes: float, weight: float = 1.0) -> Generator:
        """Rack -> client crossing: egress bytes, then the last half RTT."""
        self._check()
        self.responses += 1
        yield from self.egress.transfer(max(1.0, float(nbytes)), weight)
        if nbytes > 0 and self.read_extra_spb:
            yield Delay(self.read_extra_spb * nbytes)
        yield Delay(self.rtt_seconds / 2)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Read-only snapshot (no settlement side effects)."""
        return {
            "capacity_bps": self.capacity,
            "bytes_in": self.ingress.bytes_moved,
            "bytes_out": self.egress.bytes_moved,
            "flows_in": self.ingress.active_flows,
            "flows_out": self.egress.active_flows,
            "requests": self.requests,
            "responses": self.responses,
            "drops": self.drops,
        }
