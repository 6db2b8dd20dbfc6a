"""Client sessions: one protocol connection issuing ops through the link.

A :class:`ClientSession` models one SMB/NFS/REST connection (Figure 5):
each operation crosses the :class:`~repro.serve.network.NetworkLink`,
queues at the :class:`~repro.serve.tenancy.AdmissionController`, executes
against a backend, and returns over the link.  The client-perceived
latency — queueing included — lands in a per-tenant histogram that the
serve report turns into p50/p95/p99.

A backend is anything with the three generator methods of
:class:`~repro.olfs.posix.POSIXInterface` — ``write_file(path, data,
logical_size)``, ``read_file(path)``, ``stat(path)``: one rack's
``ros.pi``, a :class:`~repro.cluster.RackCluster`'s ``cluster.pi``
(placement and failover), or a :class:`~repro.fleet.frontend.FleetBackend`
(one site's view of the erasure-coded fleet store).

Sessions poll ``engine.faults`` at the ``client.session`` site before
each op, so an armed ``client.disconnect`` one-shot turns the next op
into :class:`~repro.errors.SessionDisconnectedError` and marks the
session dead (its fleet loop stops issuing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import (
    AdmissionTimeoutError,
    LinkDownError,
    ROSError,
    SessionDisconnectedError,
)
from repro.serve.network import NetworkLink
from repro.serve.tenancy import AdmissionController
from repro.sim.tracing import MetricsRegistry

#: site key sessions poll on ``engine.faults``
SITE_CLIENT_SESSION = "client.session"

#: wire size of a request/response that carries no payload (headers)
HEADER_BYTES = 256.0

#: latency histogram bounds (seconds) for the percentile report
LATENCY_BOUNDS = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)

#: terminal statuses an operation can end in
STATUSES = (
    "ok", "rejected", "timeout", "failed", "disconnected", "link_down",
)


@dataclass(frozen=True)
class ServeOp:
    """One client-visible operation and its wire footprint.

    ``nbytes`` is the *declared* (logical) payload size — what crosses
    the network and what admission charges — independent of the capped
    in-simulation payload bytes.
    """

    kind: str  # "write" | "read" | "stat"
    path: str
    nbytes: float
    data: bytes = b""
    logical_size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("write", "read", "stat"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass
class OpOutcome:
    """How one operation ended, as the client saw it."""

    status: str
    latency_s: float


class ClientSession:
    """One client connection belonging to one tenant."""

    def __init__(
        self,
        engine,
        session_id: str,
        tenant: str,
        link: NetworkLink,
        admission: AdmissionController,
        backend,
        metrics: MetricsRegistry,
        sticky_disconnect: bool = True,
    ):
        self.engine = engine
        self.session_id = session_id
        self.tenant = tenant
        self.link = link
        self.admission = admission
        self.backend = backend
        self.metrics = metrics
        self.disconnected = False
        #: a pooled session aggregates many virtual clients: a
        #: ``client.disconnect`` then drops ONE virtual client (recorded
        #: and raised per op) instead of killing the whole pool.
        self.sticky_disconnect = sticky_disconnect
        self.outcomes: dict[str, int] = {status: 0 for status in STATUSES}
        # Per-op metric instruments, resolved once: _finish used to pay
        # an f-string plus a registry get-or-create per operation, which
        # is real money at pooled-fleet op rates (registry entries are
        # shared per tenant, so pre-creating them changes no output).
        self._status_counters = {
            status: metrics.counter(f"serve.ops.{tenant}.{status}")
            for status in STATUSES
        }
        self._latency = metrics.histogram(
            f"serve.latency_s.{tenant}", LATENCY_BOUNDS
        )
        self._bytes = metrics.counter(f"serve.bytes.{tenant}")

    # ------------------------------------------------------------------
    def perform(self, op: ServeOp) -> Generator:
        """Issue one operation end to end; returns an :class:`OpOutcome`.

        Never raises for QoS outcomes (rejection, timeout, link flap,
        backend error) — those come back as the outcome's ``status``.
        :class:`SessionDisconnectedError` *is* raised, after recording
        the outcome, so fleet loops stop the session.
        """
        start = self.engine.now
        with self.engine.trace.span(
            "serve.op", "serve",
            {"tenant": self.tenant, "op": op.kind, "path": op.path},
        ):
            if self.disconnected or self.engine.faults.check(
                SITE_CLIENT_SESSION, self.session_id
            ):
                if self.sticky_disconnect:
                    self.disconnected = True
                self._finish(op, "disconnected", start)
                raise SessionDisconnectedError(
                    f"session {self.session_id} dropped"
                )
            request_bytes = op.nbytes if op.kind == "write" else HEADER_BYTES
            response_bytes = op.nbytes if op.kind == "read" else HEADER_BYTES
            admission_bytes = (
                op.nbytes if op.kind in ("write", "read") else HEADER_BYTES
            )
            try:
                yield from self.link.request(request_bytes)
            except LinkDownError:
                return self._finish(op, "link_down", start)
            try:
                grant = yield from self.admission.admit(
                    self.tenant, admission_bytes
                )
            except AdmissionTimeoutError:
                return self._finish(op, "timeout", start)
            except ROSError:
                return self._finish(op, "rejected", start)
            try:
                if op.kind == "write":
                    yield from self.backend.write_file(
                        op.path, op.data, op.logical_size
                    )
                elif op.kind == "read":
                    yield from self.backend.read_file(op.path)
                else:
                    yield from self.backend.stat(op.path)
            except ROSError:
                return self._finish(op, "failed", start)
            finally:
                grant.release()
            try:
                yield from self.link.respond(response_bytes)
            except LinkDownError:
                return self._finish(op, "link_down", start)
            return self._finish(op, "ok", start)

    # ------------------------------------------------------------------
    def _finish(self, op: ServeOp, status: str, start: float) -> OpOutcome:
        elapsed = self.engine.now - start
        self.outcomes[status] += 1
        self._status_counters[status].inc()
        if status == "ok":
            self._latency.observe(elapsed)
            self._bytes.inc(op.nbytes)
        return OpOutcome(status, elapsed)
