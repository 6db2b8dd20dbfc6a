"""Tenants, token-bucket rate limits, and fair-share admission control.

A :class:`TenantSpec` names a tenant and its QoS contract: optional
ops/s and bytes/s token buckets, a scheduling weight, a bounded
per-tenant admission queue, and an optional queueing deadline.  The
:class:`AdmissionController` sits between sessions and the rack:

* **backpressure** — a full tenant queue (or a closed controller)
  rejects immediately with
  :class:`~repro.errors.AdmissionRejectedError`;
* **deadlines** — requests that outlive ``deadline_s`` in the queue fail
  with :class:`~repro.errors.AdmissionTimeoutError` instead of occupying
  the drive pool after the client has given up;
* **fair share** — dispatch order is start-time fair queuing (SFQ):
  every request gets a start tag ``S = max(V, tenant's last finish)``
  and finish tag ``F = S + cost / weight``; the dispatcher always
  releases the eligible request with the smallest finish tag, so a
  tenant's share of the drive pool is proportional to its weight no
  matter how deep the other queues are;
* **rate limits** — a request is eligible only when its tenant's token
  buckets (ops and bytes) cover it; buckets refill lazily on the
  simulation clock, so admission can never exceed
  ``burst + rate x elapsed`` (the conservation property the hypothesis
  suite checks).

Every decision is journaled to the engine's flight recorder
(``serve.admit`` / ``serve.reject`` / ``serve.timeout`` /
``serve.release``), and :meth:`AdmissionController.stats` exposes the
counters the chaos harness audits for "no admitted request lost".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import AdmissionRejectedError, AdmissionTimeoutError
from repro.sim.engine import Engine, SimEvent, Wait

#: SFQ cost unit: one 64 KB bucket's worth of payload
COST_UNIT_BYTES = 65536.0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's QoS contract."""

    name: str
    #: admitted operations per second (None = unlimited)
    rate_ops: Optional[float] = None
    #: admitted payload bytes per second (None = unlimited)
    rate_bytes: Optional[float] = None
    #: bucket depths (how much burst the contract tolerates)
    burst_ops: float = 8.0
    burst_bytes: float = 8 * COST_UNIT_BYTES
    #: SFQ weight (share of the drive pool under contention)
    weight: float = 1.0
    #: bounded admission queue depth (backpressure beyond this)
    max_queue: int = 64
    #: queueing deadline in seconds (None = wait forever)
    deadline_s: Optional[float] = None
    #: advisory p99 latency objective, surfaced in serve reports
    slo_p99_s: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")
        if self.max_queue < 1:
            raise ValueError(f"{self.name}: max_queue must be >= 1")
        for field_name in ("rate_ops", "rate_bytes", "deadline_s"):
            value = getattr(self, field_name)
            if value is not None and value <= 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be positive"
                )


class TokenBucket:
    """A token bucket refilled lazily on the simulation clock.

    ``try_take`` either debits the bucket now or reports failure;
    ``seconds_until`` tells the dispatcher exactly how long until the
    debit would succeed, so waiting is event-driven, not polled.

    Requests larger than the bucket depth are admitted on a *debt*
    model: they wait until the bucket is full, then drive it negative,
    which spaces subsequent grants at the contracted rate.  ``granted``
    accumulates every successful debit; the conservation bound the
    hypothesis suite checks is
    ``granted <= rate x elapsed + max(burst, largest single request)``
    (which reduces to ``burst + rate x elapsed`` when every request fits
    the bucket).
    """

    def __init__(self, engine: Engine, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.engine = engine
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.granted = 0.0
        self._last = engine.now

    def _refill(self) -> None:
        now = self.engine.now
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + self.rate * (now - self._last)
            )
            self._last = now

    def try_take(self, amount: float) -> bool:
        self._refill()
        if self.tokens + 1e-12 >= min(amount, self.burst):
            self.tokens -= amount
            self.granted += amount
            return True
        return False

    def seconds_until(self, amount: float) -> float:
        """Simulated seconds until ``try_take(amount)`` would succeed."""
        self._refill()
        deficit = min(amount, self.burst) - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class _Ticket:
    """One queued admission request."""

    __slots__ = (
        "tenant", "nbytes", "cost", "enqueued_at", "deadline",
        "start_tag", "finish_tag", "seq", "event",
    )

    def __init__(self, tenant, nbytes, cost, enqueued_at, deadline,
                 seq, event):
        self.tenant = tenant
        self.nbytes = nbytes
        self.cost = cost
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.start_tag = 0.0
        self.finish_tag = 0.0
        self.seq = seq
        self.event = event


class AdmissionGrant:
    """Handle returned by a successful admission; release when done."""

    __slots__ = ("_controller", "_tenant", "_released")

    def __init__(self, controller: "AdmissionController", tenant: str):
        self._controller = controller
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self._tenant)


class AdmissionController:
    """Bounded, deadline-aware, weighted-fair admission to the rack."""

    def __init__(
        self,
        engine: Engine,
        tenants: list[TenantSpec],
        max_inflight: int = 8,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.engine = engine
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.max_inflight = max_inflight
        self._queues: dict[str, deque[_Ticket]] = {
            name: deque() for name in self.tenants
        }
        self._ops_buckets: dict[str, TokenBucket] = {}
        self._bytes_buckets: dict[str, TokenBucket] = {}
        for tenant in tenants:
            if tenant.rate_ops is not None:
                self._ops_buckets[tenant.name] = TokenBucket(
                    engine, tenant.rate_ops, tenant.burst_ops
                )
            if tenant.rate_bytes is not None:
                self._bytes_buckets[tenant.name] = TokenBucket(
                    engine, tenant.rate_bytes, tenant.burst_bytes
                )
        #: SFQ virtual time and per-tenant last finish tags
        self._virtual = 0.0
        self._last_finish: dict[str, float] = {
            name: 0.0 for name in self.tenants
        }
        self._seq = 0
        self._inflight = 0
        self._closed = False
        self._wake: Optional[SimEvent] = None
        engine.spawn(self._dispatch_loop(), name="admission-dispatcher")
        #: per-tenant decision counters (chaos invariant + reports)
        self.stats: dict[str, dict[str, float]] = {
            name: {
                "submitted": 0,
                "admitted": 0,
                "rejected": 0,
                "timed_out": 0,
                "released": 0,
                "admitted_bytes": 0.0,
                "queue_seconds": 0.0,
            }
            for name in self.tenants
        }

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def admit(self, tenant_name: str, nbytes: float) -> Generator:
        """Queue for admission; returns an :class:`AdmissionGrant`.

        Raises :class:`AdmissionRejectedError` on backpressure and
        :class:`AdmissionTimeoutError` if the queueing deadline passes
        first.  Generator form — call with ``yield from`` inside a
        simulation process.
        """
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            raise KeyError(f"unknown tenant {tenant_name!r}")
        stats = self.stats[tenant_name]
        stats["submitted"] += 1
        queue = self._queues[tenant_name]
        if self._closed or len(queue) >= tenant.max_queue:
            stats["rejected"] += 1
            self._record(
                "serve.reject", tenant=tenant_name,
                nbytes=float(nbytes), depth=len(queue),
                reason="closed" if self._closed else "queue_full",
            )
            raise AdmissionRejectedError(
                f"{tenant_name}: queue full "
                f"({len(queue)}/{tenant.max_queue})"
                if not self._closed
                else f"{tenant_name}: admission closed"
            )
        now = self.engine.now
        deadline = (
            now + tenant.deadline_s if tenant.deadline_s is not None
            else None
        )
        self._seq += 1
        ticket = _Ticket(
            tenant_name, float(nbytes),
            max(1.0, float(nbytes) / COST_UNIT_BYTES),
            now, deadline, self._seq, self.engine.event("admission"),
        )
        ticket.start_tag = max(
            self._virtual, self._last_finish[tenant_name]
        )
        ticket.finish_tag = ticket.start_tag + ticket.cost / tenant.weight
        self._last_finish[tenant_name] = ticket.finish_tag
        queue.append(ticket)
        self._kick()
        grant = yield Wait(ticket.event)
        return grant

    def _release(self, tenant_name: str) -> None:
        self._inflight -= 1
        self.stats[tenant_name]["released"] += 1
        self._record("serve.release", tenant=tenant_name,
                     inflight=self._inflight)
        self._kick()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        wake = self._wake
        if wake is not None and not wake.fired:
            wake.succeed()

    def _prune_deadlines(self) -> None:
        now = self.engine.now
        for name, queue in self._queues.items():
            if not queue:
                continue
            kept = deque()
            for ticket in queue:
                if ticket.deadline is not None and now >= ticket.deadline:
                    stats = self.stats[name]
                    stats["timed_out"] += 1
                    self._record(
                        "serve.timeout", tenant=name,
                        nbytes=ticket.nbytes,
                        waited=now - ticket.enqueued_at,
                    )
                    ticket.event.fail(AdmissionTimeoutError(
                        f"{name}: deadline after "
                        f"{now - ticket.enqueued_at:.3f}s in queue"
                    ))
                else:
                    kept.append(ticket)
            self._queues[name] = queue = kept

    def _eligible_head(self, name: str) -> Optional[float]:
        """Seconds until this tenant's head ticket is token-eligible."""
        queue = self._queues[name]
        if not queue:
            return None
        ticket = queue[0]
        wait = 0.0
        ops_bucket = self._ops_buckets.get(name)
        if ops_bucket is not None:
            wait = max(wait, ops_bucket.seconds_until(1.0))
        bytes_bucket = self._bytes_buckets.get(name)
        if bytes_bucket is not None:
            wait = max(wait, bytes_bucket.seconds_until(ticket.nbytes))
        return wait

    def _try_dispatch(self) -> bool:
        """Admit the eligible head ticket with the smallest finish tag."""
        if self._inflight >= self.max_inflight:
            return False
        best: Optional[_Ticket] = None
        for name in self.tenants:  # dict order: stable, insertion
            wait = self._eligible_head(name)
            if wait is None or wait > 0.0:
                continue
            ticket = self._queues[name][0]
            if best is None or (ticket.finish_tag, ticket.seq) < (
                best.finish_tag, best.seq
            ):
                best = ticket
        if best is None:
            return False
        name = best.tenant
        ops_bucket = self._ops_buckets.get(name)
        if ops_bucket is not None:
            ops_bucket.try_take(1.0)
        bytes_bucket = self._bytes_buckets.get(name)
        if bytes_bucket is not None:
            bytes_bucket.try_take(best.nbytes)
        self._queues[name].popleft()
        self._virtual = max(self._virtual, best.start_tag)
        self._inflight += 1
        now = self.engine.now
        stats = self.stats[name]
        stats["admitted"] += 1
        stats["admitted_bytes"] += best.nbytes
        stats["queue_seconds"] += now - best.enqueued_at
        self._record(
            "serve.admit", tenant=name, nbytes=best.nbytes,
            waited=now - best.enqueued_at, inflight=self._inflight,
        )
        best.event.succeed(AdmissionGrant(self, name))
        return True

    def _next_wait(self) -> Optional[float]:
        """Seconds until the next token refill or deadline expiry."""
        now = self.engine.now
        wait: Optional[float] = None
        if self._inflight < self.max_inflight:
            for name in self.tenants:
                head_wait = self._eligible_head(name)
                if head_wait is not None and (
                    wait is None or head_wait < wait
                ):
                    wait = head_wait
        for queue in self._queues.values():
            for ticket in queue:
                if ticket.deadline is not None:
                    remaining = max(0.0, ticket.deadline - now)
                    if wait is None or remaining < wait:
                        wait = remaining
        return wait

    def _dispatch_loop(self) -> Generator:
        while True:
            self._prune_deadlines()
            while self._try_dispatch():
                pass
            if self._closed and not any(
                self._queues[name] for name in self.tenants
            ):
                return
            wake = self.engine.event("admission-wake")
            self._wake = wake
            timer = None
            wait = self._next_wait()
            if wait is not None:
                def fire(event: SimEvent = wake) -> None:
                    if not event.fired:
                        event.succeed()
                timer = self.engine.call_later(max(wait, 1e-9), fire)
            yield Wait(wake)
            self._wake = None
            if timer is not None:
                timer.cancel()

    # ------------------------------------------------------------------
    # Lifecycle / audit
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting: fail queued tickets, let the dispatcher exit."""
        if self._closed:
            return
        self._closed = True
        for name, queue in self._queues.items():
            while queue:
                ticket = queue.popleft()
                self.stats[name]["rejected"] += 1
                self._record("serve.reject", tenant=name,
                             nbytes=ticket.nbytes, reason="closed")
                ticket.event.fail(AdmissionRejectedError(
                    f"{name}: admission closed"
                ))
        self._kick()

    @property
    def queued(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def health(self) -> dict:
        return {
            "inflight": self._inflight,
            "queued": self.queued,
            "closed": self._closed,
            "virtual_time": round(self._virtual, 6),
            "per_tenant": {
                name: dict(stats) for name, stats in
                sorted(self.stats.items())
            },
        }

    def audit(self) -> tuple[bool, str]:
        """The "no admitted request lost" check (chaos 5th invariant).

        Every admitted request must eventually release its grant, and no
        ticket may still be queued once the system has drained.
        """
        for name in sorted(self.stats):
            stats = self.stats[name]
            if stats["admitted"] != stats["released"]:
                return False, (
                    f"{name}: admitted={int(stats['admitted'])} "
                    f"released={int(stats['released'])}"
                )
            lost = stats["submitted"] - (
                stats["admitted"] + stats["rejected"] + stats["timed_out"]
            )
            if lost:
                return False, f"{name}: {int(lost)} tickets unaccounted"
        if self.queued:
            return False, f"{self.queued} tickets still queued"
        return True, "every admitted request released its grant"

    def _record(self, kind: str, **fields) -> None:
        if self.engine.recorder.enabled:
            rounded = {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in fields.items()
            }
            self.engine.recorder.record(kind, **rounded)
