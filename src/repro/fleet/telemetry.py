"""Per-rack telemetry agents replicating samples to a central store.

The ReductStore demo in the related file set records robot telemetry
locally and replicates it to a central archive; this module mirrors
that shape inside the simulation.  A :class:`TelemetryAgent` lives with
one rack (or one site frontend): a
:class:`~repro.sim.telemetry.Sampler` ``on_tick`` hook evaluates its
probes each period and appends points to the current batch; sealed
batches wait in a bounded outbox until a replicator process ships them
to the :class:`CentralTelemetry` ingest over the site's simulated
:class:`~repro.serve.network.NetworkLink` — replication traffic is real
bytes on the same lanes as tenant traffic, at a small flow weight.

Delivery semantics (the part ``net.link_flap`` and ``rack.loss`` care
about):

* Batches carry a per-agent sequence number; the central store ingests
  each sequence at most once.  A link failure *after* ingest but before
  the ack costs a retry, not a duplicate.
* Unacked batches are retried with exponential backoff until the link
  heals — an acked batch can never be lost, and after an outage the
  agent catches up from its outbox.
* The outbox is bounded: when sealing a batch would exceed it, the
  oldest batch not yet sent is dropped and counted (``batches_dropped``
  / ``points_dropped``).  The head, once sent, stays until it is acked:
  it may already be ingested, so a batch counted acked is one the
  central store ingested and one counted dropped is one it never saw.
* A batch whose request arrived but whose ack never did, still unacked
  when its rack goes, is counted *in doubt* (``batches_in_doubt`` /
  ``points_in_doubt``), not dropped: the central store may hold it.
* While the source rack is down the sampler skips ticks (an agent dies
  with its rack) and the replicator backs off; a destroyed rack's
  agent simply goes silent — the supervisor's staleness rule is how
  the fleet notices.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.errors import LinkDownError, RackLostError
from repro.serve.network import NetworkLink
from repro.sim.engine import Delay, Engine, SimEvent, Wait
from repro.sim.telemetry import Sampler
from repro.tsdb import TimeSeriesStore

#: wire cost of one replication batch envelope (headers, auth, framing)
BATCH_HEADER_BYTES = 256.0
#: wire cost per replicated point (name + labels + float, encoded)
POINT_WIRE_BYTES = 48.0
#: wire cost of the central store's ack
ACK_WIRE_BYTES = 64.0
#: first retry delay after a failed send; doubles per failure up to the cap
BACKOFF_S = 0.25
MAX_BACKOFF_S = 4.0
#: replication's flow weight on the site link (tenant traffic weighs 1)
LINK_WEIGHT = 0.25
#: sealed batches an agent holds unsent; a new seal drops the oldest
MAX_OUTBOX_BATCHES = 16
#: an agent samples its probes every 0.5 s and, by default, flushes
#: every third sample: one batch per 1.5 s
SAMPLE_PERIOD_S = 0.5
FLUSH_EVERY = 3
#: failed sends a stopped agent still tries before abandoning its outbox
DRAIN_RETRY_LIMIT = 8


class CentralTelemetry:
    """Ingest frontend of the central store: per-agent seq dedup."""

    def __init__(self):
        self.store = TimeSeriesStore()
        self._last_seq: dict[str, int] = {}
        self.stats = {
            "batches_ingested": 0,
            "points_ingested": 0,
            "duplicate_batches": 0,
        }

    def ingest(
        self,
        agent_id: str,
        seq: int,
        points: list[tuple[str, dict, float, float]],
    ) -> bool:
        """Apply one batch exactly once; False if ``seq`` was replayed."""
        if seq <= self._last_seq.get(agent_id, -1):
            self.stats["duplicate_batches"] += 1
            return False
        self._last_seq[agent_id] = seq
        for name, labels, t, value in points:
            self.store.append(name, labels, t, value)
        self.stats["batches_ingested"] += 1
        self.stats["points_ingested"] += len(points)
        return True

    def health(self) -> dict:
        return {
            **{key: int(val) for key, val in sorted(self.stats.items())},
            "agents_seen": len(self._last_seq),
        }


class TelemetryAgent:
    """One rack's sampler + batcher + link replicator."""

    def __init__(
        self,
        engine: Engine,
        agent_id: str,
        central: CentralTelemetry,
        link: NetworkLink,
        probes: dict[str, Callable[[], float]],
        labels: Optional[dict] = None,
        flush_every: int = FLUSH_EVERY,
        horizon_s: Optional[float] = None,
        source_up: Optional[Callable[[], bool]] = None,
    ):
        if flush_every <= 0:
            raise ValueError("flush_every must be positive")
        self.engine = engine
        self.agent_id = agent_id
        self.central = central
        self.link = link
        self.probes = dict(probes)
        self.labels = dict(labels or {})
        self.flush_every = int(flush_every)
        self.source_up = source_up
        self._pending: list[tuple[str, dict, float, float]] = []
        self._outbox: deque[tuple[int, list]] = deque()
        self._seq = 0
        #: 1 once the outbox head has gone on the wire, until it is acked
        self._head_sent = 0
        #: the outbox head's request has arrived, its ack has not
        self._head_in_doubt = False
        self._ticks = 0
        self._stopped = False
        self._wake: SimEvent = engine.event(f"telemetry.{agent_id}")
        self._flusher = None
        self.sampler = Sampler(
            engine,
            period=SAMPLE_PERIOD_S,
            on_tick=self._tick,
            horizon=horizon_s,
        )
        self.stats = {
            "samples": 0,
            "ticks_skipped": 0,
            "batches_sealed": 0,
            "batches_acked": 0,
            "batches_dropped": 0,
            "batches_abandoned": 0,
            "batches_in_doubt": 0,
            "points_dropped": 0,
            "points_in_doubt": 0,
            "retries": 0,
        }

    # ------------------------------------------------------------------
    def start(self) -> "TelemetryAgent":
        self.sampler.start()
        if self._flusher is None or self._flusher.done:
            self._flusher = self.engine.spawn(
                self._replicate(), name=f"telemetry-{self.agent_id}"
            )
        return self

    def stop(self) -> None:
        """Stop sampling, seal the tail batch, let the replicator drain."""
        if self._stopped:
            return
        self._stopped = True
        self.sampler.stop()
        self._seal()
        self._signal()

    # ------------------------------------------------------------------
    def _source_is_up(self) -> bool:
        return self.source_up is None or bool(self.source_up())

    def _tick(self, now: float) -> None:
        if self._stopped:
            return
        if not self._source_is_up():
            self.stats["ticks_skipped"] += 1
            return
        for name in sorted(self.probes):
            self._pending.append(
                (name, self.labels, now, float(self.probes[name]()))
            )
            self.stats["samples"] += 1
        self._ticks += 1
        # the first tick seals immediately — a rack that dies young must
        # still have reported once, or the supervisor's staleness rule
        # has no series to notice going quiet
        if self._ticks == 1 or self._ticks % self.flush_every == 0:
            self._seal()

    def _seal(self) -> None:
        if not self._pending:
            return
        if len(self._outbox) - self._head_sent >= MAX_OUTBOX_BATCHES:
            _seq, dropped = self._outbox[self._head_sent]
            del self._outbox[self._head_sent]
            self.stats["batches_dropped"] += 1
            self.stats["points_dropped"] += len(dropped)
        self._outbox.append((self._seq, self._pending))
        self._seq += 1
        self._pending = []
        self.stats["batches_sealed"] += 1
        self._signal()

    def _signal(self) -> None:
        event = self._wake
        self._wake = self.engine.event(f"telemetry.{self.agent_id}")
        event.succeed(None)

    # ------------------------------------------------------------------
    def _replicate(self) -> Generator:
        backoff = BACKOFF_S
        attempts = 0
        while True:
            if not self._outbox:
                if self._stopped:
                    return
                yield Wait(self._wake)
                continue
            if not self._source_is_up():
                if self._stopped:
                    # Rack gone for good and the campaign is over: the
                    # unacked tail is lost with its rack, and counted.
                    self._abandon_outbox()
                    return
                yield Delay(backoff)
                backoff = min(backoff * 2, MAX_BACKOFF_S)
                continue
            seq, points = self._outbox[0]
            wire = BATCH_HEADER_BYTES + POINT_WIRE_BYTES * len(points)
            self._head_sent = 1
            try:
                yield from self.link.request(wire, LINK_WEIGHT)
                self._head_in_doubt = True
                self.central.ingest(self.agent_id, seq, points)
                yield from self.link.respond(ACK_WIRE_BYTES, LINK_WEIGHT)
            except (LinkDownError, RackLostError):
                self.stats["retries"] += 1
                attempts += 1
                if self._stopped and attempts > DRAIN_RETRY_LIMIT:
                    self._abandon_outbox()
                    return
                yield Delay(backoff)
                backoff = min(backoff * 2, MAX_BACKOFF_S)
                continue
            self._outbox.popleft()
            self._head_sent = 0
            self._head_in_doubt = False
            self.stats["batches_acked"] += 1
            backoff = BACKOFF_S
            attempts = 0

    def _abandon_outbox(self) -> None:
        if self._head_in_doubt:
            _seq, points = self._outbox.popleft()
            self.stats["batches_in_doubt"] += 1
            self.stats["points_in_doubt"] += len(points)
        while self._outbox:
            _seq, points = self._outbox.popleft()
            self.stats["batches_abandoned"] += 1
            self.stats["points_dropped"] += len(points)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "agent": self.agent_id,
            "outbox_depth": len(self._outbox),
            **{key: int(val) for key, val in sorted(self.stats.items())},
        }


def rack_probes(rack) -> dict[str, Callable[[], float]]:
    """The standard per-rack probe set over ``ShardRack`` health fields.

    Gauges (up, shards, flows, bytes) plus the monotonic counters the
    supervisor's rate rules consume — counters make rates computable
    without diffing health dicts.
    """
    return {
        "fleet.rack.up": lambda: 1.0 if rack.up else 0.0,
        "fleet.rack.shards": lambda: float(len(rack.shards)),
        "fleet.rack.used_bytes": lambda: float(rack.used_bytes),
        "fleet.rack.active_flows": lambda: float(rack.lane.active_flows),
        "fleet.rack.fetches": lambda: float(rack.fetches),
        "fleet.rack.fetch_errors": lambda: float(rack.fetch_errors),
        "fleet.rack.stores": lambda: float(rack.stores),
        "fleet.rack.store_errors": lambda: float(rack.store_errors),
        "fleet.rack.failures": lambda: float(rack.failures),
    }


def site_probes(
    site: str, link: NetworkLink, metrics, statuses: tuple[str, ...]
) -> dict[str, Callable[[], float]]:
    """Per-site frontend probes: link counters + tenant op outcomes."""
    probes: dict[str, Callable[[], float]] = {
        "fleet.site.link_requests": lambda: float(link.requests),
        "fleet.site.link_drops": lambda: float(link.drops),
    }
    for status in statuses:
        counter = metrics.counter(f"serve.ops.{site}.{status}")
        probes[f"fleet.site.ops_{status}"] = (
            lambda c=counter: float(c.value)
        )
    return probes
