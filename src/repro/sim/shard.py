"""Sharded deterministic event loop: conservative time-window merge.

Classic parallel-DES structure (Chandy/Misra/Bryant conservative
synchronization, specialized to a fixed minimum link latency): the
simulation is partitioned into *groups* (a rack, a site — any unit whose
processes share state only with each other), groups are assigned to
*shards*, and each shard owns a private :class:`~repro.sim.engine.Engine`
with its own clock, heap and run queue.  Interactions **between** groups
must cross a :class:`ShardedEngine` mailbox with a delivery delay of at
least the engine's ``lookahead`` — the minimum cross-group latency, i.e.
the WAN/link RTT floor of the modeled topology.

The window merge
----------------
``run()`` repeatedly:

1. finds ``t_next``, the globally earliest pending occurrence (any
   shard's next event or any mailbox head);
2. sets ``horizon = t_next + lookahead``;
3. advances every shard independently through ``[t_next, horizon)``,
   delivering that shard's mailbox entries as their times come up.

Step 3 is safe *because* of the lookahead bound: any message sent during
this window is stamped at the sender's clock ``s >= t_next`` and delivered
at ``s + delay >= t_next + lookahead = horizon`` — never inside the region
another shard has already advanced through.  Shards therefore never need
to wait on each other mid-window, and (in a future wall-clock-parallel
backend) could run step 3 concurrently; today's implementation advances
them sequentially, which makes the guarantee easy to audit and keeps the
win purely architectural: per-shard heaps stay small and the merged
ordering is *defined* rather than emergent.

Why replay is byte-exact
------------------------
Determinism needs every tie broken identically on every run **and for
every shard count**:

* mailbox entries are drained in ``(time, src_group, src_sequence)``
  order — the stamp names the logical *group*, not the physical shard,
  and each group numbers its own sends, so the drain order is a pure
  function of the workload (the same in 1-shard and N-shard layouts);
* deliveries at time ``T`` run *before* the destination shard executes
  its own events at ``T`` (``Engine.run_below`` stops strictly below
  ``T``), so a delivery's consequences interleave with same-time local
  events by the engine's ordinary sequence-number merge — again
  identically for any layout;
* groups may not share mutable state except through the mailbox, so
  co-locating two groups on one shard changes how their event streams
  interleave in wall clock but not any value either group computes.

Single-shard mode keeps the full mailbox discipline on one ordinary
:class:`Engine` — it *is* today's engine plus a message queue — which is
what makes ``shards=1`` vs ``shards=N`` byte-comparison a meaningful
standing oracle (see ``tests/test_shard.py`` and the chaos-replay
acceptance gate).
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional, Sequence

from repro.sim.engine import Engine, SimulationError, Wait


class ShardedEngine:
    """Per-group engines advanced under a conservative time window.

    ``groups`` is the ordered list of logical partition names; each is
    pinned to shard ``index % shards`` (deterministic for a given order).
    ``lookahead`` is the minimum cross-group delivery latency in seconds
    and must be positive — it is both the correctness bound of the window
    merge and the floor every :meth:`send`/:meth:`call` delay must meet.
    """

    def __init__(
        self,
        groups: Sequence[str],
        shards: int = 1,
        lookahead: float = 0.001,
    ):
        groups = list(groups)
        if not groups:
            raise ValueError("need at least one group")
        if len(set(groups)) != len(groups):
            raise ValueError("group names must be unique")
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if lookahead <= 0:
            raise ValueError(
                f"lookahead must be positive, got {lookahead}"
            )
        self.shards = min(int(shards), len(groups))
        self.lookahead = float(lookahead)
        self.engines = [Engine() for _ in range(self.shards)]
        self._group_index = {name: i for i, name in enumerate(groups)}
        self._shard_of = {
            name: i % self.shards for i, name in enumerate(groups)
        }
        #: per-shard mailbox heaps of (time, src_group_idx, seq, fn)
        self._mail: list[list[tuple[float, int, int, Callable[[], None]]]] = [
            [] for _ in range(self.shards)
        ]
        #: per-*group* send counters — stamps must not depend on layout
        self._send_seq = [0] * len(groups)
        #: windows run; shard advances in them that ran no occurrence;
        #: the deepest mailbox at a window's start (plain counts, like
        #: ``Engine.compactions``; ``OwnerCounter.gauges`` reports them)
        self.windows = self.stalls = self.max_mailbox = 0
        if Engine.owner_counter is not None:
            Engine.owner_counter.attach_sharded(self)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def engine_for(self, group: str) -> Engine:
        return self.engines[self._shard_of[group]]

    def spawn(self, group: str, generator: Generator, name: str = ""):
        return self.engine_for(group).spawn(generator, name)

    # ------------------------------------------------------------------
    # Cross-shard messaging
    # ------------------------------------------------------------------
    def send(
        self,
        src_group: str,
        dst_group: str,
        delay: float,
        fn: Callable[[], None],
    ) -> None:
        """Deliver ``fn()`` on ``dst_group``'s shard after ``delay`` seconds.

        ``delay`` is measured from the *sender's* clock and must be at
        least ``lookahead`` — the window merge is only correct under that
        bound, so violating it is an error, not a quiet reordering.
        """
        if delay < self.lookahead:
            raise SimulationError(
                f"cross-shard delay {delay} below lookahead "
                f"{self.lookahead} ({src_group} -> {dst_group})"
            )
        src_index = self._group_index[src_group]
        when = self.engines[self._shard_of[src_group]]._now + delay
        seq = self._send_seq[src_index]
        self._send_seq[src_index] = seq + 1
        heapq.heappush(
            self._mail[self._shard_of[dst_group]],
            (when, src_index, seq, fn),
        )

    def call(
        self,
        src_group: str,
        dst_group: str,
        factory: Callable[[], Generator],
    ) -> Generator:
        """Generator effect: run ``factory()`` on the destination shard.

        The remote generator is spawned after one ``lookahead`` (the
        request hop) and its result — or exception — travels back after
        another (the response hop); the caller resumes with the result,
        so a round trip costs at least ``2 * lookahead`` plus the remote
        work.  Use as ``value = yield from sharded.call(src, dst, fn)``.
        """
        done = self.engine_for(src_group).event("xshard-call")
        lookahead = self.lookahead

        def runner() -> Generator:
            try:
                value = yield from factory()
            except Exception as error:  # noqa: BLE001 - relayed to caller
                self.send(
                    dst_group, src_group, lookahead,
                    lambda error=error: done.fail(error),
                )
            else:
                self.send(
                    dst_group, src_group, lookahead,
                    lambda value=value: done.succeed(value),
                )

        def deliver() -> None:
            self.engine_for(dst_group).spawn(runner(), name="xshard-call")

        self.send(src_group, dst_group, lookahead, deliver)
        result = yield Wait(done)
        return result

    # ------------------------------------------------------------------
    # The conservative window merge
    # ------------------------------------------------------------------
    def _heads(self) -> list[Optional[float]]:
        """Each shard's earliest pending occurrence, its next event or its
        mailbox head, or None when it has neither."""
        heads = []
        for engine, mail in zip(self.engines, self._mail):
            head = engine.next_event_time()
            if mail and (head is None or mail[0][0] < head):
                head = mail[0][0]
            heads.append(head)
        return heads

    def _advance_shard(self, index: int, horizon: float) -> None:
        engine = self.engines[index]
        mail = self._mail[index]
        while mail and mail[0][0] < horizon:
            when = mail[0][0]
            # Local events strictly before the delivery time first; then
            # the delivery itself, *before* local events at `when` run —
            # its consequences merge with them by sequence number.
            engine.run_below(when)
            if engine._now < when:
                engine._now = when
            fn = heapq.heappop(mail)[3]
            fn()
        engine.run_below(horizon)

    def run(self) -> None:
        """Advance every shard until all engines and mailboxes drain."""
        while True:
            heads = self._heads()
            pending = [head for head in heads if head is not None]
            if not pending:
                return
            horizon = min(pending) + self.lookahead
            self.windows += 1
            self.max_mailbox = max(self.max_mailbox, *map(len, self._mail))
            for index, head in enumerate(heads):
                # a shard's clock and heap change only through its own
                # advance, and mail sent in this window lands at or past
                # the horizon: a head past it runs nothing this window
                if head is None or head >= horizon:
                    self.stalls += 1
                self._advance_shard(index, horizon)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Latest shard clock (shards advance independently inside windows)."""
        return max(engine._now for engine in self.engines)

    @property
    def is_idle(self) -> bool:
        return all(engine.is_idle for engine in self.engines) and not any(
            self._mail
        )

    @property
    def events_issued(self) -> int:
        return sum(engine.events_issued for engine in self.engines)
