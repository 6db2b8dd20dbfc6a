"""Rack-loss and site-loss recovery campaigns.

The :class:`RecoveryManager` is a long-lived engine process that wakes
on the store's loss event (fired when a rack or site is *destroyed*,
not merely down), waits a detection delay, and rebuilds every lost
shard onto a surviving rack:

1. decode the object from any ``k`` surviving shards (paying real fetch
   time through the surviving racks' bandwidth lanes — recovery traffic
   genuinely competes with client reads);
2. re-derive the lost shard (data slice or P/Q parity) by re-encoding
   the object with :func:`~repro.fleet.store.encode_object`;
3. store it on the best-ranked surviving rack outside the object's
   current placement, preferring racks that keep the per-site shard cap
   intact, and repoint the catalog.

Objects whose survivors dropped below ``k`` are *unrecoverable*: the
manager counts their bytes instead of fabricating them — that count is
exactly what invariant I8 and the fleet campaign's "zero bytes lost"
verdict check.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import FleetError, RackLostError, ShardUnavailableError
from repro.fleet.store import FleetStore, decode_object, encode_object
from repro.sim.engine import Delay, Wait


class RecoveryManager:
    """Background rebuild of destroyed shards onto surviving racks."""

    def __init__(
        self,
        store: FleetStore,
        detection_delay_s: float = 1.0,
    ):
        self.store = store
        self.engine = store.engine
        self.detection_delay_s = float(detection_delay_s)
        self._running = True
        self.stats = {
            "campaigns": 0,
            "shards_rebuilt": 0,
            "bytes_rebuilt": 0.0,
            "objects_rebuilt": 0,
            "objects_unrecoverable": 0,
            "bytes_lost": 0.0,
        }

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The manager process: wake per loss, rebuild until clean.

        A pass that makes *no* progress (every remaining lost shard is
        unrebuildable with the racks currently up — e.g. fewer up racks
        than the layout's ``n``) parks the manager back on the loss
        event instead of retrying: nothing changes until the fleet
        changes shape, and the store fires the event on restores as
        well as losses.
        """
        while self._running:
            if self.store.lost_shards():
                yield Delay(self.detection_delay_s)
                rebuilt = yield from self.rebuild_all()
                if not self._running:
                    return
                if rebuilt and self.store.lost_shards():
                    continue  # progress made: immediately try the rest
            yield Wait(self.store.loss_event)
            if not self._running:
                return

    def stop(self) -> None:
        """Stop after the current pass; wakes a sleeping manager."""
        self._running = False
        self.store.signal_loss()

    # ------------------------------------------------------------------
    def rebuild_all(self) -> Generator:
        """One recovery campaign: re-home every currently-lost shard.

        Returns the number of shards actually rebuilt, so the manager
        loop can tell progress from a pass that found nothing actionable.
        """
        self.stats["campaigns"] += 1
        by_path: dict[str, list[int]] = {}
        for path, position in self.store.lost_shards():
            by_path.setdefault(path, []).append(position)
        total = 0
        for path in sorted(by_path):
            total += yield from self._rebuild_object(
                path, sorted(by_path[path])
            )
        return total

    def _rebuild_object(
        self, path: str, missing: list[int]
    ) -> Generator:
        store = self.store
        record = store.catalog[path]
        survivors = [
            position
            for position in store.surviving_shards(path)
            if store.racks[record.placement[position]].up
        ]
        if len(survivors) < record.k:
            # Survivors that exist but sit on down (intact) racks don't
            # help a rebuild *now*; if even the physical survivors are
            # below k the object is gone for good.
            if not store.recoverable(path):
                self.stats["objects_unrecoverable"] += 1
                self.stats["bytes_lost"] += record.size
            return 0
        fetched: dict[int, bytes] = {}
        for position in survivors:
            if len(fetched) >= record.k:
                break
            rack = store.racks[record.placement[position]]
            try:
                payload = yield from rack.fetch(path, position)
            except (RackLostError, ShardUnavailableError):
                continue
            fetched[position] = payload
        if len(fetched) < record.k:
            if not store.recoverable(path):
                self.stats["objects_unrecoverable"] += 1
                self.stats["bytes_lost"] += record.size
            return 0
        all_shards, _ = encode_object(
            decode_object(fetched, record.k, record.pad), record.k, record.m
        )
        rebuilt = 0
        for position in missing:
            try:
                target = store.rebuild_target(record, position)
            except FleetError:
                break
            try:
                yield from store.racks[target].store(
                    path, position, all_shards[position],
                    wire_bytes=record.shard_wire,
                )
            except RackLostError:
                continue  # target died while we streamed; next campaign
            record.placement[position] = target
            rebuilt += 1
            self.stats["shards_rebuilt"] += 1
            self.stats["bytes_rebuilt"] += record.shard_wire
        if rebuilt:
            self.stats["objects_rebuilt"] += 1
        return rebuilt

    # ------------------------------------------------------------------
    def health(self) -> dict:
        stats = dict(self.stats)
        stats["bytes_rebuilt"] = round(stats["bytes_rebuilt"], 3)
        stats["bytes_lost"] = round(stats["bytes_lost"], 3)
        stats["running"] = self._running
        return stats

