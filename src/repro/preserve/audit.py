"""LOCKSS-style anti-entropy audit between replica holders.

"Lots Of Copies Keep Stuff Safe" — but only if the copies are actually
compared.  For every path, the :class:`AntiEntropyAuditor` asks each
alive replica holder (rendezvous placement, same order on every rack)
to read its copy and produce *sector-range checksums*: one SHA-256 per
``RANGE_BYTES`` slice.  The holders exchange digest vectors (a few
dozen bytes per range — the content itself never moves unless a repair
is needed; both are counted as wire bytes), vote, and any minority copy
is repaired by rewriting the majority's bytes onto the losing rack.

Votes are majority-by-digest-vector; ties break toward the group
containing the lowest holder index, so the outcome is deterministic.
A holder that cannot read at all (media loss, drives down, link flap)
abstains — it is an availability event for the verdict to count, not a
vote for its absent bytes — and is repaired from the majority when it
still stores a divergent readable copy later.
"""

from __future__ import annotations

import hashlib
from typing import Generator, Optional

from repro.errors import ROSError

#: granularity of the exchanged sector-range checksums
RANGE_BYTES = 16 * 1024

#: wire bytes per range digest (32-byte SHA-256 + framing)
DIGEST_WIRE_BYTES = 48.0

#: span emitted around each audit round (PRESERVE_SLOS watches it)
AUDIT_SPAN = "preserve.audit_round"


def range_digests(data: bytes) -> tuple:
    """The digest vector holders exchange: one SHA-256 per range."""
    if not data:
        return (hashlib.sha256(b"").hexdigest(),)
    return tuple(
        hashlib.sha256(data[offset : offset + RANGE_BYTES]).hexdigest()
        for offset in range(0, len(data), RANGE_BYTES)
    )


class AntiEntropyAuditor:
    """Cross-rack replica comparison, voting and minority repair."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.engine = cluster.engine
        self.stats = {
            "rounds": 0,
            "paths_audited": 0,
            "disagreements": 0,
            "repairs": 0,
            "unreadable": 0,
            "unrecoverable": 0,
            "digest_bytes_on_wire": 0,
            "repair_bytes_on_wire": 0,
        }

    # ------------------------------------------------------------------
    def _read_copy(self, rack_index: int, path: str) -> Generator:
        """One holder's copy (bytes) or None if it cannot serve it."""
        try:
            result = yield from self.cluster.racks[rack_index].pi.read_file(
                path
            )
        except ROSError:
            return None
        return result.data

    # ------------------------------------------------------------------
    def audit_path(self, path: str) -> Generator:
        """Audit one path across its alive holders; repair the minority.

        Returns a JSON-safe outcome dict.
        """
        holders = self.cluster._alive(self.cluster.placement(path))
        outcome = {
            "path": path,
            "holders": list(holders),
            "agree": True,
            "repaired": [],
            "unreadable": [],
        }
        if len(holders) < 2:
            return outcome
        copies: dict[int, Optional[bytes]] = {}
        for index in holders:
            copies[index] = yield from self._read_copy(index, path)
            if copies[index] is None:
                outcome["unreadable"].append(index)
                self.stats["unreadable"] += 1
        readable = [index for index in holders if copies[index] is not None]
        if not readable:
            self.stats["unrecoverable"] += 1
            return outcome
        # Exchange digest vectors (never the content).
        groups: dict[tuple, list[int]] = {}
        for index in readable:
            digests = range_digests(copies[index])
            self.stats["digest_bytes_on_wire"] += int(
                DIGEST_WIRE_BYTES * len(digests)
            )
            groups.setdefault(digests, []).append(index)
        if len(groups) > 1:
            outcome["agree"] = False
            self.stats["disagreements"] += 1
        # Vote: biggest group wins; ties break toward the group holding
        # the lowest rack index, so every replay picks the same winner.
        winner_group = max(
            groups.values(), key=lambda members: (len(members), -min(members))
        )
        winner_bytes = copies[winner_group[0]]
        # Repair the minority — divergent readable copies AND holders
        # that could not serve their copy at all (that is the LOCKSS
        # point: a dead copy is restored from the surviving majority
        # before the second copy dies too).
        for index in holders:
            if index in winner_group:
                continue
            # The replacement payload does cross the wire.
            self.stats["repair_bytes_on_wire"] += len(winner_bytes)
            try:
                yield from self.cluster.racks[index].pi.write_file(
                    path, winner_bytes, len(winner_bytes)
                )
            except ROSError:
                continue  # holder too broken to accept; next round
            outcome["repaired"].append(index)
            self.stats["repairs"] += 1
        return outcome

    def audit_round(self, paths) -> Generator:
        """One full round over ``paths`` (sorted); returns the summary."""
        paths = sorted(paths)
        self.stats["rounds"] += 1
        summary = {
            "paths": len(paths),
            "disagreements": 0,
            "repairs": 0,
            "unreadable": 0,
        }
        with self.engine.trace.span(
            AUDIT_SPAN, "preserve", {"paths": len(paths)}
        ):
            for path in paths:
                outcome = yield from self.audit_path(path)
                self.stats["paths_audited"] += 1
                if not outcome["agree"]:
                    summary["disagreements"] += 1
                summary["repairs"] += len(outcome["repaired"])
                summary["unreadable"] += len(outcome["unreadable"])
        return summary

    def run(self, paths, until: float, period: float) -> Generator:
        """Periodic rounds until the horizon (campaign driver)."""
        from repro.sim.engine import Delay

        while True:
            remaining = until - self.engine.now
            if remaining <= 0:
                return
            yield Delay(min(period, remaining))
            if self.engine.now >= until:
                return
            yield from self.audit_round(paths)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return dict(self.stats)
