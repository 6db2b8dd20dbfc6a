"""The background scrubber: budgeted patrol reads under live traffic.

"Disc sector-error checking can be scheduled at idle times and can
periodically scan all the burned disc arrays to check sector errors"
(§4.7).  :class:`BackgroundScrubber` walks every USED array in address
order, ages the media through the rack's :class:`AgingClock` first (so
patrols find what time actually broke), and runs the Maintenance
Interface scrub — which now verifies each track against the checksum
stored at burn time, catching silent corruption as well as unreadable
sectors.

Scrub I/O is *budgeted*, two ways:

* standalone — a private :class:`~repro.serve.tenancy.TokenBucket`
  (bytes/second) paces passes; the scrubber waits, event-driven, until
  the bucket covers the next array's estimated bytes;
* under a serving workload — the scrubber is admitted through the
  :class:`~repro.serve.tenancy.AdmissionController` as its own tenant,
  so the same SFQ weights and token buckets that protect the gold
  tenant's p99 also gate scrub I/O.  Backpressure or a deadline simply
  defers the array to the next pass — patrols yield to paying traffic.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro import units
from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    ROSError,
)
from repro.olfs.mechanical import ArrayState
from repro.serve.tenancy import AdmissionController, TokenBucket
from repro.sim.engine import Delay

#: span emitted around each array scrub (PRESERVE_SLOS watches it)
SCRUB_SPAN = "preserve.scrub_array"

#: standalone budget: 4 MB/s of patrol reads, bursts of four seconds' worth
RATE_BYTES = 4 * units.MB

#: idle sleep when no array is scrubbable yet
IDLE_SLEEP_SECONDS = 5.0

#: backoff after an admission rejection/timeout before retrying
DEFER_SECONDS = 10.0

#: the admission tenant scrub I/O is charged to
TENANT = "scrub"


class BackgroundScrubber:
    """Budgeted, checksum-verifying patrol scrubs over one rack."""

    def __init__(
        self,
        ros,
        clock=None,
        admission: Optional[AdmissionController] = None,
        migrate_after_years: Optional[float] = None,
    ):
        self.ros = ros
        self.engine = ros.engine
        self.clock = clock
        self.admission = admission
        self.migrate_after_years = migrate_after_years
        self.bucket: Optional[TokenBucket] = None
        if admission is None:
            self.bucket = TokenBucket(
                self.engine, RATE_BYTES, 4.0 * RATE_BYTES
            )
        self.stats = {
            "passes": 0,
            "arrays_scrubbed": 0,
            "bytes_scrubbed": 0,
            "errors_found": 0,
            "checksum_mismatches": 0,
            "images_repaired": 0,
            "images_migrated": 0,
            "images_lost": 0,
            "deferred": 0,
            "skipped": 0,
            "recoveries": 0,
            "rate_changes": 0,
        }

    # ------------------------------------------------------------------
    def set_rate(self, rate_bytes: float) -> bool:
        """Re-budget the standalone patrol (bytes/second), in place.

        The fleet supervisor's "scrub error spike -> raise scrub budget"
        remediation.  Accrued tokens are refilled at the *old* rate up
        to now, then the bucket switches over to a burst of four seconds
        of the new rate; ``granted`` accounting is preserved.  Returns False (no-op) when the scrubber is admitted
        through an AdmissionController — its budget is the tenant spec's,
        not ours to change.
        """
        if self.bucket is None:
            return False
        if rate_bytes <= 0:
            raise ValueError("rate must be positive")
        self.bucket._refill()
        self.bucket.rate = float(rate_bytes)
        self.bucket.burst = 4.0 * float(rate_bytes)
        self.bucket.tokens = min(self.bucket.tokens, self.bucket.burst)
        self.stats["rate_changes"] += 1
        return True

    # ------------------------------------------------------------------
    def _used_arrays(self) -> list:
        return [
            key
            for key in sorted(self.ros.mc.da_index)
            if self.ros.mc.da_index[key] is ArrayState.USED
        ]

    def _array_bytes(self, roller: int, address) -> int:
        tray = self.ros.mech.rollers[roller].tray_at(address)
        return sum(
            disc.image().logical_size for disc in tray.discs() if disc.tracks
        )

    def _should_migrate(self, roller: int, address) -> bool:
        if self.clock is None or self.migrate_after_years is None:
            return False
        tray = self.ros.mech.rollers[roller].tray_at(address)
        ages = [
            self.clock.age_of(disc.disc_id)
            for disc in tray.discs()
            if disc.tracks
        ]
        return bool(ages) and max(ages) >= self.migrate_after_years

    # ------------------------------------------------------------------
    def scrub_one(self, roller: int, address) -> Optional[dict]:
        """Generator: budget-gate then scrub one array; returns report."""
        est = float(max(1, self._array_bytes(roller, address)))
        grant = None
        if self.admission is not None:
            try:
                grant = yield from self.admission.admit(TENANT, est)
            except (AdmissionRejectedError, AdmissionTimeoutError):
                self.stats["deferred"] += 1
                yield Delay(DEFER_SECONDS)
                return None
        else:
            while not self.bucket.try_take(est):
                yield Delay(max(self.bucket.seconds_until(est), 1e-6))
        try:
            if self.clock is not None:
                self.clock.tick()
            migrate = self._should_migrate(roller, address)
            with self.engine.trace.span(
                SCRUB_SPAN,
                "preserve",
                {
                    "roller": roller,
                    "layer": address.layer,
                    "slot": address.slot,
                    "bytes": est,
                    "migrate": migrate,
                },
            ):
                try:
                    report = yield from self.ros.mi.scrub_array(
                        roller, address, migrate=migrate
                    )
                except ROSError:
                    # The array changed state under us, or a fault hit
                    # the mechanics mid-scrub.  Run the PLC recovery
                    # routine before giving up on the array: a drive set
                    # wedged by an aborted load (discs in the drives, no
                    # home tray recorded) blocks *every* future scrub on
                    # this rack until someone resets it.
                    self.stats["skipped"] += 1
                    yield from self._recover()
                    return None
            self.stats["arrays_scrubbed"] += 1
            self.stats["bytes_scrubbed"] += int(est)
            self.stats["errors_found"] += report["errors"]
            self.stats["checksum_mismatches"] += report[
                "checksum_mismatches"
            ]
            self.stats["images_repaired"] += len(report["repaired"])
            self.stats["images_migrated"] += len(report["migrated"])
            self.stats["images_lost"] += len(report["lost"])
            return report
        finally:
            if grant is not None:
                grant.release()

    def _recover(self) -> Generator:
        """Best-effort mechanics recovery after a failed scrub."""
        try:
            yield from self.ros.mech.reset_after_fault()
        except ROSError:
            return  # recovery itself blocked; retry on the next skip
        self.stats["recoveries"] += 1

    def scrub_pass(self, until: Optional[float] = None) -> Generator:
        """One full patrol over every USED array (address order)."""
        self.stats["passes"] += 1
        for roller, address in self._used_arrays():
            if until is not None and self.engine.now >= until:
                return
            if self.ros.mc.da_index.get((roller, address)) is not (
                ArrayState.USED
            ):
                continue  # retired by an earlier scrub in this pass
            yield from self.scrub_one(roller, address)

    def run(self, until: float) -> Generator:
        """Patrol until the horizon: repeated passes, idling when empty."""
        while self.engine.now < until:
            if not self._used_arrays():
                yield Delay(IDLE_SLEEP_SECONDS)
                continue
            yield from self.scrub_pass(until)
            if self.engine.now < until:
                yield Delay(IDLE_SLEEP_SECONDS)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        snapshot = dict(self.stats)
        if self.bucket is not None:
            snapshot["budget_granted_bytes"] = int(self.bucket.granted)
        return snapshot
