"""Retry/backoff policies for fault-tolerant OLFS paths.

Burning, fetching and recovery all face the same question when a drive,
disc or PLC operation fails: how many times to retry and how long to back
off between attempts.  :class:`RetryPolicy` centralizes the answer; each
of the three modules states its own policy as a module constant, and
fetching and recovery run their reads through :meth:`RetryPolicy.retry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Generator, Iterator

from repro.errors import DriveError, MechanicsError
from repro.sim.engine import Delay


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``attempts`` tries, growing delays."""

    attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """Backoff before each retry: ``attempts - 1`` values."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def retry(
        self,
        attempt: Callable[[], Generator],
        on_failure: Callable[[Exception, int], None],
        mech,
        priority: int,
    ) -> Generator:
        """Run ``attempt()`` (a fresh process per try) under this policy;
        returns its result.

        Drive and mechanics errors (injected PLC faults among them) are
        retried: ``on_failure(error, attempt_index)`` journals the failed
        try, the mechanical subsystem ``mech`` resets at ``priority``,
        then the backoff; the last failure re-raises.  Media errors
        (:class:`~repro.errors.SectorError`) propagate at once.
        """
        backoffs = chain(self.delays(), (None,))
        for index, backoff in enumerate(backoffs):
            try:
                return (yield from attempt())
            except (DriveError, MechanicsError) as error:
                on_failure(error, index)
                yield from mech.reset_after_fault(priority)
                if backoff is None:
                    raise
                yield Delay(backoff)
