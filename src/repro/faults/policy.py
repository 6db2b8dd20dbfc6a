"""Retry/backoff policies for fault-tolerant OLFS paths.

Burning, fetching and recovery all face the same question when a drive,
disc or PLC operation fails: how many times to retry and how long to back
off between attempts.  :class:`RetryPolicy` centralizes the answer; each
of the three modules states its own policy as a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


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

    def schedule(self) -> Iterator[tuple[int, Optional[float]]]:
        """``(attempt_index, backoff_after_failure)`` pairs.

        The backoff is ``None`` on the final attempt — the caller should
        re-raise instead of sleeping.
        """
        backoffs = list(self.delays())
        total = len(backoffs) + 1
        for index in range(total):
            yield index, (backoffs[index] if index < len(backoffs) else None)
