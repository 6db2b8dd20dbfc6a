"""System-level error-rate model (§4.7).

A disc array stripes data across its discs with one (RAID-5 schema: 11+1)
or two (RAID-6: 10+2) parity discs.  Data is lost when more sector errors
coincide in one stripe than the parity can repair.  With a per-sector error
rate ``p`` (archive Blu-ray: ~1e-16) and ``n`` discs:

    P(stripe unrecoverable) ~= C(n, t+1) * p^(t+1)     (t = parity count)
    P(array loses data)     ~= stripes_per_disc * P(stripe unrecoverable)

which lands on the paper's ~1e-23 for 11+1 and ~1e-40-ish for 10+2.
"""

from __future__ import annotations

import math

from repro import units
from repro.media.disc import SECTOR_SIZE

#: Paper's archive Blu-ray sector error rate (§4.7).
DISC_SECTOR_ERROR_RATE = 1e-16


def stripes_per_disc(disc_capacity: int = 100 * units.GB) -> int:
    """One stripe crosses all discs at the same sector index."""
    return disc_capacity // SECTOR_SIZE


def stripe_error_rate(
    sector_error_rate: float, discs: int, parity: int
) -> float:
    """Probability one stripe has more errors than parity can repair."""
    if parity >= discs:
        raise ValueError("parity count must be below the disc count")
    failures = parity + 1
    return math.comb(discs, failures) * sector_error_rate**failures


def array_error_rate(
    sector_error_rate: float = DISC_SECTOR_ERROR_RATE,
    discs: int = 12,
    parity: int = 1,
    disc_capacity: int = 100 * units.GB,
) -> float:
    """Probability a whole disc array suffers unrecoverable loss."""
    return stripes_per_disc(disc_capacity) * stripe_error_rate(
        sector_error_rate, discs, parity
    )


def raid5_array_error_rate(
    sector_error_rate: float = DISC_SECTOR_ERROR_RATE,
    disc_capacity: int = 100 * units.GB,
) -> float:
    """The paper's 11 data + 1 parity schema: ~1e-23."""
    return array_error_rate(sector_error_rate, 12, 1, disc_capacity)


def raid6_array_error_rate(
    sector_error_rate: float = DISC_SECTOR_ERROR_RATE,
    disc_capacity: int = 100 * units.GB,
) -> float:
    """The paper's 10 data + 2 parity schema: ~1e-40."""
    return array_error_rate(sector_error_rate, 12, 2, disc_capacity)
