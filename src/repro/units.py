"""Shared unit constants and conversions.

Optical-media sizes follow the industry convention of decimal units
(a "25 GB" Blu-ray holds 25 * 10^9 bytes); RAM-ish quantities use binary
units where noted.  All times are seconds, all rates bytes/second.
"""

from __future__ import annotations

# Decimal (SI) units — used for media and network rates.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000
PB = 1_000_000_000_000_000

# Binary units — used for filesystem block math.
KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30

#: Base ("1X") Blu-ray transfer rate, bytes/second (4.49 MB/s, §2.1).
BLU_RAY_1X = 4.49 * MB

SECOND = 1.0
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 365.25 * DAY


def bd_speed(multiple: float) -> float:
    """Blu-ray speed multiple -> bytes/second (e.g. ``bd_speed(12)`` = 12X)."""
    return multiple * BLU_RAY_1X
