"""Landing the clock on an instant computed ahead of time.

The engine wakes a sleeper at ``now + delay``; a caller that knows the
instant it must wake at, not the delay, gets the delay from here, in a
loop on ``engine.now < due``: a burn's ``nap``, and a PLC instruction
sleeping its command's wire latency and its motion as one, until ``(now +
lead) + seconds`` (where ``Delay(lead)``, ``Delay(seconds)`` would end).
"""

from __future__ import annotations

import math


def delay_until(now: float, due: float) -> float:
    """The delay from ``now`` that lands nearest ``due`` without passing it.

    A rounded ``due - now`` can carry ``now + delay`` one ULP past ``due``;
    landing short instead is the caller's loop on ``engine.now < due``.
    """
    delay = due - now
    while now + delay > due:
        delay = math.nextafter(delay, 0.0)
    return delay
