"""Landing the clock on an instant computed ahead of time.

The engine wakes a sleeper at ``now + delay``; a caller that knows the
instant it must wake at, not the delay, gets the delay from here.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.sim.engine import Delay, Engine


def delay_until(now: float, due: float) -> float:
    """The delay from ``now`` that lands nearest ``due`` without passing it.

    A rounded ``due - now`` can carry ``now + delay`` one ULP past ``due``;
    landing short instead is the caller's loop on ``engine.now < due``.
    """
    delay = due - now
    while now + delay > due:
        delay = math.nextafter(delay, 0.0)
    return delay


def sleep_after(engine: Engine, lead: float, seconds: float) -> Generator:
    """Sleep ``seconds`` starting ``lead`` from now, in one occurrence.

    Ends on the very double ``Delay(lead)`` then ``Delay(seconds)`` would
    end on; with no lead it is ``Delay(seconds)`` itself.
    """
    if not lead:
        yield Delay(seconds)
        return
    due = (engine.now + lead) + seconds
    while engine.now < due:
        yield Delay(delay_until(engine.now, due))
