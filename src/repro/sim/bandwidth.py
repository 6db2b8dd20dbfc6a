"""Processor-sharing bandwidth model for I/O-stream interference.

A :class:`SharedBandwidth` models a device or link of fixed capacity
(bytes/second) shared *fluidly* by all active transfers: at any instant each
flow receives ``capacity * weight / total_weight``.  This is the classic
fluid-flow approximation used in storage simulators and is exactly what the
paper's Section 4.7 argument is about — four concurrent intensive streams on
one RAID volume slow each other down, which is why ROS provisions multiple
independent RAID volumes.

Usage (inside a process generator)::

    yield from volume_bw.transfer(nbytes)          # weight 1
    yield from volume_bw.transfer(nbytes, weight=2)

Incremental accounting
----------------------
The seed implementation re-summed every flow's weight and rescanned every
flow on each arrival *and* each completion timer — O(active flows) per flow
event, O(n²) for the §4.7 multi-stream bursts.  This version keeps the
bookkeeping incremental while producing bit-identical event times:

* the total weight is maintained on flow add/finish (appends reproduce the
  seed's left-to-right summation exactly; removals subtract — exact for the
  integral weights every call site uses — and fall back to a re-sum in list
  order if any non-integral weight is active);
* the flow that completes next (the argmin of ``remaining / rate``) is
  tracked across arrivals, so ``_reschedule`` is O(1) instead of a scan —
  under processor sharing all flows drain at the same per-weight rate, so
  the argmin only changes on arrivals and completions;
* ``_settle`` is O(1) when no simulated time has passed (same-instant
  arrival bursts) and touches every flow only when real progress must be
  credited — using the seed's exact per-flow arithmetic, in list order, so
  ``remaining``/``bytes_moved`` stay bit-identical.

``bytes_moved`` is now a *pure* read: it reports settled progress plus the
in-flight remainder without mutating state (the seed property silently
settled, which could fire completion events from a read).  Call
:meth:`settle` for the old explicit-settlement behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.engine import Alarm, Park, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, Process

_EPSILON_BYTES = 1e-6


class _Flow(Park):
    """One active transfer; doubles as the waiter's parking effect.

    Yielding the flow itself (instead of ``Wait`` on a freshly allocated
    per-transfer ``SimEvent``) saves two allocations and the waiter-list
    bookkeeping per transfer; ``_detach`` supports interrupting the
    transferring process — the flow keeps draining, its completion then
    wakes nobody (matching the old fire-an-event-with-no-waiters
    behaviour).
    """

    __slots__ = ("remaining", "weight", "waiter")

    def __init__(self, remaining: float, weight: float):
        self.remaining = remaining
        self.weight = weight
        self.waiter: Optional["Process"] = None

    def _attach(self, process: "Process") -> None:
        self.waiter = process

    def _detach(self, process: "Process") -> None:
        if self.waiter is process:
            self.waiter = None


class SharedBandwidth:
    """A capacity (bytes/s) shared by concurrent flows, processor-sharing."""

    def __init__(self, engine: "Engine", capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = float(capacity)
        self.name = name
        self._flows: list[_Flow] = []
        self._last_settled = engine.now
        self._alarm = Alarm(engine, self._on_alarm)
        self._bytes_moved = 0.0
        # Incremental bookkeeping (see module docstring).
        self._weight_total = 0.0
        self._nonintegral_weights = 0
        self._min_flow: Optional[_Flow] = None
        self._tiny_pending = False  # a flow was admitted at/below threshold
        # Bytes below which a flow counts as finished.  Scaled with
        # capacity so that the completion delta never underflows float
        # time resolution (remaining/rate must stay representable when
        # added to the clock) — a sub-nanosecond tail is simply done.
        self._threshold = max(_EPSILON_BYTES, self.capacity * 1e-9)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def bytes_moved(self) -> float:
        """Total bytes transferred through this device so far.

        Pure read: settled progress plus each active flow's in-flight
        share since the last settlement, computed without mutating the
        model (no events fire, no state changes).
        """
        total = self._bytes_moved
        flows = self._flows
        if flows:
            elapsed = self.engine.now - self._last_settled
            if elapsed > 0:
                capacity = self.capacity
                total_weight = self._weight_total
                for flow in flows:
                    rate = capacity * flow.weight / total_weight
                    moved = rate * elapsed
                    if moved > flow.remaining:
                        moved = flow.remaining
                    total += moved
        return total

    def settle(self) -> None:
        """Credit all in-flight progress up to ``engine.now`` (mutating).

        Completion events for flows that finished exactly now fire from
        here — this is the explicit form of what reading ``bytes_moved``
        used to do implicitly.
        """
        self._settle()

    def transfer(self, nbytes: float, weight: float = 1.0) -> Generator:
        """Generator effect: completes when ``nbytes`` have moved.

        Use as ``yield from bandwidth.transfer(n)`` inside a process.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if nbytes == 0:
            return
        engine = self.engine
        self._settle()
        flow = _Flow(float(nbytes), float(weight))
        self._flows.append(flow)
        # Inlined _add_weight / _note_arrival / reschedule: this is the
        # hottest loop in flow-churn workloads, and each helper call paid
        # a frame plus repeated attribute loads.  The arithmetic is kept
        # expression-for-expression identical (chaos corpus byte-identity
        # is the oracle).
        w = flow.weight
        self._weight_total += w
        if w != int(w):
            self._nonintegral_weights += 1
        if flow.remaining <= self._threshold:
            self._tiny_pending = True
        capacity = self.capacity
        total = self._weight_total
        current = self._min_flow
        if current is None:
            current = flow
        elif (
            flow.remaining / (capacity * flow.weight / total)
            < current.remaining / (capacity * current.weight / total)
        ):
            current = flow
        self._min_flow = current
        self._alarm.arm(
            engine._now
            + current.remaining / (capacity * current.weight / total)
        )
        yield flow

    # ------------------------------------------------------------------
    # Incremental weight total
    # ------------------------------------------------------------------
    def _remove_weights(self, finished: list[_Flow]) -> None:
        if self._nonintegral_weights:
            # Non-integral weights: incremental subtraction can drift from
            # a fresh sum in float arithmetic, so re-sum in list order
            # (exactly the seed's computation over the surviving flows).
            total = 0.0
            nonintegral = 0
            for flow in self._flows:
                total += flow.weight
                if flow.weight != int(flow.weight):
                    nonintegral += 1
            self._weight_total = total
            self._nonintegral_weights = nonintegral
        else:
            # All weights are integers: float add/subtract is exact.
            for flow in finished:
                self._weight_total -= flow.weight

    # ------------------------------------------------------------------
    # Fluid-flow bookkeeping
    # ------------------------------------------------------------------
    def _next_completion_of(self, flow: _Flow) -> float:
        return flow.remaining / (
            self.capacity * flow.weight / self._weight_total
        )

    def _settle(self, released: Optional[list] = None) -> None:
        """Advance every active flow's progress up to the current time.

        Amortized: O(1) when no simulated time elapsed and no freshly
        admitted flow sits at the completion threshold; O(active flows) —
        the seed's exact arithmetic, in list order — only when progress
        must be credited.

        The waiters of finished flows go on the run queue, or onto
        ``released`` when the caller (the alarm) resumes them itself.
        """
        now = self.engine._now
        elapsed = now - self._last_settled
        self._last_settled = now
        flows = self._flows
        if not flows:
            return
        threshold = self._threshold
        crossed = False
        if elapsed > 0:
            total_weight = self._weight_total
            capacity = self.capacity
            # Running total in a local (same adds, same order: the float
            # result is bit-identical to updating the attribute per flow).
            bytes_moved = self._bytes_moved
            for flow in flows:
                rate = capacity * flow.weight / total_weight
                moved = rate * elapsed
                if moved > flow.remaining:
                    moved = flow.remaining
                flow.remaining -= moved
                bytes_moved += moved
                if flow.remaining <= threshold:
                    crossed = True
            self._bytes_moved = bytes_moved
        if not crossed and not self._tiny_pending:
            return
        self._tiny_pending = False
        finished = [f for f in flows if f.remaining <= threshold]
        if finished:
            self._flows = flows = [f for f in flows if f.remaining > threshold]
            self._remove_weights(finished)
            engine = self.engine
            runq = engine._runq
            seq_next = engine._seq_next
            for flow in finished:
                self._bytes_moved += flow.remaining
                flow.remaining = 0.0
                waiter = flow.waiter
                if waiter is not None:
                    flow.waiter = None
                    waiter._suspension = None
                    if released is None:
                        runq.append((seq_next(), waiter, None, None))
                    else:
                        released.append(waiter)
            # The finished flow was (almost always) the tracked argmin;
            # rescan the survivors while we already hold them.
            best: Optional[_Flow] = None
            best_completion = 0.0
            for flow in flows:
                completion = self._next_completion_of(flow)
                if best is None or completion < best_completion:
                    best = flow
                    best_completion = completion
            self._min_flow = best

    def _on_alarm(self) -> None:
        """Alarm callback: credit progress, re-arm for the new argmin, then
        resume the finished flows' waiters, in list order, inside this
        occurrence (the engine's alarm-resume rule: no run-queue hop).

        ``_min_flow`` is ``None`` exactly when no flows remain (the
        ``_settle`` rescan maintains this), so a drained device simply
        stops re-arming — matching the old one-shot timer's behaviour of
        firing once more after drain and going quiet.
        """
        released: list = []
        self._settle(released)
        engine = self.engine
        flow = self._min_flow
        if flow is not None:
            next_completion = flow.remaining / (
                self.capacity * flow.weight / self._weight_total
            )
            if next_completion < 0:
                raise SimulationError(
                    "negative completion time in bandwidth model"
                )
            self._alarm.arm(engine._now + next_completion)
        for waiter in released:
            engine._step(waiter, None, None)
