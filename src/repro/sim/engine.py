"""Core discrete-event engine: clock, timers, processes and effects.

The engine owns a single simulated clock (seconds, float) and an event heap.
Simulation *processes* are Python generators that yield effect objects; the
engine interprets each effect, suspends the process and resumes it with the
effect's result once the effect completes.

Supported effects
-----------------
``Delay(seconds)``
    Suspend the process for a fixed amount of simulated time.
``Wait(event)``
    Suspend until ``event.succeed(value)`` is called; resumes with ``value``.
``Join(process)``
    Suspend until the given process finishes; resumes with its return value,
    or re-raises the exception that killed it.
``AllOf(processes)``
    Suspend until every process in the list finishes; resumes with the list
    of their return values.  Failures surface *in list order*: target
    ``i``'s exception is raised once targets ``0..i-1`` are done.
``FirstOf(processes)``
    Suspend until the first finishes; resumes with ``(index, result)``.
``Acquire(resource, priority=0)``
    Queue on a :class:`repro.sim.resources.Resource`; resumes with a
    :class:`repro.sim.resources.Grant` once capacity is available.

Starting a process is not an effect: :meth:`Engine.spawn` queues the child
and returns its :class:`Process` handle, and the caller — a process in
mid-step or plain code — carries on.  The child's first step comes once
the parent's current step has ended (at its next yield or return).

Processes may also be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupt` inside the generator at its current yield point.

A join is a countdown, not a process: ``AllOf``/``FirstOf`` park the waiter
behind a :class:`_Gate` on the targets' own completion lists.  It is the
waiter's ``_suspension`` (detached on ``interrupt`` like a :class:`Park`);
``_finish`` *calls* it, and it resumes the waiter once, when decided.

Scheduling: one loop, one heap-entry protocol
---------------------------------------------
Most events in a run are *same-time resumes*: a process must run at the
current instant (a spawned child's first step, event ``succeed``, joins,
resource grants, a flow finished by a transfer or ``settle()``).  Those
never touch the heap: they go on a FIFO *run queue* (a deque of
``(sequence, process, value, exception)`` tuples).  The heap holds only
genuinely future occurrences, and every heap entry has one shape,
``(time, sequence, owner)``:

* a ``Delay`` pushes ``(time, sequence, process)`` — the suspended
  :class:`Process` is its own owner;
* an :class:`Alarm` pushes ``(time, sequence, alarm)`` each time it is
  armed; ``call_at``/``call_later`` return an alarm armed once, which is
  all a one-shot timer ever was, so there is no separate timer class.

An entry is **live iff** ``owner._suspension is entry`` (tuple identity).
Cancelling — ``Alarm.disarm``, re-arming, :meth:`Process.interrupt` — is
therefore clearing or replacing one slot; the stale tuple stays in the
heap and is discarded when it surfaces.  The loop clears the slot *before*
it runs the owner (consume-before-callback), so cancel-after-fire is a
no-op.  Heap entries carry no payload: valued resumes only ever travel
via the run queue.

Run-queue entries and heap entries draw sequence numbers from one
counter, and :meth:`Engine._drain` — the only scheduler loop; ``run``,
``run_below`` and ``run_process`` are its three stop conditions — merges
the two sources in global ``(time, sequence)`` order, so observable
ordering is exactly what a single heap would produce (the same-time FIFO
contract and the agreement of the three entry points are pinned by
property tests in ``tests/test_sim_engine.py``).

The alarm-resume rule: an :class:`Alarm` callback — which ``_drain`` calls
with no process running — may resume processes by calling
:meth:`Engine._step` directly, inside the alarm's own occurrence, instead
of queueing them.  :class:`~repro.sim.bandwidth.SharedBandwidth` does this
for the waiters of the flows its alarm finished, in list order.  Code that
runs inside a process step (a transfer arrival, ``settle()``) always
queues, so no process is ever stepped from inside another's step.  Against
queueing, the one order that moves is a tie: an occurrence due at the
*same float instant* with a later sequence number than the alarm now runs
after those waiters instead of before them.

Live and dead entries are counted, never scanned: :attr:`Engine.is_idle`
is O(1), and :meth:`Engine._entry_died` — the one place an entry goes
dead — compacts the heap once more than half of it is corpses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.tracing import NULL_TRACER

#: Compact the heap only above this size (tiny heaps aren't worth it).
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised for engine-level failures (deadlock, misuse of effects)."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Effect:
    """Base class for objects a process may yield to the engine."""

    __slots__ = ()


class Delay(Effect):
    """Suspend the yielding process for ``seconds`` of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError(f"negative delay: {seconds!r}")
        self.seconds = float(seconds)


class Wait(Effect):
    """Suspend the yielding process until the event fires."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent"):
        self.event = event


class Join(Effect):
    """Suspend until ``process`` completes; resumes with its return value."""

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process


class AllOf(Effect):
    """Suspend until every process in ``processes`` completes.

    Walked *in order*: the waiter sees target ``i``'s exception once targets
    ``0..i-1`` are done, and no failure behind that one is ever observed.
    """

    __slots__ = ("processes",)

    def __init__(self, processes: Iterable["Process"]):
        self.processes = list(processes)


class FirstOf(Effect):
    """Suspend until the *first* of several processes completes.

    Resumes with ``(index, result)`` of the winner; a losing process keeps
    running (interrupt it explicitly if its work is moot).  If the winner
    failed, its exception is re-raised in the waiter.
    """

    __slots__ = ("processes",)

    def __init__(self, processes: Iterable["Process"]):
        self.processes = list(processes)
        if not self.processes:
            raise ValueError("FirstOf needs at least one process")


class Acquire(Effect):
    """Queue on a resource; resumes with a Grant when capacity is free."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource, priority: int = 0):
        self.resource = resource
        self.priority = priority


class Park(Effect):
    """Base for effects that park the yielding process *on themselves*.

    A :class:`Wait` costs a :class:`SimEvent` allocation plus waiter-list
    bookkeeping per use; models that create one single-waiter event per
    operation (the bandwidth model's per-transfer completion) can instead
    yield a ``Park`` subclass that stores the waiter in a slot of its own.
    Contract: ``_attach(process)`` records the waiter; ``_detach(process)``
    (called by :meth:`Process.interrupt`) forgets it; the owner resumes the
    waiter later via ``engine._schedule_resume`` — or a fused inline
    equivalent, or from an alarm callback by ``engine._step`` (the
    alarm-resume rule) — exactly once, skipping it if detached.
    """

    __slots__ = ()

    def _attach(self, process: "Process") -> None:  # pragma: no cover
        raise NotImplementedError

    def _detach(self, process: "Process") -> None:  # pragma: no cover
        raise NotImplementedError


class _Gate:
    """An ``AllOf`` (``cursor``: the one list position it is registered on)
    or ``FirstOf`` (``cursor`` ``None``: registered on every target) waiter."""

    __slots__ = ("waiter", "targets", "cursor")

    def __init__(self, waiter: Process, targets: list, cursor: Optional[int]):
        self.waiter = waiter
        self.targets = targets
        self.cursor = cursor
        waiter._suspension = self

    def poll(self) -> None:
        """Resume the waiter if its join is decided, else (stay) parked."""
        waiter, targets = self.waiter, self.targets
        resume = waiter.engine._schedule_resume
        if self.cursor is None:
            for index, target in enumerate(targets):
                if target.done:
                    self._detach(waiter)
                    value = (index, target._result)
                    return resume(waiter, value, target._error)
            for target in dict.fromkeys(targets):  # one entry per target
                target._completion_waiters.append(self)
            return
        for cursor in range(self.cursor, len(targets)):
            target = targets[cursor]
            if not target.done:
                self.cursor = cursor
                target._completion_waiters.append(self)
                return
            if target._error is not None:
                return resume(waiter, None, target._error)
        resume(waiter, [target._result for target in targets])

    def _detach(self, process: Process) -> None:
        for target in self.targets:
            if self in target._completion_waiters:
                target._completion_waiters.remove(self)


class Alarm:
    """Heap callback handle: arm it, re-arm it, disarm it.

    ``Engine.call_at``/``call_later`` return an alarm armed once — the
    one-shot timer.  Components that re-arm the *same* logical deadline
    on every event (the bandwidth model re-times its next-completion on
    each flow arrival) keep one alarm and call :meth:`arm` with the new
    absolute time.  Liveness is the heap-entry protocol of the module
    docstring: the pushed ``(time, sequence, alarm)`` entry is live iff
    ``_suspension`` still holds that exact tuple, so re-arming or
    :meth:`disarm` just replaces/clears the slot — no allocation, no flag.
    """

    __slots__ = ("engine", "callback", "_suspension")

    def __init__(self, engine: "Engine", callback: Callable[[], None]):
        self.engine = engine
        self.callback = callback
        self._suspension: Any = None

    @property
    def armed(self) -> bool:
        return self._suspension is not None

    def arm(self, time: float) -> None:
        """(Re-)schedule the callback at absolute simulated ``time``."""
        engine = self.engine
        rearmed = self._suspension is not None
        entry = (time, engine._seq_next(), self)
        heapq.heappush(engine._heap, entry)
        engine._live_timers += 1
        # Replace the slot before counting the old entry dead: compaction
        # keeps exactly the entries their owner's slot still holds.
        self._suspension = entry
        if rearmed:
            engine._entry_died()

    def disarm(self) -> None:
        """Cancel the pending callback; a no-op once fired or disarmed."""
        if self._suspension is None:
            return
        self._suspension = None
        self.engine._entry_died()

    cancel = disarm


class SimEvent:
    """One-shot event that processes can wait on.

    ``succeed(value)`` wakes every waiter with ``value``; ``fail(exc)``
    raises ``exc`` in every waiter.  Waiters that arrive after the event has
    fired resume immediately.
    """

    __slots__ = ("engine", "name", "_fired", "_value", "_exception", "_waiters")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: list["Process"] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        engine = self.engine
        runq = engine._runq
        seq_next = engine._seq_next
        for process in waiters:
            runq.append((seq_next(), process, value, None))
            process._suspension = None

    def fail(self, exception: BaseException) -> None:
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._exception = exception
        waiters, self._waiters = self._waiters, []
        engine = self.engine
        runq = engine._runq
        seq_next = engine._seq_next
        for process in waiters:
            runq.append((seq_next(), process, None, exception))
            process._suspension = None

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            if self._exception is not None:
                self.engine._schedule_resume(process, exception=self._exception)
            else:
                self.engine._schedule_resume(process, value=self._value)
        else:
            self._waiters.append(process)

    def _remove_waiter(self, process: "Process") -> None:
        if process in self._waiters:
            self._waiters.remove(process)


class Process:
    """A running simulation process wrapping a generator.

    The engine resumes the generator each time its pending effect completes.
    ``done``, ``result`` and ``error`` expose the terminal state; other
    processes can wait for completion via the :class:`Join` effect.
    """

    __slots__ = (
        "engine",
        "name",
        "_generator",
        "done",
        "_result",
        "_error",
        "_error_observed",
        "_completion_waiters",
        "_suspension",
        "span_parent",
        "_span_stack",
    )

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._error_observed = False
        self._completion_waiters: list[Process | _Gate] = []
        # What this process is suspended on: the (time, seq, process)
        # heap entry (Delay), SimEvent (Wait), Process (Join), an object
        # with ``_detach(process)`` (resource queues, Park effects, the
        # _Gate of an AllOf/FirstOf), or None when runnable/scheduled.
        # interrupt() dispatches on the type; waiting_on() renders it.
        self._suspension: Any = None
        # Tracing context: the span that was active when this process was
        # spawned (background work attaches under it), and this process's
        # own stack of open spans (created lazily by the tracer).
        self.span_parent = None
        self._span_stack: Optional[list] = None

    @property
    def result(self) -> Any:
        if not self.done:
            raise SimulationError(f"process {self.name!r} still running")
        if self._error is not None:
            self._error_observed = True
            raise self._error
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        self._error_observed = True
        return self._error

    def waiting_on(self) -> Optional[str]:
        """Human-readable description of the pending effect (or ``None``)."""
        suspension = self._suspension
        if suspension is None or isinstance(suspension, str):
            return suspension
        kind = type(suspension)
        if kind is tuple:
            return f"delay(until t={suspension[0]:.3f}s)"
        if kind is SimEvent:
            return f"event({suspension.name})"
        if kind is Process:
            return f"join({suspension.name})"
        if kind is _Gate:
            targets, at = suspension.targets, suspension.cursor
            if at is None:
                return f"firstof({', '.join(t.name for t in targets)})"
            return f"allof({at}/{len(targets)} done, next {targets[at].name})"
        return (
            f"{kind.__name__.lower()}({getattr(suspension, 'name', '')})"
        )

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process at its current yield point.

        Raises :class:`Interrupt` inside the generator.  Interrupting a
        finished process is a no-op.
        """
        if self.done:
            return
        suspension = self._suspension
        if suspension is None:
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: not suspended"
            )
        # Clear the slot *before* any heap compaction: a Delay heap entry
        # is live iff this slot still holds it, so clearing is the cancel.
        self._suspension = None
        kind = type(suspension)
        if kind is tuple:
            self.engine._entry_died()
        elif kind is SimEvent:
            suspension._remove_waiter(self)
        elif kind is Process:
            if self in suspension._completion_waiters:
                suspension._completion_waiters.remove(self)
        else:
            suspension._detach(self)
        self.engine._schedule_resume(self, exception=Interrupt(cause))


class _NullFaults:
    """No-op fault hook: instrumented sites see a fault-free system.

    Defined here (not in :mod:`repro.faults`) because the real
    :class:`~repro.faults.injector.FaultInjector` imports this module;
    mirroring the ``NULL_TRACER`` pattern keeps the dependency one-way.
    Sites ask ``live``, ``subscribe`` and ``unsubscribe`` only of an
    ``enabled`` injector.
    """

    enabled = False

    def check(self, site: str, target: str = ""):
        return None


NULL_FAULTS = _NullFaults()


class _NullRecorder:
    """No-op flight recorder: instrumented sites journal into the void.

    Defined here (not in :mod:`repro.obs`) for the same reason as
    :class:`_NullFaults` — the real
    :class:`~repro.obs.recorder.FlightRecorder` imports this module, so
    keeping the null object on the engine side leaves the dependency
    one-way and the ``engine.recorder.record(...)`` call sites free
    when monitoring is off.
    """

    enabled = False

    def record(self, kind: str, **fields) -> None:
        return None


NULL_RECORDER = _NullRecorder()


class Engine:
    """The discrete-event simulator: clock, run queue, heap and scheduler."""

    #: the :class:`~repro.sim.owners.OwnerCounter` counting, if any
    owner_counter = None

    def __init__(self):
        self._now = 0.0
        #: heap entries are (time, sequence, owner): the suspended Process
        #: for a Delay, the Alarm for a callback; live iff
        #: ``owner._suspension is entry``
        self._heap: list[tuple[float, int, Any]] = []
        #: FIFO of same-time resumes: (sequence, process, value, exception)
        self._runq: deque[tuple[int, "Process", Any,
                                Optional[BaseException]]] = deque()
        self._sequence = itertools.count()
        self._seq_next = self._sequence.__next__
        self._active: int = 0  # number of live (unfinished) processes
        self._live_timers: int = 0  # live entries in the heap
        self._dead_timers: int = 0  # dead (cancelled) entries still in it
        self.compactions = 0  # heap rebuilds, one count per O(n) rebuild
        #: the process whose generator is currently being stepped (tracing
        #: context; never nested: see the alarm-resume rule)
        self.current_process: Optional[Process] = None
        #: tracer hook; replace with :class:`repro.sim.tracing.Tracer`
        self.trace = NULL_TRACER
        #: fault hook; replace with :class:`repro.faults.FaultInjector`
        self.faults = NULL_FAULTS
        #: flight-recorder hook; replace with
        #: :class:`repro.obs.recorder.FlightRecorder`
        self.recorder = NULL_RECORDER
        if Engine.owner_counter is not None:
            Engine.owner_counter.attach(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def is_idle(self) -> bool:
        """No live processes, queued resumes or pending timers: drained.

        The chaos-campaign "no deadlock" invariant checks this after a
        full ``run()``; a stuck process (live but unscheduled) keeps
        ``_active`` positive with nothing scheduled.  O(1): live timers
        are counted as they are scheduled/cancelled/fired, never by
        scanning the heap.
        """
        return (
            self._active == 0
            and self._live_timers == 0
            and not self._runq
        )

    @property
    def pending_timers(self) -> int:
        """Number of scheduled, not-yet-cancelled timers (O(1))."""
        return self._live_timers

    @property
    def events_issued(self) -> int:
        """Sequence numbers drawn so far — a cheap proxy for event volume.

        Every scheduled occurrence (run-queue resume, Delay, alarm arm)
        draws exactly one number, so this tracks engine work without
        a per-event counter increment on the hot path.
        """
        # itertools.count pickles as (count, (next_value,)): a
        # non-consuming peek at the counter.
        return self._sequence.__reduce__()[1][0]

    def next_event_time(self) -> Optional[float]:
        """Earliest pending occurrence time, or ``None`` when drained.

        Queued same-time resumes report the current clock.  Dead heap
        entries encountered while peeking are popped (with the usual
        accounting), so repeated peeks stay amortized O(log n).  Used by
        the sharded engine's conservative window merge.
        """
        if self._runq:
            return self._now
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[2]._suspension is not entry:
                heappop(heap)
                self._dead_timers -= 1
                continue
            return entry[0]
        return None

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None]) -> Alarm:
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {self._now}"
            )
        if time < self._now:
            time = self._now
        alarm = Alarm(self, callback)
        alarm.arm(time)
        return alarm

    def call_later(self, delay: float, callback: Callable[[], None]) -> Alarm:
        return self.call_at(self._now + delay, callback)

    def _entry_died(self) -> None:
        """Account for one live heap entry whose owner just let go of it.

        The only place an entry goes dead, hence the only compaction
        trigger: once the heap is mostly corpses, rebuild it without
        them.  Keeps long flow-churn runs bounded in memory.
        """
        self._live_timers -= 1
        self._dead_timers += 1
        heap = self._heap
        if self._dead_timers * 2 > len(heap) and len(heap) > _COMPACT_MIN_HEAP:
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop dead entries and re-heapify (same (time, seq) order).

        Compacts *in place*: :meth:`_drain` caches a ``heap`` alias at
        loop entry, and compaction can trigger mid-run (an alarm disarmed
        from a callback, ``Process.interrupt``), so rebinding
        ``self._heap`` would strand the running loop on a stale list.
        """
        alive = [
            entry for entry in self._heap if entry[2]._suspension is entry
        ]
        heapq.heapify(alive)
        self._heap[:] = alive
        self._dead_timers = 0
        self.compactions += 1

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process; it first runs at the current simulated time."""
        process = Process(self, generator, name)
        if self.trace.enabled:
            parent = self.trace.active_span()
            if parent is not None:
                process.span_parent = parent
        self._active += 1
        self._runq.append((self._seq_next(), process, None, None))
        return process

    def run(self, until: Optional[float] = None) -> None:
        """Run scheduled events, optionally stopping at simulated time ``until``."""
        self._drain(math.inf if until is None else until)
        if until is not None and self._now < until:
            self._now = until

    def run_below(self, limit: float) -> None:
        """Run every pending occurrence strictly below time ``limit``.

        The conservative time-window primitive for
        :class:`repro.sim.shard.ShardedEngine`: same (time, sequence)
        merge discipline as :meth:`run`, but events *at* ``limit`` stay
        pending and the clock is left at the last processed occurrence —
        never advanced to ``limit`` — so a cross-shard delivery at
        ``limit`` can still interleave ahead of same-time local events.
        Queued same-time resumes count as occurrences at the current
        clock.
        """
        if self._now < limit:
            # Strictly below ``limit`` is up to and including the float
            # just under it.
            self._drain(math.nextafter(limit, -math.inf))

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Start ``generator`` and run the simulation until it completes.

        Stops as soon as the process finishes — background processes keep
        their pending events queued for later ``run``/``run_process`` calls.
        Returns the process's return value, re-raises its exception, and
        raises :class:`SimulationError` on deadlock (event exhaustion while
        the process is still suspended).
        """
        target = self.spawn(generator, name)
        self._drain(math.inf, target)
        if not target.done:
            raise SimulationError(
                f"deadlock: process {target.name!r} never completed "
                f"(waiting on {target.waiting_on()})"
            )
        return target.result

    def _drain(self, limit: float, target: Optional[Process] = None) -> None:
        """The scheduler loop: run occurrences in ``(time, sequence)`` order.

        Stops when nothing is queued and no live heap entry is due at or
        before ``limit``, or the instant ``target`` (if given) is done.
        The clock only moves when the run queue is empty — queued resumes
        are occurrences at the current instant — so ``limit`` is only
        ever compared against the entry that would advance it.
        """
        heap = self._heap
        runq = self._runq
        heappop = heapq.heappop
        step = self._step
        while target is None or not target.done:
            if heap:
                entry = heap[0]
                owner = entry[2]
                if owner._suspension is not entry:
                    heappop(heap)
                    self._dead_timers -= 1
                    continue
                if runq:
                    # Merge rule: a heap entry at the current instant runs
                    # before a queued resume iff it was scheduled earlier.
                    due = entry[0] <= self._now and entry[1] < runq[0][0]
                elif entry[0] > limit:
                    return
                else:
                    self._now = entry[0]
                    due = True
                if due:
                    heappop(heap)
                    self._live_timers -= 1
                    owner._suspension = None  # consumed before it runs
                    if owner.__class__ is Process:
                        step(owner, None, None)
                    else:
                        owner.callback()
                    continue
            elif not runq:
                return
            _seq, process, value, exception = runq.popleft()
            step(process, value, exception)

    # ------------------------------------------------------------------
    # Internal: resuming processes and interpreting effects
    # ------------------------------------------------------------------
    def _schedule_resume(
        self,
        process: Process,
        value: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._runq.append((self._seq_next(), process, value, exception))
        process._suspension = None

    def _step(
        self,
        process: Process,
        value: Any,
        exception: Optional[BaseException],
    ) -> None:
        # Invariant: process._suspension is None here — every resume site
        # (run-queue enqueue, heap pop, an alarm's direct resume) clears it
        # before calling _step.
        generator = process._generator
        previous = self.current_process
        self.current_process = process
        try:
            if exception is not None:
                effect = generator.throw(exception)
            else:
                effect = generator.send(value)
        except StopIteration as stop:
            self.current_process = previous
            self._finish(process, result=stop.value)
            return
        except Exception as error:  # noqa: BLE001 - propagate via joiners
            self.current_process = previous
            self._finish(process, error=error)
            return
        # Exact-type dispatch, inline: effects are closed, slotted
        # classes (Park is the one base meant for subclassing), so `is`
        # checks cover every real yield without isinstance walks or an
        # extra call frame.  current_process stays set through dispatch
        # (a handler may read it); the finally restores it even if a
        # handler (resource._enqueue, a Park's _attach) raises, so span
        # parenting can't inherit a stale process.
        try:
            cls = effect.__class__
            if cls is Delay:
                entry = (self._now + effect.seconds, self._seq_next(), process)
                heapq.heappush(self._heap, entry)
                self._live_timers += 1
                process._suspension = entry
            elif cls is Wait:
                event = effect.event
                event._add_waiter(process)
                if not event._fired:
                    process._suspension = event
            elif cls is Join:
                self._join(process, effect.process)
            elif cls is AllOf:
                _Gate(process, effect.processes, 0).poll()
            elif cls is FirstOf:
                _Gate(process, effect.processes, None).poll()
            elif cls is Acquire:
                effect.resource._enqueue(process, effect.priority)
            elif isinstance(effect, Park):
                effect._attach(process)
                process._suspension = effect
            else:
                self._finish(
                    process,
                    error=SimulationError(
                        f"process {process.name!r} yielded non-effect "
                        f"{effect!r}"
                    ),
                )
        finally:
            self.current_process = previous

    def _join(self, waiter: Process, target: Process) -> None:
        if target.done:
            if target._error is not None:
                target._error_observed = True
                self._schedule_resume(waiter, exception=target._error)
            else:
                self._schedule_resume(waiter, value=target._result)
        else:
            target._completion_waiters.append(waiter)
            waiter._suspension = target

    def _finish(
        self,
        process: Process,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        process.done = True
        process._result = result
        process._error = error
        self._active -= 1
        waiters, process._completion_waiters = process._completion_waiters, []
        if waiters:
            runq = self._runq
            seq_next = self._seq_next
            if error is not None:
                process._error_observed = True
            for waiter in waiters:
                if waiter.__class__ is _Gate:
                    waiter.poll()
                else:
                    runq.append((seq_next(), waiter, result, error))
                    waiter._suspension = None
