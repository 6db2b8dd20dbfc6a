"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    Acquire,
    AllOf,
    Delay,
    Engine,
    FirstOf,
    Interrupt,
    Join,
    Resource,
    Wait,
)
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_delay_advances_clock():
    engine = Engine()

    def proc():
        yield Delay(2.5)
        return engine.now

    assert engine.run_process(proc()) == 2.5


def test_zero_delay_runs_immediately():
    engine = Engine()

    def proc():
        yield Delay(0)
        return engine.now

    assert engine.run_process(proc()) == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_sequential_delays_accumulate():
    engine = Engine()

    def proc():
        yield Delay(1.0)
        yield Delay(2.0)
        yield Delay(3.5)
        return engine.now

    assert engine.run_process(proc()) == pytest.approx(6.5)


def test_process_return_value():
    engine = Engine()

    def proc():
        yield Delay(1)
        return "hello"

    assert engine.run_process(proc()) == "hello"


def test_spawn_runs_concurrently():
    engine = Engine()
    times = {}

    def child(label, delay):
        yield Delay(delay)
        times[label] = engine.now

    def parent():
        a = engine.spawn(child("a", 3.0))
        b = engine.spawn(child("b", 1.0))
        yield Join(a)
        yield Join(b)
        return engine.now

    end = engine.run_process(parent())
    assert times == {"a": 3.0, "b": 1.0}
    assert end == 3.0  # parent waits only until the slowest child


def test_join_returns_child_result():
    engine = Engine()

    def child():
        yield Delay(1)
        return 42

    def parent():
        proc = engine.spawn(child())
        value = yield Join(proc)
        return value

    assert engine.run_process(parent()) == 42


def test_join_propagates_child_exception():
    engine = Engine()

    def child():
        yield Delay(1)
        raise ValueError("boom")

    def parent():
        proc = engine.spawn(child())
        yield Join(proc)

    with pytest.raises(ValueError, match="boom"):
        engine.run_process(parent())


def test_join_already_finished_process():
    engine = Engine()

    def child():
        yield Delay(0.5)
        return "early"

    def parent():
        proc = engine.spawn(child())
        yield Delay(5)
        value = yield Join(proc)
        return value, engine.now

    assert engine.run_process(parent()) == ("early", 5.0)


def test_allof_waits_for_every_child():
    engine = Engine()

    def child(delay, value):
        yield Delay(delay)
        return value

    def parent():
        procs = []
        for i in range(4):
            procs.append(engine.spawn(child(i + 1.0, i)))
        results = yield AllOf(procs)
        return results, engine.now

    results, end = engine.run_process(parent())
    assert results == [0, 1, 2, 3]
    assert end == 4.0


def test_event_wait_and_succeed():
    engine = Engine()
    event = engine.event("ready")

    def waiter():
        value = yield Wait(event)
        return value, engine.now

    def firer():
        yield Delay(2)
        event.succeed("payload")

    engine.spawn(firer())
    assert engine.run_process(waiter()) == ("payload", 2.0)


def test_event_succeed_before_wait():
    engine = Engine()
    event = engine.event()
    event.succeed(7)

    def waiter():
        value = yield Wait(event)
        return value

    assert engine.run_process(waiter()) == 7


def test_event_fail_raises_in_waiter():
    engine = Engine()
    event = engine.event()

    def waiter():
        yield Wait(event)

    def firer():
        yield Delay(1)
        event.fail(RuntimeError("dead"))

    engine.spawn(firer())
    with pytest.raises(RuntimeError, match="dead"):
        engine.run_process(waiter())


def test_event_cannot_fire_twice():
    engine = Engine()
    event = engine.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_deadlock_detection():
    engine = Engine()
    event = engine.event("never")

    def waiter():
        yield Wait(event)

    with pytest.raises(SimulationError, match="deadlock"):
        engine.run_process(waiter())


def test_run_until_advances_clock_without_events():
    engine = Engine()
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_interrupt_during_delay():
    engine = Engine()
    log = []

    def sleeper():
        try:
            yield Delay(100)
        except Interrupt as interrupt:
            log.append((engine.now, interrupt.cause))
            return "interrupted"
        return "finished"

    def interrupter(proc):
        yield Delay(3)
        proc.interrupt("urgent read")

    def main():
        proc = engine.spawn(sleeper())
        engine.spawn(interrupter(proc))
        result = yield Join(proc)
        return result

    assert engine.run_process(main()) == "interrupted"
    assert log == [(3.0, "urgent read")]


def test_interrupt_during_event_wait():
    engine = Engine()
    event = engine.event("never")

    def waiter():
        try:
            yield Wait(event)
        except Interrupt:
            return engine.now
        return None

    def main():
        proc = engine.spawn(waiter())
        yield Delay(2)
        proc.interrupt()
        return (yield Join(proc))

    assert engine.run_process(main()) == 2.0


def test_interrupt_finished_process_is_noop():
    engine = Engine()

    def child():
        yield Delay(1)

    def main():
        proc = engine.spawn(child())
        yield Delay(5)
        proc.interrupt()
        return True

    assert engine.run_process(main())


def test_yielding_garbage_fails_the_process():
    engine = Engine()

    def proc():
        yield "not an effect"

    with pytest.raises(SimulationError, match="non-effect"):
        engine.run_process(proc())


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------
def test_resource_serializes_access():
    engine = Engine()
    resource = Resource(engine, capacity=1, name="arm")
    timeline = []

    def worker(label):
        grant = yield Acquire(resource)
        timeline.append((label, "start", engine.now))
        yield Delay(10)
        grant.release()
        timeline.append((label, "end", engine.now))

    def main():
        procs = []
        for i in range(3):
            procs.append(engine.spawn(worker(i)))
        yield AllOf(procs)

    engine.run_process(main())
    starts = [t for (_, kind, t) in timeline if kind == "start"]
    assert starts == [0.0, 10.0, 20.0]


def test_resource_capacity_allows_parallelism():
    engine = Engine()
    resource = Resource(engine, capacity=2)
    ends = []

    def worker():
        grant = yield Acquire(resource)
        yield Delay(5)
        grant.release()
        ends.append(engine.now)

    def main():
        procs = []
        for _ in range(4):
            procs.append(engine.spawn(worker()))
        yield AllOf(procs)

    engine.run_process(main())
    assert ends == [5.0, 5.0, 10.0, 10.0]


def test_resource_priority_order():
    engine = Engine()
    resource = Resource(engine, capacity=1)
    order = []

    def holder():
        grant = yield Acquire(resource)
        yield Delay(1)
        grant.release()

    def worker(label, priority):
        grant = yield Acquire(resource, priority)
        order.append(label)
        grant.release()

    def main():
        hold = engine.spawn(holder())
        yield Delay(0.1)
        low = engine.spawn(worker("low", 10))
        high = engine.spawn(worker("high", 0))
        yield AllOf([hold, low, high])

    engine.run_process(main())
    assert order == ["high", "low"]


def test_grant_double_release_rejected():
    engine = Engine()
    resource = Resource(engine, capacity=1)

    def proc():
        return (yield Acquire(resource))

    grant = engine.run_process(proc())
    grant.release()
    with pytest.raises(SimulationError):
        grant.release()


def test_interrupt_while_queued_on_resource():
    engine = Engine()
    resource = Resource(engine, capacity=1)

    def holder():
        grant = yield Acquire(resource)
        yield Delay(100)
        grant.release()

    def waiter():
        try:
            yield Acquire(resource)
        except Interrupt:
            return "gave up"
        return "acquired"

    def main():
        engine.spawn(holder())
        yield Delay(0.1)
        proc = engine.spawn(waiter())
        yield Delay(1)
        proc.interrupt()
        result = yield Join(proc)
        assert resource.queue_length == 0
        return result

    assert engine.run_process(main()) == "gave up"


# ----------------------------------------------------------------------
# Fast-path bookkeeping: O(1) is_idle, live-timer counter, compaction
# ----------------------------------------------------------------------
def test_is_idle_reflects_pending_timers():
    engine = Engine()
    assert engine.is_idle
    timer = engine.call_later(5.0, lambda: None)
    assert not engine.is_idle
    assert engine.pending_timers == 1
    timer.cancel()
    assert engine.is_idle
    assert engine.pending_timers == 0


def test_is_idle_false_while_process_suspended():
    engine = Engine()

    def sleeper():
        yield Delay(100.0)

    engine.spawn(sleeper())
    engine.run(until=1.0)
    assert not engine.is_idle
    engine.run()
    assert engine.is_idle


def test_cancelled_timer_heap_is_compacted():
    engine = Engine()
    timers = [engine.call_later(1000.0 + i, lambda: None) for i in range(500)]
    keep = timers[::100]
    for timer in timers:
        if timer not in keep:
            timer.cancel()
    # Dead entries must not linger: the heap compacts once more than half
    # of it is cancelled, so only the survivors (plus slack below the
    # compaction minimum) remain.
    assert engine.pending_timers == len(keep)
    assert len(engine._heap) <= 64
    engine.run()
    assert engine.is_idle


def test_interrupted_delay_leaves_no_live_timer():
    engine = Engine()

    def sleeper():
        try:
            yield Delay(1000.0)
        except Interrupt:
            return "woken"

    def main():
        proc = engine.spawn(sleeper())
        yield Delay(0.1)
        proc.interrupt()
        result = yield Join(proc)
        return result

    assert engine.run_process(main()) == "woken"
    assert engine.pending_timers == 0
    assert engine.is_idle


def test_interrupted_delay_entries_compact():
    engine = Engine()
    done = []

    def sleeper():
        try:
            yield Delay(10_000.0)
        except Interrupt:
            done.append(1)

    def main():
        procs = []
        for _ in range(300):
            procs.append(engine.spawn(sleeper()))
        yield Delay(0.1)
        for proc in procs:
            proc.interrupt()
        yield AllOf(procs)

    engine.run_process(main())
    assert len(done) == 300
    assert len(engine._heap) <= 64
    assert engine.is_idle


def test_mid_run_compaction_keeps_loop_heap_alive():
    # Compaction must rebuild the heap *in place*: run()/run_process()
    # cache a `heap` alias at loop entry, so a rebind mid-run (cancels
    # from inside a running process) would strand the loop on a stale
    # list and silently drop every later Delay.
    engine = Engine()

    def main():
        timers = [
            engine.call_later(10_000.0 + i, lambda: None) for i in range(200)
        ]
        yield Delay(0.1)  # enter the run loop with the heap alias cached
        for timer in timers:
            timer.cancel()  # drives the dead fraction past 50%: compaction
        yield Delay(1.0)  # must land on the heap the loop is reading
        return engine.now

    assert engine.run_process(main()) == pytest.approx(1.1)
    assert engine.is_idle
    # Residual corpses below the compaction minimum are fine; a negative
    # count would mean the loop drained a stale list.
    assert 0 <= engine._dead_timers <= 64


def test_cancel_after_fire_is_noop():
    engine = Engine()
    fired = []
    timer = engine.call_later(1.0, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [1.0]
    timer.cancel()  # already consumed: must not touch the counters
    timer.cancel()
    assert engine.pending_timers == 0
    assert engine.is_idle
    engine.call_later(1.0, lambda: fired.append(engine.now))
    assert engine.pending_timers == 1
    engine.run()
    assert fired == [1.0, 2.0]
    assert engine._dead_timers == 0


class _BrokenResource:
    def _enqueue(self, process, priority):
        raise RuntimeError("enqueue exploded")


def test_effect_dispatch_exception_restores_current_process():
    engine = Engine()

    def proc():
        yield Acquire(_BrokenResource())

    engine.spawn(proc())
    with pytest.raises(RuntimeError, match="enqueue exploded"):
        engine.run()
    # A handler blowing up mid-dispatch must not leave the dead process
    # installed as the tracing context for later spawns.
    assert engine.current_process is None


# ----------------------------------------------------------------------
# Same-time FIFO ordering contract (property test)
# ----------------------------------------------------------------------
# The run-queue fast path must resume processes in exactly the order the
# seed single-heap engine did: at one simulated instant, every scheduling
# action (spawn, Delay(0), event succeed, post-fire wait) appends to one
# global FIFO.  The reference interpreter below models precisely that; the
# engine must produce an identical execution log for arbitrary interleaved
# programs.  A worker's id is its spawn path (``()`` for the root, then
# ``parent + (op index,)``), so it names the same worker in every order.
from collections import deque as _deque

from hypothesis import given, settings
from hypothesis import strategies as st

_N_EVENTS = 3

#: timed programs put delays, timers and cut points on one half-second
#: grid, so ties between them (the case slicing must not reorder) are common
_TICK = 0.5
#: later than anything a timed program schedules on its own (3 nested
#: workers x 8 ops x 4 ticks), and later than every cut point
_HORIZON = 100.0


def _ops_strategy(depth: int, timed: bool = False):
    base = st.one_of(
        st.just(("delay0",)),
        st.tuples(st.just("succeed"), st.integers(0, _N_EVENTS - 1)),
        st.tuples(st.just("wait"), st.integers(0, _N_EVENTS - 1)),
    )
    if timed:
        ticks = st.integers(0, 4)
        base = st.one_of(
            base,
            st.tuples(st.just("delay"), ticks),
            st.tuples(st.just("timer"), ticks),  # call_later, handle kept
            st.tuples(st.just("cancel"), st.integers(0, 7)),
            st.tuples(st.just("arm"), ticks),  # (re-)arm the shared Alarm
            st.just(("disarm",)),
        )
    if depth > 0:
        base = st.one_of(
            base,
            st.tuples(st.just("spawn"), _ops_strategy(depth - 1, timed)),
        )
    return st.lists(base, max_size=8)


def _reference_spawn(engine, generator, name=""):
    """The deleted ``yield Spawn(generator, name)``, as a test-only reference.

    The child runs its first step before the spawner resumes, and the
    spawner draws a second sequence number for it.  ``Delay(0)`` is a heap
    entry at the current instant whose sequence number is drawn right after
    the child's, and ``_drain`` merges heap and run queue in (time,
    sequence) order, so the spawner resumes exactly where the old effect's
    re-queue did: after the child's step, before anything it queued.
    """
    child = engine.spawn(generator, name)
    yield Delay(0)
    return child


class _Program:
    """Interpreter for ``_ops_strategy`` programs on a fresh engine.

    ``trace`` gets ``(time, label)`` for every op a worker executes and
    every callback that fires.  ``child_first`` runs a ``spawn`` op
    through :func:`_reference_spawn` instead of ``engine.spawn``.
    """

    def __init__(self, child_first=False):
        from repro.sim.engine import Alarm

        self.engine = Engine()
        self.events = [self.engine.event(f"e{i}") for i in range(_N_EVENTS)]
        self.child_first = child_first
        self.trace = []
        self.handles = []  # every call_later handle, fired or not
        self.alarm = Alarm(self.engine, lambda: self.log("alarm"))

    def log(self, label):
        self.trace.append((self.engine.now, label))

    def worker(self, wid, ops):
        engine = self.engine
        for idx, op in enumerate(ops):
            self.log((wid, idx))
            kind = op[0]
            if kind == "delay0":
                yield Delay(0)
            elif kind == "delay":
                yield Delay(op[1] * _TICK)
            elif kind == "succeed":
                if not self.events[op[1]].fired:
                    self.events[op[1]].succeed(None)
            elif kind == "wait":
                yield Wait(self.events[op[1]])
            elif kind == "spawn":
                child = self.worker(wid + (idx,), op[1])
                if self.child_first:
                    yield from _reference_spawn(engine, child)
                else:
                    engine.spawn(child)
            elif kind == "timer":
                label = ("timer", len(self.handles))
                self.handles.append(engine.call_later(
                    op[1] * _TICK, lambda label=label: self.log(label)
                ))
            elif kind == "cancel":
                if self.handles:
                    self.handles[op[1] % len(self.handles)].cancel()
            elif kind == "arm":
                self.alarm.arm(engine.now + op[1] * _TICK)
            elif kind == "disarm":
                self.alarm.disarm()


def _reference_order(root_ops, child_first=False):
    """Pure-FIFO interpreter: the seed engine's same-time semantics.

    A spawn queues the child and the parent carries on; ``child_first``
    is the deleted ``Spawn`` effect's rule instead (child queued, then
    the parent behind it).
    """
    log = []
    queue = _deque()
    events = [{"fired": False, "waiters": []} for _ in range(_N_EVENTS)]
    queue.append(((), root_ops, 0))
    while queue:
        wid, ops, idx = queue.popleft()
        while idx < len(ops):
            op = ops[idx]
            log.append((wid, idx))
            idx += 1
            kind = op[0]
            if kind == "delay0":
                queue.append((wid, ops, idx))
                break
            if kind == "succeed":
                event = events[op[1]]
                if not event["fired"]:
                    event["fired"] = True
                    queue.extend(event["waiters"])
                    event["waiters"].clear()
                continue
            if kind == "wait":
                event = events[op[1]]
                if event["fired"]:
                    queue.append((wid, ops, idx))
                else:
                    event["waiters"].append((wid, ops, idx))
                break
            if kind == "spawn":
                queue.append((wid + (idx - 1,), op[1], 0))  # child queued
                if child_first:
                    queue.append((wid, ops, idx))  # parent behind it
                    break
    return log


@settings(max_examples=60, deadline=None)
@given(_ops_strategy(2), st.booleans())
def test_property_same_time_fifo_matches_reference(root_ops, child_first):
    program = _Program(child_first)
    program.engine.spawn(program.worker((), root_ops))
    program.engine.run()
    assert [label for _time, label in program.trace] == _reference_order(
        root_ops, child_first
    )


# ----------------------------------------------------------------------
# run / run_below / run_process are one schedule (property test)
# ----------------------------------------------------------------------
# However a run is cut into calls — one run(), run(until=t) slices,
# run_below(t) windows with the sharded engine's clock bump, or
# run_process(root) followed by run() — the same program must execute the
# same (time, label) trace, draw the same sequence numbers and end drained
# at the same clock.  Slicing never reorders.
def _run_whole(engine, root, _cuts):
    engine.spawn(root)
    engine.run()


def _run_until_slices(engine, root, cuts):
    engine.spawn(root)
    for cut in cuts:
        engine.run(until=cut)
    engine.run()


def _run_below_windows(engine, root, cuts):
    engine.spawn(root)
    for cut in cuts:
        engine.run_below(cut)
        if engine._now < cut:  # ShardedEngine._advance_shard's bump
            engine._now = cut
    engine.run()


def _run_process_then_rest(engine, root, _cuts):
    engine.run_process(root)
    engine.run()


def _execute(root_ops, root_nap, cuts, drive):
    program = _Program()
    engine = program.engine

    def root():
        engine.spawn(program.worker((), root_ops))
        yield Delay(root_nap * _TICK)  # run_process stops here, mid-run
        program.log("root-done")

    def horizon():
        # Release whoever still waits on an event nobody fired, so every
        # program drains; also pins a last occurrence later than any cut.
        program.log("horizon")
        for event in program.events:
            if not event.fired:
                event.succeed(None)

    engine.call_at(_HORIZON, horizon)
    drive(engine, root(), cuts)
    assert engine.pending_timers == 0
    assert engine.is_idle
    return program.trace, engine.now, engine.events_issued


@settings(max_examples=120, deadline=None)
@given(
    _ops_strategy(2, timed=True),
    st.integers(0, 12),
    st.lists(st.integers(0, 120), max_size=5, unique=True).map(sorted),
)
def test_property_entry_points_agree_however_a_run_is_sliced(
    root_ops, root_nap, cut_ticks
):
    cuts = [tick * _TICK for tick in cut_ticks]
    whole = _execute(root_ops, root_nap, cuts, _run_whole)
    assert whole[0][-1][0] >= _HORIZON
    for drive in (
        _run_until_slices, _run_below_windows, _run_process_then_rest
    ):
        assert _execute(root_ops, root_nap, cuts, drive) == whole, drive


# ----------------------------------------------------------------------
# A spawn does not suspend the spawner (differential property test)
# ----------------------------------------------------------------------
# The deleted ``Spawn`` effect ran the child's first step and then
# re-queued the spawner: one more sequence number per spawn, and another
# interleaving inside the instant.  Neither may be visible to a process on
# its own — every worker executes the same ops at the same simulated times
# under ``engine.spawn`` as under ``_reference_spawn`` — and the count must
# fall by exactly one per spawn.
def _spawns(ops):
    return sum(1 + _spawns(op[1]) for op in ops if op[0] == "spawn")


def _spawn_world(root_ops, child_first):
    """Run one program to the end; ``({worker: [(time, op index)]},
    events_issued)``."""
    program = _Program(child_first)
    engine = program.engine

    def horizon():  # release whoever waits on an event nobody fired
        for event in program.events:
            if not event.fired:
                event.succeed(None)

    engine.call_at(_HORIZON, horizon)
    engine.spawn(program.worker((), root_ops))
    engine.run()
    assert engine.is_idle
    per_worker = {}
    for time, label in program.trace:
        if isinstance(label, tuple) and isinstance(label[0], tuple):
            per_worker.setdefault(label[0], []).append((time, label[1]))
    return per_worker, engine.events_issued


@settings(max_examples=200, deadline=None)
@given(_ops_strategy(2, timed=True))
def test_property_spawn_keeps_each_process_trace_and_saves_one_event(
    root_ops,
):
    traces, events = _spawn_world(root_ops, child_first=False)
    ref_traces, ref_events = _spawn_world(root_ops, child_first=True)
    assert traces == ref_traces
    assert ref_events - events == _spawns(root_ops)


def test_spawned_child_first_runs_once_the_spawner_yields():
    engine = Engine()
    order = []

    def child(label):
        order.append(label)
        yield Delay(0)

    def parent():
        before = engine.events_issued
        first = engine.spawn(child("child-1"))
        order.append("parent")
        engine.spawn(child("child-2"))
        assert not first.done and engine.events_issued - before == 2
        yield Delay(1.0)
        order.append("parent-again")

    engine.run_process(parent())
    assert order == ["parent", "child-1", "child-2", "parent-again"]


# ---------------------------------------------------------------------------
# Alarm: re-armable heap callback (the bandwidth model's wake-up)
# ---------------------------------------------------------------------------
def test_alarm_fires_once_at_armed_time():
    from repro.sim.engine import Alarm

    engine = Engine()
    fired = []
    alarm = Alarm(engine, lambda: fired.append(engine.now))
    assert not alarm.armed
    alarm.arm(2.5)
    assert alarm.armed
    engine.run()
    assert fired == [2.5]
    assert not alarm.armed
    assert engine.is_idle


def test_alarm_rearm_replaces_previous_time():
    from repro.sim.engine import Alarm

    engine = Engine()
    fired = []
    alarm = Alarm(engine, lambda: fired.append(engine.now))
    alarm.arm(1.0)
    alarm.arm(3.0)  # the 1.0 entry is dead, only 3.0 fires
    engine.run()
    assert fired == [3.0]
    assert engine.is_idle


def test_alarm_disarm_cancels_and_engine_drains():
    from repro.sim.engine import Alarm

    engine = Engine()
    fired = []
    alarm = Alarm(engine, lambda: fired.append(engine.now))
    alarm.arm(1.0)
    alarm.disarm()
    assert not alarm.armed
    engine.run()
    assert fired == []
    assert engine.is_idle
    assert engine.now == 0.0  # dead entry discarded, clock untouched


def test_alarm_rearms_from_its_own_callback():
    from repro.sim.engine import Alarm

    engine = Engine()
    fired = []

    def tick():
        fired.append(engine.now)
        if len(fired) < 3:
            alarm.arm(engine.now + 1.0)

    alarm = Alarm(engine, tick)
    alarm.arm(1.0)
    engine.run()
    assert fired == [1.0, 2.0, 3.0]
    assert engine.is_idle


def test_alarm_interleaves_with_processes_in_seq_order():
    from repro.sim.engine import Alarm

    engine = Engine()
    order = []

    def proc():
        yield Delay(1.0)
        order.append("process")

    # The Delay draws its sequence number when the process *yields*
    # (inside run(), after arm), so the alarm's earlier sequence wins
    # the t=1.0 tie — same-time ordering follows issue order, exactly
    # as for two timers.
    engine.spawn(proc())
    alarm = Alarm(engine, lambda: order.append("alarm"))
    alarm.arm(1.0)
    engine.run()
    assert order == ["alarm", "process"]


def test_events_issued_counts_monotonically():
    engine = Engine()
    before = engine.events_issued

    def proc():
        yield Delay(1.0)

    engine.run_process(proc())
    after = engine.events_issued
    assert after > before
    assert engine.events_issued == after  # property peek does not consume


# ---------------------------------------------------------------------------
# AllOf / FirstOf: completion-list gates vs the processes they replaced
# ---------------------------------------------------------------------------
# Until PR 23 the engine modelled a join as a third party: an ``AllOf``
# spawned a collector that joined the targets one by one, a ``FirstOf`` a
# racer, n forwarders and an event.  Those helpers live on here, verbatim
# but for taking the engine as an argument, as the *reference*: whatever
# fast path the engine uses must hand the waiter the same value (or the
# same target's exception) at the same simulated instant.
def _reference_allof(engine, targets):
    def collector():
        results = []
        for target in targets:
            results.append((yield Join(target)))
        return results

    return (yield Join(engine.spawn(collector(), name="allof")))


def _reference_firstof(engine, targets):
    finish_line = engine.event("firstof")

    def forwarder(index, target):
        try:
            result = yield Join(target)
        except BaseException as error:  # noqa: BLE001
            if not finish_line.fired:
                finish_line.fail(error)
            return
        if not finish_line.fired:
            finish_line.succeed((index, result))

    def racer():
        for index, target in enumerate(targets):
            yield from _reference_spawn(
                engine, forwarder(index, target), name=f"race-{index}"
            )
        winner = yield Wait(finish_line)
        return winner

    return (yield Join(engine.spawn(racer(), name="firstof")))


def _engine_join(effect):
    """The engine's own join, in the calling convention of the references."""
    def join(engine, targets):
        return (yield effect(targets))

    return join


class _Boom(Exception):
    """Raised by target ``args[0]`` — the identity the oracle compares."""


def _join_world(join, ticks, raises, start, poke_at):
    """One scenario on a fresh engine; returns ``(log, events_issued)``.

    Target ``i`` sleeps ``ticks[i]`` ticks, then returns ``("v", i)`` or
    raises ``_Boom(i)``.  The waiter sleeps ``start`` ticks (so targets
    with fewer ticks are already done at the yield, and equal ones finish
    in the very instant of it), joins, logs what it got and when, and then
    sleeps on: a second resumption would surface as a non-``None`` value
    or an early ``"after"`` row.  ``poke_at`` interrupts the waiter if it
    is parked on the join at that tick.  The poke is armed before anything
    is spawned, so it is the first occurrence of its instant in both
    worlds — the reference waiter stays interruptible for the few
    same-instant hops its collector needs, the engine's does not.
    """
    engine = Engine()
    log = []
    parked = []
    waiter_handle = []

    def poke():
        if parked:
            waiter_handle[0].interrupt("poke")

    if poke_at is not None:
        engine.call_at(poke_at * _TICK, poke)

    def target(index):
        yield Delay(ticks[index] * _TICK)
        if raises[index]:
            raise _Boom(index)
        return ("v", index)

    targets = [
        engine.spawn(target(index), name=f"t{index}")
        for index in range(len(ticks))
    ]

    def waiter():
        yield Delay(start * _TICK)
        parked.append(True)
        try:
            got = ("value", (yield from join(engine, targets)))
        except Interrupt as stop:
            got = ("interrupt", stop.cause)
        except _Boom as boom:
            got = ("boom", boom.args[0], boom is targets[boom.args[0]].error)
        parked.clear()
        log.append((engine.now, got))
        extra = yield Delay(_HORIZON)
        log.append((engine.now, "after", extra))

    waiter_handle.append(engine.spawn(waiter(), name="waiter"))
    engine.run()
    assert engine.is_idle
    assert all(not t._completion_waiters for t in targets)
    return log, engine.events_issued


_join_scenarios = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),  # ties are common
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.integers(0, 3),
    st.none() | st.integers(0, 4),
))


@settings(max_examples=500, deadline=None)
@given(_join_scenarios)
def test_property_allof_gate_matches_the_collector_it_replaced(scenario):
    log, events = _join_world(_engine_join(AllOf), *scenario)
    ref_log, ref_events = _join_world(_reference_allof, *scenario)
    assert log == ref_log
    assert len(log) == 2 and log[1] == (log[0][0] + _HORIZON, "after", None)
    if log[0][1][0] == "value":
        # spawn + n joins + the waiter's resume, against the resume alone
        assert ref_events - events == (len(scenario[0]) + 2) - 1
    else:
        assert events < ref_events


@settings(max_examples=500, deadline=None)
@given(_join_scenarios.filter(lambda scenario: scenario[0]))
def test_property_firstof_gate_matches_the_racer_it_replaced(scenario):
    log, events = _join_world(_engine_join(FirstOf), *scenario)
    ref_log, ref_events = _join_world(_reference_firstof, *scenario)
    assert log == ref_log
    assert len(log) == 2 and log[1] == (log[0][0] + _HORIZON, "after", None)
    assert events < ref_events


def _sleeper(seconds, value=None, error=None):
    yield Delay(seconds)
    if error is not None:
        raise error
    return value


def test_allof_of_nothing_resumes_with_an_empty_list_at_once():
    engine = Engine()

    def main():
        yield Delay(2.0)
        before = engine.events_issued
        results = yield AllOf([])
        return results, engine.now, engine.events_issued - before

    assert engine.run_process(main()) == ([], 2.0, 1)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_allof_costs_one_event_where_the_collector_cost_n_plus_two(n):
    def cost(join):
        engine = Engine()
        targets = [engine.spawn(_sleeper(1.0, i)) for i in range(n)]

        def main():
            yield Delay(2.0)  # every target is done: nothing else draws
            before = engine.events_issued
            assert (yield from join(engine, targets)) == list(range(n))
            return engine.events_issued - before

        return engine.run_process(main())

    assert cost(_engine_join(AllOf)) == 1
    assert cost(_reference_allof) == n + 2


@pytest.mark.parametrize("effect", [AllOf, FirstOf])
def test_interrupted_join_leaves_no_residue_and_never_resumes_again(effect):
    engine = Engine()
    targets = [engine.spawn(_sleeper(5.0 + i, i), f"t{i}") for i in range(3)]
    log = []

    def waiter():
        try:
            yield effect(targets)
        except Interrupt as stop:
            log.append(("interrupt", stop.cause, engine.now))
        log.append(("slept", (yield Delay(100.0)), engine.now))

    process = engine.spawn(waiter())
    engine.call_at(1.0, lambda: process.interrupt("enough"))
    engine.run(until=2.0)
    assert all(target._completion_waiters == [] for target in targets)
    engine.run()
    assert all(target.done for target in targets)
    assert log == [("interrupt", "enough", 1.0), ("slept", None, 101.0)]
    assert engine.is_idle


def test_firstof_loser_runs_on_unwatched_and_the_engine_drains_after_it():
    engine = Engine()
    fast = engine.spawn(_sleeper(1.0, "fast"), "fast")
    slow = engine.spawn(_sleeper(9.0, "slow"), "slow")

    def main():
        return (yield FirstOf([slow, fast])), engine.now

    assert engine.run_process(main()) == ((1, "fast"), 1.0)
    assert not slow.done and slow._completion_waiters == []
    assert not engine.is_idle
    engine.run()
    assert slow.result == "slow" and engine.now == 9.0
    assert engine.is_idle


def test_firstof_ties_go_to_the_first_finisher_and_to_the_past():
    """A same-instant tie goes to the target that finishes first in
    sequence order — the lowest index when delays are drawn in list order,
    so the list is reversed here to tell the two rules apart.  A target
    already finished *at the yield* wins over one that ends later in that
    very instant.  (The racer this replaced started only after every heap
    entry of the instant had run and then took the lowest finished index,
    so it answered ``(0, "t0")`` in the second case — the one place the
    gate's value differs, and why the differential suite spawns its waiter
    after its targets.)"""
    engine = Engine()
    seen = []

    def waiter(nap, targets):
        yield Delay(nap)
        seen.append(((yield FirstOf(targets())), engine.now))

    tie = [engine.spawn(_sleeper(2.0, name)) for name in ("a", "b")]
    engine.spawn(waiter(0.0, lambda: [tie[1], tie[0]]))
    engine.spawn(waiter(1.0, lambda: past))  # its Delay precedes t0's
    past = [engine.spawn(_sleeper(1.0, "t0")), engine.spawn(_sleeper(0.5, "t1"))]
    engine.run()
    assert seen == [((1, "t1"), 1.0), ((1, "a"), 2.0)]


def test_firstof_listing_one_target_twice_resumes_once():
    engine = Engine()
    only = engine.spawn(_sleeper(1.0, "only"))
    resumed = []

    def main():
        resumed.append((yield FirstOf([only, only])))
        resumed.append((yield Delay(5.0)))

    engine.run_process(main())
    assert resumed == [(0, "only"), None] and engine.now == 6.0


def test_two_allofs_over_overlapping_targets_both_resume():
    engine = Engine()
    a, b, c = (
        engine.spawn(_sleeper(delay, name), name)
        for delay, name in [(3.0, "a"), (1.0, "b"), (2.0, "c")]
    )
    seen = {}

    def waiter(label, targets):
        seen[label] = ((yield AllOf(targets)), engine.now)

    engine.spawn(waiter("ab", [a, b]))
    engine.spawn(waiter("bc", [b, c]))
    engine.spawn(waiter("ba", [b, a]))
    engine.run()
    assert seen == {
        "ab": (["a", "b"], 3.0), "bc": (["b", "c"], 2.0),
        "ba": (["b", "a"], 3.0),
    }
    assert engine.is_idle


def test_allof_sees_failures_in_list_order_not_in_time_order():
    """The contract ``burn_array``'s join-then-re-raise handler and the
    golden reports hold: target ``i``'s exception reaches the waiter once
    targets ``0..i-1`` are done, and failures behind it stay unobserved."""

    def outcome(specs):
        engine = Engine()
        targets = [
            engine.spawn(_sleeper(delay, index, error))
            for index, (delay, error) in enumerate(specs)
        ]

        def main():
            try:
                yield AllOf(targets)
            except ValueError as error:
                return str(error), engine.now

        return engine.run_process(main())

    # target 1 fails at t = 1, but target 0 only ends at t = 5
    assert outcome([(5.0, None), (1.0, ValueError("one"))]) == ("one", 5.0)
    # target 0 fails at t = 1: seen at once, target 1 not waited for
    assert outcome([(1.0, ValueError("zero")), (5.0, None)]) == ("zero", 1.0)
    # both fail: the earlier *index* wins, the other is never observed
    assert outcome(
        [(5.0, ValueError("zero")), (1.0, ValueError("one"))]
    ) == ("zero", 5.0)


def test_deadlock_on_a_join_names_the_target_that_never_finished():
    engine = Engine()
    never = engine.event("never")

    def stuck():
        yield Wait(never)

    def main(effect):
        done = engine.spawn(_sleeper(1.0), name="finishes")
        hung = engine.spawn(stuck(), name="hangs")
        yield effect([done, hung] if effect is AllOf else [hung, hung])

    with pytest.raises(
        SimulationError, match=r"allof\(1/2 done, next hangs\)"
    ):
        engine.run_process(main(AllOf))
    with pytest.raises(SimulationError, match=r"firstof\(hangs, hangs\)"):
        engine.run_process(main(FirstOf))


# ----------------------------------------------------------------------
# The opt-in owner counter: an engine built while one counts files each
# sequence draw, step and resumed frame under the package of the
# generator its process was spawned with; any other engine is untouched.
# ----------------------------------------------------------------------
def test_owner_counter_files_cost_under_the_spawning_package():
    from collections import Counter

    from repro.mechanics import MechanicalSubsystem
    from repro.plc import Rotate
    from repro.sim.owners import OwnerCounter

    assert "_step" not in vars(Engine())
    with OwnerCounter() as counter:
        with pytest.raises(RuntimeError):
            with OwnerCounter():
                pass
        engine = Engine()
        subsystem = MechanicalSubsystem(engine, roller_count=1)
    assert Engine.owner_counter is None
    assert "_step" not in vars(Engine())

    def via_tests():
        yield from subsystem.plc.execute(Rotate(0, 4))

    # The spawns are drawn by this file's code, each process's sleep
    # under its owner; the second process's first step resumes one
    # frame, its second two (``via_tests`` and ``execute`` below it).
    engine.run_process(subsystem.plc.execute(Rotate(0, 3)))
    engine.run_process(via_tests())
    assert counter.draws == Counter({"tests": 3, "plc": 1})
    assert counter.steps == Counter({"plc": 2, "tests": 2})
    assert counter.frames == Counter({"plc": 2, "tests": 3})
    # filed by each frame's own code, ``execute`` under ``via_tests`` is
    # a plc frame
    assert counter.code_frames == Counter({"plc": 3, "tests": 2})
    assert counter.draws.total() == engine.events_issued
    counter.clear()
    assert not (counter.draws or counter.steps or counter.frames)
    assert not counter.code_frames
    assert counter.gauges() == [{"heap": 0, "runq": 0, "compactions": 0}]


def test_owner_counter_gauges_heap_run_queue_and_compactions():
    from repro.sim.owners import OwnerCounter

    with OwnerCounter() as counter:
        engine = Engine()
        counted = Engine()
    Engine()  # built outside the counter: no gauges

    def sleeper(seconds):
        yield Delay(seconds)

    def main():
        for index in range(70):
            engine.spawn(sleeper(1.0 + index))
        yield Delay(0.5)

    engine.run_process(main())
    # main queued 70 spawns, then each sleeper's sleep joined main's
    assert counter.gauges()[0] == {"heap": 71, "runq": 70, "compactions": 0}
    engine.run()
    alarms = [engine.call_later(1.0 + i, lambda: None) for i in range(100)]
    for alarm in alarms[:60]:
        alarm.disarm()
    engine.run()
    assert counter.gauges()[0]["compactions"] == 1
    assert counter.gauges()[1] == {"heap": 0, "runq": 0, "compactions": 0}
    assert len(counter.gauges()) == 2 and counted is not engine
