"""Unit and property tests for the processor-sharing bandwidth model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Delay, Engine, Join, SharedBandwidth


def make(capacity=100.0):
    engine = Engine()
    return engine, SharedBandwidth(engine, capacity, name="disk")


def test_single_flow_takes_size_over_capacity():
    engine, bw = make(capacity=100.0)

    def proc():
        yield from bw.transfer(500.0)
        return engine.now

    assert engine.run_process(proc()) == pytest.approx(5.0)


def test_zero_byte_transfer_is_instant():
    engine, bw = make()

    def proc():
        yield from bw.transfer(0)
        return engine.now

    assert engine.run_process(proc()) == 0.0


def test_two_equal_flows_halve_throughput():
    engine, bw = make(capacity=100.0)
    ends = []

    def flow():
        yield from bw.transfer(100.0)
        ends.append(engine.now)

    def main():
        procs = []
        for _ in range(2):
            procs.append(engine.spawn(flow()))
        yield AllOf(procs)

    engine.run_process(main())
    # Both flows share 100 B/s, so 100 B each takes 2 s.
    assert ends == [pytest.approx(2.0)] * 2


def test_staggered_flows_fluid_sharing():
    engine, bw = make(capacity=100.0)
    ends = {}

    def flow(label, size):
        yield from bw.transfer(size)
        ends[label] = engine.now

    def late(label, size, start):
        yield Delay(start)
        yield from bw.transfer(size)
        ends[label] = engine.now

    def main():
        a = engine.spawn(flow("a", 300.0))
        b = engine.spawn(late("b", 100.0, start=1.0))
        yield AllOf([a, b])

    engine.run_process(main())
    # Flow a runs alone for 1 s (100 B done, 200 left).  Then both share:
    # 50 B/s each.  b finishes 100 B at t=3.0; a then has 100 B left at
    # full rate, finishing at 4.0.
    assert ends["b"] == pytest.approx(3.0)
    assert ends["a"] == pytest.approx(4.0)


def test_weighted_flows():
    engine, bw = make(capacity=90.0)
    ends = {}

    def flow(label, size, weight):
        yield from bw.transfer(size, weight=weight)
        ends[label] = engine.now

    def main():
        a = engine.spawn(flow("heavy", 120.0, 2.0))
        b = engine.spawn(flow("light", 60.0, 1.0))
        yield AllOf([a, b])

    engine.run_process(main())
    # heavy gets 60 B/s, light 30 B/s -> both end at t=2.0
    assert ends["heavy"] == pytest.approx(2.0)
    assert ends["light"] == pytest.approx(2.0)


def test_bytes_moved_accounting():
    engine, bw = make(capacity=10.0)

    def proc():
        yield from bw.transfer(25.0)

    engine.run_process(proc())
    assert bw.bytes_moved == pytest.approx(25.0)


def test_negative_size_rejected():
    engine, bw = make()

    def proc():
        yield from bw.transfer(-5)

    with pytest.raises(ValueError):
        engine.run_process(proc())


def test_invalid_weight_rejected():
    engine, bw = make()

    def proc():
        yield from bw.transfer(10, weight=0)

    with pytest.raises(ValueError):
        engine.run_process(proc())


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
    ),
    capacity=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_total_time_conserves_work(sizes, capacity):
    """With simultaneous flows, the last completion time equals total
    work / capacity: processor sharing conserves total service."""
    engine = Engine()
    bw = SharedBandwidth(engine, capacity)

    def flow(size):
        yield from bw.transfer(size)

    def main():
        procs = []
        for s in sizes:
            procs.append(engine.spawn(flow(s)))
        yield AllOf(procs)
        return engine.now

    end = engine.run_process(main())
    # The completion threshold may finish a flow up to capacity*1e-9
    # bytes (i.e. 1 ns) early, hence the absolute floor.
    assert end == pytest.approx(sum(sizes) / capacity, rel=1e-6, abs=1e-7)


@settings(max_examples=50, deadline=None)
@given(
    starts=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=1.0, max_value=1e4),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_completion_never_before_ideal(starts):
    """No flow can finish faster than running alone at full capacity."""
    capacity = 50.0
    engine = Engine()
    bw = SharedBandwidth(engine, capacity)
    results = []

    def flow(start, size):
        yield Delay(start)
        begin = engine.now
        yield from bw.transfer(size)
        results.append((size, engine.now - begin))

    def main():
        procs = []
        for (s, n) in starts:
            procs.append(engine.spawn(flow(s, n)))
        yield AllOf(procs)

    engine.run_process(main())
    for size, elapsed in results:
        assert elapsed >= size / capacity - 1e-6


# ----------------------------------------------------------------------
# Fast-path regressions: pure bytes_moved, explicit settle, bounded heap
# ----------------------------------------------------------------------
def test_bytes_moved_read_is_pure():
    """Reading the property mid-flight must not mutate the model."""
    engine = Engine()
    bw = SharedBandwidth(engine, capacity=100.0)

    def mover():
        yield from bw.transfer(1000.0)

    def observer():
        yield Delay(2.0)
        first = bw.bytes_moved
        second = bw.bytes_moved
        assert first == second == 200.0
        # the read settled nothing: internal progress marker unchanged
        assert bw._last_settled == 0.0
        assert bw._bytes_moved == 0.0
        return first

    def main():
        proc = engine.spawn(mover())
        value = yield Join(engine.spawn(observer()))
        yield Join(proc)
        return value

    assert engine.run_process(main()) == 200.0
    assert bw.bytes_moved == 1000.0


def test_settle_is_the_explicit_mutating_form():
    engine = Engine()
    bw = SharedBandwidth(engine, capacity=100.0)

    def mover():
        yield from bw.transfer(1000.0)

    def main():
        proc = engine.spawn(mover())
        yield Delay(3.0)
        bw.settle()
        assert bw._last_settled == 3.0
        assert bw._bytes_moved == 300.0
        assert bw.bytes_moved == 300.0  # property agrees after settling
        yield Join(proc)

    engine.run_process(main())


def test_heap_stays_bounded_under_flow_churn():
    """10k sequential transfers against a long-lived background flow.

    Every arrival and completion cancels and re-arms the shared
    completion timer; the seed engine left each cancelled entry in the
    heap until its (far-future) fire time.  With compaction the heap
    must stay small for the whole run.
    """
    engine = Engine()
    bw = SharedBandwidth(engine, capacity=1e6)
    max_heap = 0

    def elephant():
        # Big enough to stay active for the entire churn below.
        yield from bw.transfer(1e9)

    def churn():
        nonlocal max_heap
        for _ in range(10_000):
            yield from bw.transfer(10.0)
            max_heap = max(max_heap, len(engine._heap))

    def main():
        engine.spawn(elephant())
        proc = engine.spawn(churn())
        yield Join(proc)

    engine.run_process(main())
    assert max_heap <= 128, f"heap grew to {max_heap} entries"
    assert engine.pending_timers <= 2


# ----------------------------------------------------------------------
# A flow finished by the alarm resumes its waiter inside the alarm
# ----------------------------------------------------------------------
class _QueueingBandwidth(SharedBandwidth):
    """Test-only reference: the deleted alarm path, which put every
    finished flow's waiter on the run queue — one more sequence number
    each, counted in ``alarm_resumes`` — instead of stepping it inside the
    alarm's own occurrence."""

    alarm_resumes = 0

    def _on_alarm(self):
        before = self.engine.events_issued
        self._settle()  # queues each finished waiter
        self.alarm_resumes += self.engine.events_issued - before
        flow = self._min_flow
        if flow is not None:
            self._alarm.arm(self.engine.now + self._next_completion_of(flow))


_TICK = 0.5

_flow_programs = st.tuples(
    st.sampled_from([100.0, 30.0, 7.0]),  # capacity
    st.lists(
        st.tuples(
            st.integers(0, 4),  # arrival tick
            # few sizes, so equal-size flows that finish together are common
            st.sampled_from([10.0, 25.0, 50.0, 100.0 / 3.0]),
            st.sampled_from([1.0, 1.0, 2.0, 3.0, 0.5, 1.5]),  # weight
            st.none() | st.integers(0, 8),  # interrupt the waiter at tick
        ),
        min_size=1,
        max_size=8,
    ),
)


def _flow_world(cls, capacity, flows):
    """``({flow: (how it ended, float.hex of when)}, bytes_moved.hex(),
    events_issued, bandwidth)`` of one flow program run to the end."""
    from repro.sim import Interrupt
    from repro.sim.bandwidth import _Flow

    engine = Engine()
    bw = cls(engine, capacity, name="lane")
    ends = {}
    processes = []

    def flow(index, arrive, size, weight):
        yield Delay(arrive * _TICK)
        try:
            yield from bw.transfer(size, weight)
        except Interrupt:
            ends[index] = ("interrupted", engine.now.hex())
        else:
            ends[index] = ("done", engine.now.hex())

    def poke(index, tick):
        yield Delay(tick * _TICK)
        target = processes[index]
        if isinstance(target._suspension, _Flow):  # parked on its flow
            target.interrupt("poke")

    for index, (arrive, size, weight, _poke_at) in enumerate(flows):
        processes.append(engine.spawn(flow(index, arrive, size, weight)))
    for index, (*_spec, poke_at) in enumerate(flows):
        if poke_at is not None:
            engine.spawn(poke(index, poke_at))
    engine.run()
    assert engine.is_idle and bw.active_flows == 0
    return ends, bw.bytes_moved.hex(), engine.events_issued, bw


@settings(max_examples=300, deadline=None)
@given(_flow_programs)
def test_property_alarm_resume_matches_the_queueing_alarm(program):
    capacity, flows = program
    ends, moved, events, _bw = _flow_world(SharedBandwidth, capacity, flows)
    ref_ends, ref_moved, ref_events, ref_bw = _flow_world(
        _QueueingBandwidth, capacity, flows
    )
    assert ends == ref_ends
    assert moved == ref_moved
    assert ref_events - events == ref_bw.alarm_resumes


def test_alarm_resume_moves_only_a_same_instant_tie():
    """The one order that changes: an occurrence due at the alarm's very
    float instant with a *later* sequence number than the alarm ran before
    the queued waiter, and now runs after it.  One with an earlier
    sequence number ran first, and still does."""

    def order(cls, sleeper_first):
        engine = Engine()
        bw = cls(engine, 100.0)
        seen = []

        def mover():
            yield from bw.transfer(100.0)  # arms the alarm for t = 1.0
            seen.append(("mover", engine.now))

        def sleeper():
            yield Delay(1.0)
            seen.append(("sleeper", engine.now))

        first, second = (sleeper, mover) if sleeper_first else (mover, sleeper)
        engine.spawn(first())
        engine.spawn(second())
        engine.run()
        return seen

    assert order(SharedBandwidth, False) == [("mover", 1.0), ("sleeper", 1.0)]
    assert order(_QueueingBandwidth, False) == [
        ("sleeper", 1.0), ("mover", 1.0),
    ]
    for cls in (SharedBandwidth, _QueueingBandwidth):
        assert order(cls, True) == [("sleeper", 1.0), ("mover", 1.0)]


def test_a_finish_noticed_inside_a_process_step_still_queues_its_waiter():
    """``settle()`` (and a transfer's arrival) finish flows from inside a
    process step; their waiters wait for that step to end."""
    engine, bw = make(capacity=100.0)
    seen = []

    def settler():
        yield Delay(1.0)  # drawn before the transfer arms the alarm
        bw.settle()
        seen.append("settler")

    def mover():
        yield from bw.transfer(100.0)
        seen.append("mover")

    engine.spawn(settler())
    engine.spawn(mover())
    engine.run()
    assert seen == ["settler", "mover"]


def test_a_waiter_resumed_by_the_alarm_starts_its_next_transfer_at_once():
    """The alarm re-arms *before* it resumes the waiters, so a waiter that
    starts its next transfer on the same lane arms the alarm once: one
    sequence number per transfer, where the queueing alarm spent two."""

    def run(cls):
        engine = Engine()
        bw = cls(engine, 100.0)
        ends = []

        def mover():
            for _ in range(3):
                yield from bw.transfer(100.0)
                ends.append(engine.now)

        engine.spawn(mover())
        engine.run()
        return ends, engine.events_issued

    assert run(SharedBandwidth) == ([1.0, 2.0, 3.0], 1 + 3)
    assert run(_QueueingBandwidth) == ([1.0, 2.0, 3.0], 1 + 3 + 3)
