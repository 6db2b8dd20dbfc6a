"""Tracer, metrics and exporter unit tests.

The tracing layer underpins every latency-decomposition benchmark
(Table 1, Figure 7), so its semantics are locked down here: span nesting
across concurrently-interleaved processes, histogram ``le`` bucket edges,
and the Chrome trace-event schema the exporter promises.
"""

import json

import pytest

from repro.sim import (
    Delay,
    Engine,
    Join,
    MetricsRegistry,
    NullTracer,
    Tracer,
    to_chrome_trace,
    to_flat_json,
)
from repro.sim.tracing import Counter, Gauge, Histogram, NULL_TRACER


def traced_engine(seed=0x7ACE):
    engine = Engine()
    tracer = Tracer(engine, seed=seed)
    engine.trace = tracer
    return engine, tracer


# ----------------------------------------------------------------------
# Span basics
# ----------------------------------------------------------------------
def test_span_records_interval_and_tags():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("outer", "test", {"k": 1}) as span:
            yield Delay(2.5)
            span.tag("late", True)

    engine.run_process(work())
    (span,) = tracer.spans
    assert span.name == "outer"
    assert span.category == "test"
    assert span.duration == pytest.approx(2.5)
    assert span.tags == {"k": 1, "late": True}
    assert span.finished


def test_nested_spans_link_parent_child():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("parent"):
            yield Delay(1.0)
            with tracer.span("child"):
                yield Delay(0.5)

    engine.run_process(work())
    parent = tracer.find(name="parent")[0]
    child = tracer.find(name="child")[0]
    assert child.parent_id == parent.span_id
    assert tracer.children_of(parent) == [child]
    assert tracer.roots() == [parent]


def test_span_tags_error_class_on_exception():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("boom"):
            yield Delay(0.1)
            raise RuntimeError("bad")

    with pytest.raises(RuntimeError):
        engine.run_process(work())
    (span,) = tracer.spans
    assert span.tags["error"] == "RuntimeError"
    assert span.finished


def test_event_is_instant_under_active_span():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("op"):
            yield Delay(1.0)
            tracer.event("tick", "test", {"n": 7})

    engine.run_process(work())
    op = tracer.find(name="op")[0]
    tick = tracer.find(name="tick")[0]
    assert tick.instant
    assert tick.duration == 0.0
    assert tick.parent_id == op.span_id


# ----------------------------------------------------------------------
# Concurrency: span context follows the process, not the wall clock
# ----------------------------------------------------------------------
def test_concurrent_processes_keep_separate_span_stacks():
    """Two interleaved processes must not adopt each other's open spans."""
    engine, tracer = traced_engine()

    def worker(label, delay):
        with tracer.span(f"work.{label}"):
            yield Delay(delay)
            with tracer.span(f"inner.{label}"):
                yield Delay(delay)

    def driver():
        first = engine.spawn(worker("a", 1.0), name="a")
        second = engine.spawn(worker("b", 0.3), name="b")
        yield Join(first)
        yield Join(second)

    engine.run_process(driver())
    for label in ("a", "b"):
        outer = tracer.find(name=f"work.{label}")[0]
        inner = tracer.find(name=f"inner.{label}")[0]
        # inner.a under work.a, never under the interleaved work.b.
        assert inner.parent_id == outer.span_id


def test_spawned_process_inherits_spawners_active_span():
    """Background work attaches under the operation that started it."""
    engine, tracer = traced_engine()

    def background():
        with tracer.span("background"):
            yield Delay(5.0)

    def op():
        with tracer.span("op"):
            engine.spawn(background(), name="bg")
            yield Delay(0.1)

    engine.run_process(op())
    engine.run()  # let the background process finish after op returns
    op_span = tracer.find(name="op")[0]
    bg_span = tracer.find(name="background")[0]
    assert bg_span.parent_id == op_span.span_id
    # One tree: the op is the only root.
    assert tracer.roots() == [op_span]


def test_span_ids_unique_and_deterministic():
    engine_a, tracer_a = traced_engine(seed=123)
    engine_b, tracer_b = traced_engine(seed=123)

    def work(tracer):
        for index in range(10):
            with tracer.span(f"s{index}"):
                yield Delay(0.1)

    engine_a.run_process(work(tracer_a))
    engine_b.run_process(work(tracer_b))
    ids_a = [span.span_id for span in tracer_a.spans]
    ids_b = [span.span_id for span in tracer_b.spans]
    assert len(set(ids_a)) == len(ids_a)
    assert ids_a == ids_b  # same seed, same ids
    _, tracer_c = traced_engine(seed=124)
    assert tracer_c._new_id() != ids_a[0]


def test_null_tracer_is_inert():
    engine = Engine()
    assert engine.trace is NULL_TRACER
    assert isinstance(engine.trace, NullTracer)
    assert not engine.trace.enabled
    with engine.trace.span("ignored") as span:
        span.tag("x", 1)
    assert engine.trace.active_span() is None
    assert engine.trace.event("ignored") is None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _traced_run():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("outer", "cat", {"k": "v"}):
            yield Delay(1.0)
            tracer.event("marker")
            with tracer.span("inner"):
                yield Delay(0.5)

    engine.run_process(work())
    return tracer


def test_chrome_trace_event_schema():
    document = json.loads(to_chrome_trace(_traced_run()))
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    assert [e["name"] for e in instants] == ["marker"]
    assert metadata and all(e["name"] == "thread_name" for e in metadata)
    for event in complete:
        # Chrome trace viewer requirements: X events carry ts+dur in µs.
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        assert isinstance(event["ts"], (int, float))
        assert event["dur"] >= 0
    (marker,) = instants
    assert marker["s"] == "t"  # thread-scoped instant
    outer = next(e for e in complete if e["name"] == "outer")
    inner = next(e for e in complete if e["name"] == "inner")
    assert outer["dur"] == pytest.approx(1.5e6)
    assert inner["args"]["parent"] == outer["id"]


def test_chrome_trace_marks_unfinished_spans():
    engine, tracer = traced_engine()

    def work():
        with tracer.span("never-closes"):
            yield Delay(1.0)
            raise KeyboardInterrupt  # pragma: no cover - never reached

    process = engine.spawn(work())
    engine.run(until=0.5)  # stop mid-span
    assert process is not None
    events = json.loads(to_chrome_trace(tracer))["traceEvents"]
    open_event = next(e for e in events if e["name"] == "never-closes")
    assert open_event["args"]["unfinished"] is True
    assert open_event["dur"] == 0


def test_flat_json_round_trips_span_fields():
    tracer = _traced_run()
    rows = json.loads(to_flat_json(tracer))
    assert len(rows) == len(tracer.spans)
    by_name = {row["name"]: row for row in rows}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["duration"] == pytest.approx(1.5)
    assert by_name["marker"]["instant"] is True
    assert by_name["outer"]["tags"] == {"k": "v"}


def test_render_tree_indents_children():
    tracer = _traced_run()
    text = tracer.render_tree(tracer.roots()[0])
    lines = text.splitlines()
    assert lines[0].startswith("outer")
    assert any(line.startswith("  ") for line in lines[1:])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set():
    gauge = Gauge("g")
    gauge.set(4)
    assert gauge.value == 4.0


def test_histogram_bucket_edges():
    """``le`` semantics: a value exactly on a bound lands in that bucket."""
    histogram = Histogram("h", (1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.0001, 2.0, 5.0, 5.0001, 100.0):
        histogram.observe(value)
    assert histogram.buckets() == {
        "le_1": 2,  # 0.5 and exactly 1.0
        "le_2": 2,  # 1.0001 and exactly 2.0
        "le_5": 1,  # exactly 5.0
        "inf": 2,  # everything above the last bound
    }
    assert histogram.count == 7
    assert histogram.mean == pytest.approx(sum((0.5, 1.0, 1.0001, 2.0, 5.0, 5.0001, 100.0)) / 7)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", ())
    with pytest.raises(ValueError):
        Histogram("h", (1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", (2.0, 1.0))


def test_registry_get_or_create_and_mismatches():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    registry.histogram("h", (1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h", (1.0, 3.0))


def test_registry_snapshot_is_deterministic():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.gauge("a").set(1)
    registry.histogram("c", (1.0,)).observe(0.5)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["a", "b", "c"]
    assert snapshot["a"] == 1.0
    assert snapshot["b"] == 2.0
    assert snapshot["c"] == {
        "count": 1,
        "mean": 0.5,
        "buckets": {"le_1": 1, "inf": 0},
    }
    assert json.dumps(snapshot, sort_keys=True) == json.dumps(
        registry.snapshot(), sort_keys=True
    )


def test_histogram_quantile_interpolates_within_buckets():
    histogram = Histogram("h", (1.0, 2.0, 5.0))
    # 4 observations spread across the first two buckets.
    for value in (0.5, 0.75, 1.5, 1.75):
        histogram.observe(value)
    # p50 sits at the upper edge of the first bucket (2 of 4 <= 1.0).
    assert histogram.quantile(0.5) == pytest.approx(1.0)
    # p25 interpolates halfway into [0, 1].
    assert histogram.quantile(0.25) == pytest.approx(0.5)
    # p100 is the upper edge of the last occupied finite bucket.
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_histogram_quantile_overflow_bucket_saturates():
    """Mass above the last bound reports the last finite bound — the
    +Inf bucket has no upper edge to interpolate toward."""
    histogram = Histogram("h", (1.0, 2.0))
    histogram.observe(100.0)
    histogram.observe(200.0)
    assert histogram.quantile(0.5) == pytest.approx(2.0)
    assert histogram.quantile(0.99) == pytest.approx(2.0)


def test_histogram_quantile_empty_and_validation():
    histogram = Histogram("h", (1.0, 2.0))
    assert histogram.quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(-0.1)
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_bucket_counts_json_serializable():
    import json

    histogram = Histogram("h", (1.0, 2.0))
    for value in (0.5, 1.5, 9.0):
        histogram.observe(value)
    # np.int64 is not JSON-safe; buckets()/quantile() must cast
    json.dumps(histogram.buckets())
    json.dumps(histogram.quantile(0.5))
