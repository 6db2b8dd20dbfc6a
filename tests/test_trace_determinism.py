"""Trace determinism and the Table-1 cold-read span-tree shape.

Two guarantees from the tracing tentpole:

* identically-seeded runs export byte-identical traces (the simulation is
  a deterministic DES and span ids come from a seeded RNG sub-stream);
* a cold read from the roller yields ONE span tree whose structure is the
  paper's Table-1 decomposition — POSIX call over FTM fetch over the
  mechanical load (PLC instructions driving roller/arm) and drive phases —
  with per-phase durations that sum to the end-to-end latency.
"""

import json

import pytest

from repro.sim.tracing import to_chrome_trace, to_flat_json
from tests.conftest import make_ros


def _cold_read_scenario(seed=0x7ACE):
    """Ingest, burn, evict, then a cold read that walks the full stack."""
    ros = make_ros(tracing=True, trace_seed=seed)
    for index in range(3):
        ros.write(f"/det/file-{index}.bin", bytes([index + 1]) * 9000)
    ros.flush()
    path = "/det/file-0.bin"
    ros.cache.evict(ros.stat(path)["locations"][0])
    ros.engine.trace.clear()
    result = ros.read(path)
    ros.drain_background()
    return ros, result


def test_same_seed_exports_byte_identical_traces():
    ros_a, result_a = _cold_read_scenario()
    ros_b, result_b = _cold_read_scenario()
    assert result_a.total_seconds == result_b.total_seconds
    assert to_flat_json(ros_a.engine.trace) == to_flat_json(ros_b.engine.trace)
    assert to_chrome_trace(ros_a.engine.trace) == to_chrome_trace(
        ros_b.engine.trace
    )


def test_different_trace_seed_changes_ids_not_timing():
    ros_a, result_a = _cold_read_scenario(seed=1)
    ros_b, result_b = _cold_read_scenario(seed=2)
    # The simulation itself is untouched by the tracer seed...
    assert result_a.total_seconds == result_b.total_seconds
    assert [s.name for s in ros_a.engine.trace.spans] == [
        s.name for s in ros_b.engine.trace.spans
    ]
    assert [s.duration for s in ros_a.engine.trace.spans] == [
        s.duration for s in ros_b.engine.trace.spans
    ]
    # ...only the span identities differ.
    assert [s.span_id for s in ros_a.engine.trace.spans] != [
        s.span_id for s in ros_b.engine.trace.spans
    ]


def test_cold_read_is_a_single_table1_span_tree():
    ros, result = _cold_read_scenario()
    tracer = ros.engine.trace
    assert result.source == "roller"

    # One tree: everything, including background cache fill, hangs off the
    # single posix.read root.
    roots = tracer.roots()
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "posix.read"

    names = {span.name for span in tracer.spans}
    # The Table-1 phases all appear in the one tree.
    assert "ftm.fetch" in names
    assert "ftm.read_disc" in names
    assert "mc.ensure_disc_in_drive" in names
    assert "mech.load_array" in names
    assert any(name.startswith("plc.") for name in names)
    assert any(name.startswith("roller.") for name in names)
    assert any(name.startswith("arm.") for name in names)
    assert "drive.spin_up" in names
    assert "drive.mount" in names
    assert "drive.read" in names

    # PLC instructions nest under the mechanical load, which nests under
    # the MC arbitration span.
    by_id = {span.span_id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            yield span

    load = tracer.find(name="mech.load_array")[0]
    assert any(
        load in ancestors(span)
        for span in tracer.spans if span.name.startswith("plc.")
    )
    mc_span = tracer.find(name="mc.ensure_disc_in_drive")[0]
    assert mc_span in ancestors(load)

    # Drive phases are siblings after the mechanical load completes.
    fetch = tracer.find(name="ftm.read_disc")[0]
    fetch_children = {span.name for span in tracer.children_of(fetch)}
    assert {"mc.ensure_disc_in_drive", "drive.spin_up", "drive.mount"} <= (
        fetch_children
    )

    # Table 1's ordering: mechanical load dominates, then drive phases,
    # then the image/bucket-scale reads.
    mech_s = mc_span.duration
    spin_s = tracer.find(name="drive.spin_up")[0].duration
    mount_s = tracer.find(name="drive.mount")[0].duration
    assert mech_s > spin_s > mount_s > 0


def test_cold_read_phases_sum_to_end_to_end_latency():
    ros, result = _cold_read_scenario()
    tracer = ros.engine.trace
    root = tracer.roots()[0]
    assert root.duration == pytest.approx(result.total_seconds)

    def child_sum(span):
        children = [
            child
            for child in tracer.children_of(span)
            if child.name != "ftm.cache_fill"  # finishes after the read
        ]
        return sum(child.duration for child in children)

    # At every level of the critical path the children partition the
    # parent: no unaccounted time between phases.
    for name in ("posix.read", "ftm.fetch", "ftm.read_disc"):
        span = tracer.find(name=name)[0]
        assert child_sum(span) == pytest.approx(span.duration, abs=1e-6), (
            name
        )


def test_warm_read_tree_has_no_mechanical_spans():
    ros, _ = _cold_read_scenario()
    ros.engine.trace.clear()
    result = ros.read("/det/file-0.bin")  # now cached on the buffer
    assert result.source == "buffer"
    names = {span.name for span in ros.engine.trace.spans}
    assert "mc.ensure_disc_in_drive" not in names
    assert not any(name.startswith("plc.") for name in names)


def test_exports_parse_and_match_span_count():
    ros, _ = _cold_read_scenario()
    tracer = ros.engine.trace
    flat = json.loads(to_flat_json(tracer))
    assert len(flat) == len(tracer.spans)
    chrome = json.loads(to_chrome_trace(tracer))
    span_events = [
        event
        for event in chrome["traceEvents"]
        if event["ph"] in ("X", "i")
    ]
    assert len(span_events) == len(tracer.spans)
    # every span closed: nothing exported as unfinished
    assert not any(
        event["args"].get("unfinished") for event in span_events
    )
