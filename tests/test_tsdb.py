"""repro.tsdb tests: rollup boundaries, retention, eviction, properties.

The downsampling edge cases ISSUE 9 calls out explicitly: points exactly
on a window boundary open the *next* bucket, empty windows simply do not
exist as buckets (the store never fabricates zero-count buckets),
downsample-of-downsample stays consistent (1-hour count/max are exactly
the sum/max of the 1-minute buckets they cover), and shard eviction
follows creation order.  A hypothesis property pins the core contract:
any finalized bucket's count/mean/min/max equal those of the raw points
inside ``[start, start + resolution)``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import TimeSeriesStore, canonical_labels


def make_store(**kwargs):
    kwargs.setdefault("rollups", ((60.0, 1024), (3600.0, 1024)))
    return TimeSeriesStore(**kwargs)


# ----------------------------------------------------------------------
# Labels and series identity
# ----------------------------------------------------------------------
def test_canonical_labels_sorts_and_stringifies():
    assert canonical_labels(None) == ()
    assert canonical_labels({}) == ()
    assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))


def test_label_order_does_not_split_series():
    store = make_store()
    store.append("m", {"a": "1", "b": "2"}, 0.0, 1.0)
    store.append("m", {"b": "2", "a": "1"}, 1.0, 2.0)
    assert len(store.select("m")) == 1
    assert store.latest("m", {"a": "1", "b": "2"}) == (1.0, 2.0)


def test_time_going_backwards_is_an_error_per_series():
    store = make_store()
    store.append("m", {"r": "a"}, 5.0, 1.0)
    store.append("m", {"r": "b"}, 1.0, 1.0)  # other series: fine
    with pytest.raises(ValueError):
        store.append("m", {"r": "a"}, 4.999, 1.0)
    store.append("m", {"r": "a"}, 5.0, 2.0)  # equal timestamps allowed


# ----------------------------------------------------------------------
# Rollup boundaries
# ----------------------------------------------------------------------
def test_point_exactly_on_boundary_opens_next_bucket():
    store = make_store()
    store.append("m", None, 59.999, 1.0)
    # exactly t=60 belongs to [60, 120), and must finalize [0, 60)
    store.append("m", None, 60.0, 5.0)
    buckets = store.buckets("m", resolution=60.0)
    assert len(buckets) == 1
    assert buckets[0]["start"] == 0.0
    assert buckets[0]["count"] == 1
    assert buckets[0]["max"] == 1.0
    store.flush()
    buckets = store.buckets("m", resolution=60.0)
    assert [b["start"] for b in buckets] == [0.0, 60.0]
    assert buckets[1]["count"] == 1 and buckets[1]["mean"] == 5.0


def test_empty_windows_produce_no_buckets():
    store = make_store()
    store.append("m", None, 30.0, 1.0)
    store.append("m", None, 7 * 60.0 + 1.0, 2.0)  # skip six minutes
    store.flush()
    starts = [b["start"] for b in store.buckets("m", resolution=60.0)]
    assert starts == [0.0, 420.0]  # no zero-count filler in between


def test_downsample_of_downsample_consistency():
    """1-hour buckets must agree with the 1-minute buckets they cover."""
    store = make_store()
    t = 0.0
    value = 0.0
    while t < 2 * 3600.0:
        value = (value * 31 + 7) % 97  # deterministic, spiky
        store.append("m", None, t, value)
        t += 13.0
    store.flush()
    minutes = store.buckets("m", resolution=60.0)
    hours = store.buckets("m", resolution=3600.0)
    assert len(hours) >= 2
    for hour in hours:
        inside = [
            b for b in minutes
            if hour["start"] <= b["start"] < hour["start"] + 3600.0
        ]
        assert hour["count"] == sum(b["count"] for b in inside)
        assert hour["max"] == max(b["max"] for b in inside)
        assert hour["min"] == min(b["min"] for b in inside)
        weighted = sum(b["mean"] * b["count"] for b in inside)
        assert hour["mean"] == pytest.approx(weighted / hour["count"])


def test_rollup_capacity_drops_oldest_buckets():
    store = make_store(rollups=((1.0, 3),))
    for i in range(10):
        store.append("m", None, float(i), float(i))
    store.flush()
    buckets = store.buckets("m", resolution=1.0)
    assert [b["start"] for b in buckets] == [7.0, 8.0, 9.0]


# ----------------------------------------------------------------------
# Shards: allocation, eviction order, retention
# ----------------------------------------------------------------------
def test_shard_eviction_is_creation_order():
    store = make_store(shard_points=2, max_shards=3)
    # Series a fills two shards (creation seq 0, 1), series b one (2).
    for i in range(4):
        store.append("a", None, float(i), 1.0)
    store.append("b", None, 0.0, 1.0)
    assert store.stats["shards_evicted"] == 0
    # Next allocation (seq 3) evicts seq 0 — series a's OLDEST shard.
    store.append("b", None, 1.0, 1.0)
    store.append("b", None, 2.0, 1.0)
    assert store.stats["shards_evicted"] == 1
    assert store.stats["points_evicted"] == 2
    assert [t for t, _v in store.series("a").raw_points()] == [2.0, 3.0]
    assert len(store.series("b").raw_points()) == 3


def test_raw_retention_drops_aged_shards_but_keeps_newest():
    store = make_store(shard_points=2, raw_retention_s=5.0)
    for i in range(10):
        store.append("m", None, float(i), float(i))
    times = [t for t, _v in store.series("m").raw_points()]
    assert times[-1] == 9.0
    assert all(t >= 4.0 for t in times)
    # the under-retention tail still evicts whole shards only
    assert store.stats["shards_evicted"] > 0
    assert store.snapshot_stats()["live_points"] == len(times)


def test_rollup_retention_drops_aged_buckets():
    store = make_store(rollups=((1.0, 1024),), rollup_retention_s=3.0)
    for i in range(10):
        store.append("m", None, float(i), 1.0)
    store.flush()
    starts = [b["start"] for b in store.buckets("m", resolution=1.0)]
    assert starts[0] >= 6.0
    assert store.stats["buckets_dropped"] > 0


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_rate_first_last_over_window():
    store = make_store()
    for i in range(11):
        store.append("c", None, float(i), float(i * 3))
    assert store.rate("c", window_s=100.0) == pytest.approx(3.0)
    assert store.rate("c", window_s=0.5) is None  # one point in window
    assert store.rate("missing") is None


def test_staleness_and_latest():
    store = make_store()
    assert store.staleness("m", now=10.0) is None
    store.append("m", None, 4.0, 1.0)
    assert store.staleness("m", now=10.0) == pytest.approx(6.0)
    assert store.latest("m") == (4.0, 1.0)


def test_select_orders_by_canonical_labels():
    store = make_store()
    store.append("m", {"rack": "s1.r00"}, 0.0, 1.0)
    store.append("m", {"rack": "s0.r01"}, 0.0, 1.0)
    store.append("m", {"rack": "s0.r00"}, 0.0, 1.0)
    racks = [s.labels_dict()["rack"] for s in store.select("m")]
    assert racks == ["s0.r00", "s0.r01", "s1.r00"]


def test_snapshot_stats_is_json_safe_and_consistent():
    store = make_store(shard_points=4)
    for i in range(9):
        store.append("m", {"k": "v"}, float(i), 1.0)
    stats = store.snapshot_stats()
    assert stats["points"] == 9
    assert stats["live_points"] == 9
    assert stats["live_shards"] == stats["shards_created"]
    assert all(isinstance(v, int) for v in stats.values())


# ----------------------------------------------------------------------
# Property: buckets are a faithful summary of their raw points
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=90.0, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
    values=st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=60,
        max_size=60,
    ),
)
def test_bucket_summary_matches_raw_points(deltas, values):
    store = make_store(rollups=((60.0, 4096),))
    t = 0.0
    points = []
    for delta, value in zip(deltas, values):
        t += delta
        store.append("m", None, t, value)
        points.append((t, value))
    store.flush()
    for bucket in store.buckets("m", resolution=60.0):
        lo, hi = bucket["start"], bucket["start"] + 60.0
        inside = [v for (pt, v) in points if lo <= pt < hi]
        assert bucket["count"] == len(inside)
        assert bucket["min"] == min(inside)
        assert bucket["max"] == max(inside)
        assert bucket["mean"] == pytest.approx(
            math.fsum(inside) / len(inside)
        )
    # every appended point is in exactly one bucket
    total = sum(
        b["count"] for b in store.buckets("m", resolution=60.0)
    )
    assert total == len(points)
