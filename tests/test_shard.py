"""Sharded event loop: unit tests + the layout-invariance oracle.

The load-bearing property is that the *shard count is not observable*:
a campaign partitioned into groups produces byte-identical results
whether the groups share one engine or spread over four.  The unit
tests pin the mechanism (window merge, mailbox ordering, the lookahead
bound); the ``run_serve_xl`` tests pin the property end to end over the
chaos corpus seeds.
"""

import pytest

from repro.serve.xl import report_to_json, run_serve_xl
from repro.sim.engine import Delay, Engine, SimulationError
from repro.sim.shard import ShardedEngine

CORPUS_SEEDS = (7, 11, 23, 42, 1337)


# ---------------------------------------------------------------------------
# Construction and topology
# ---------------------------------------------------------------------------
def test_requires_groups_and_valid_parameters():
    with pytest.raises(ValueError):
        ShardedEngine([])
    with pytest.raises(ValueError):
        ShardedEngine(["a", "a"])
    with pytest.raises(ValueError):
        ShardedEngine(["a"], shards=0)
    with pytest.raises(ValueError):
        ShardedEngine(["a"], lookahead=0.0)


def test_groups_pin_round_robin_and_shards_clamp():
    sharded = ShardedEngine(["a", "b", "c"], shards=2)
    assert sharded.engine_for("a") is sharded.engines[0]
    assert sharded.engine_for("a") is sharded.engine_for("c")
    assert sharded.engine_for("a") is not sharded.engine_for("b")
    # more shards than groups: clamped, never empty engines
    assert ShardedEngine(["a", "b"], shards=8).shards == 2


def test_send_below_lookahead_is_an_error():
    sharded = ShardedEngine(["a", "b"], shards=2, lookahead=0.5)
    with pytest.raises(SimulationError):
        sharded.send("a", "b", 0.25, lambda: None)


# ---------------------------------------------------------------------------
# The window merge
# ---------------------------------------------------------------------------
def _ping_workload(shards: int):
    """Three chatty groups; returns the per-group observation logs."""
    sharded = ShardedEngine(["a", "b", "c"], shards=shards, lookahead=0.1)
    logs = {name: [] for name in "abc"}

    def talker(name, peers):
        engine = sharded.engine_for(name)
        for round_index in range(4):
            yield Delay(0.05 * (1 + "abc".index(name)))
            logs[name].append(("tick", round(engine.now, 9)))
            for peer in peers:
                stamp = (name, round_index)
                sharded.send(
                    name, peer, 0.1,
                    lambda peer=peer, stamp=stamp: logs[peer].append(stamp),
                )

    for name in "abc":
        peers = [p for p in "abc" if p != name]
        sharded.spawn(name, talker(name, peers), name=f"talker-{name}")
    sharded.run()
    assert sharded.is_idle
    return logs, sharded.events_issued


def test_event_streams_identical_across_layouts():
    for shards in (2, 3):
        assert _ping_workload(1) == _ping_workload(shards)


def test_call_round_trip_and_exception_relay():
    sharded = ShardedEngine(["a", "b"], shards=2, lookahead=0.01)
    result = {}

    def remote_ok():
        yield Delay(0.2)
        return "pong"

    def remote_boom():
        yield Delay(0.0)
        raise RuntimeError("boom")

    def caller():
        engine = sharded.engine_for("a")
        value = yield from sharded.call("a", "b", remote_ok)
        result["value"] = value
        # one lookahead out, 0.2 s of work, one lookahead back
        result["elapsed"] = round(engine.now, 9)
        try:
            yield from sharded.call("a", "b", remote_boom)
        except RuntimeError as error:
            result["error"] = str(error)

    sharded.spawn("a", caller(), name="caller")
    sharded.run()
    assert result["value"] == "pong"
    assert result["elapsed"] == pytest.approx(0.22)
    assert result["error"] == "boom"
    assert sharded.is_idle


def test_mailbox_drains_in_group_stamp_order():
    """Same-time deliveries from different groups land in group order."""
    sharded = ShardedEngine(["a", "b", "dst"], shards=3, lookahead=0.1)
    seen = []

    def sender(name):
        yield Delay(0.0)
        sharded.send(name, "dst", 0.1, lambda name=name: seen.append(name))

    # spawn b first: arrival order must NOT decide; group index does
    sharded.spawn("b", sender("b"))
    sharded.spawn("a", sender("a"))
    sharded.run()
    assert seen == ["a", "b"]


def test_window_stall_and_mailbox_gauges():
    """Two windows: ``a`` runs and sends twice while ``b`` stalls, then
    ``b`` takes both deliveries while ``a`` stalls; ``clear`` zeroes the
    gauges as it does an engine's."""
    from repro.sim.owners import OwnerCounter

    with OwnerCounter() as counter:
        sharded = ShardedEngine(["a", "b"], shards=2, lookahead=1.0)
    seen = []

    def sender():
        yield Delay(0.5)
        for tag in ("x", "y"):
            sharded.send("a", "b", 1.0, lambda tag=tag: seen.append(tag))

    sharded.spawn("a", sender())
    sharded.run()
    assert seen == ["x", "y"]
    assert counter.gauges()[-1] == {"windows": 2, "stalls": 2, "mailbox": 2}
    assert (sharded.windows, sharded.stalls, sharded.max_mailbox) == (2, 2, 2)
    counter.clear()
    assert counter.gauges()[-1] == {"windows": 0, "stalls": 0, "mailbox": 0}
    assert len(counter.gauges()) == 3  # two shard engines, one merge


# ---------------------------------------------------------------------------
# Engine support surface the sharded loop rides on
# ---------------------------------------------------------------------------
def test_run_below_stops_strictly_before_limit():
    engine = Engine()
    seen = []

    def ticker():
        for _ in range(5):
            yield Delay(1.0)
            seen.append(engine.now)

    engine.spawn(ticker())
    engine.run_below(3.0)
    assert seen == [1.0, 2.0]
    assert engine.now == 2.0  # never advanced TO the limit
    engine.run()
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_next_event_time_peeks_without_consuming():
    engine = Engine()

    def sleeper():
        yield Delay(3.0)

    assert engine.next_event_time() is None
    engine.spawn(sleeper())
    assert engine.next_event_time() == 0.0  # spawn resume is queued now
    engine.run_below(1.0)
    assert engine.next_event_time() == 3.0
    assert engine.next_event_time() == 3.0  # peek, not pop
    engine.run()
    assert engine.next_event_time() is None


# ---------------------------------------------------------------------------
# The end-to-end oracle: XL campaign over the chaos corpus seeds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_serve_xl_replay_identical_across_shard_counts(seed):
    kwargs = dict(
        racks=4, duration_s=5.0, objects_per_rack=12
    )
    single = run_serve_xl(seed=seed, shards=1, **kwargs)
    sharded = run_serve_xl(seed=seed, shards=4, **kwargs)
    assert report_to_json(single) == report_to_json(sharded)
    assert single["totals"]["ops"] > 0


def test_serve_xl_report_is_run_deterministic():
    first = run_serve_xl(seed=23, racks=3, duration_s=3.0,
                         objects_per_rack=8, shards=2)
    second = run_serve_xl(seed=23, racks=3, duration_s=3.0,
                          objects_per_rack=8, shards=2)
    assert report_to_json(first) == report_to_json(second)


def test_serve_xl_outages_produce_failures():
    # seed/scale chosen so at least one rack draws an outage window
    report = run_serve_xl(seed=42, racks=4, duration_s=10.0,
                          objects_per_rack=16)
    outage_racks = [
        name for name, entry in report["racks"].items() if entry["outage"]
    ]
    assert outage_racks
    assert report["totals"]["failed"] > 0
    assert report["totals"]["remote"] > 0
