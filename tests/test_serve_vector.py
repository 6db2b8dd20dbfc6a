"""Vectorized load generation: scalar↔batch stream equivalence.

:func:`~repro.serve.loadgen.epoch_draws` is only correct because a numpy
``Generator`` produces the *same underlying stream* for one size-n
array draw as for n sequential scalar draws.  These properties pin that
foundation directly on :class:`~repro.sim.rng.DeterministicRNG`, then
pin the consumers: with :func:`scalar_draws` (one scalar draw per stream
per arrival) patched over ``loadgen.epoch_draws``, ``run_serve``'s
aggregate pool and ``run_serve_xl`` must produce byte-identical reports.
The last tests pin :func:`~repro.serve.loadgen.arrive`, the one
open-loop arrival loop every load driver runs.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.serve import loadgen
from repro.serve.loadgen import FleetSpec, arrive, run_serve
from repro.serve.report import report_to_json
from repro.serve.tenancy import TenantSpec
from repro.serve.xl import run_serve_xl
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRNG


def scalar_draws(mean_gap, gap_rng, *rngs):
    """Reference for ``loadgen.epoch_draws``: draw per arrival, no epochs."""
    while True:
        yield (gap_rng.exponential(mean_gap), *(rng.uniform() for rng in rngs))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    mean=st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False),
)
@settings(max_examples=120, deadline=None)
def test_exponential_batch_equals_sequential_draws(seed, n, mean):
    batch = DeterministicRNG(seed).exponential_array(mean, n)
    scalar_rng = DeterministicRNG(seed)
    scalars = [scalar_rng.exponential(mean) for _ in range(n)]
    assert batch.tolist() == scalars  # bit-exact, not approx


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=300),
    split=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_uniform_batch_splits_anywhere(seed, n, split):
    """One size-n draw == a size-k draw then a size-(n-k) draw."""
    whole = DeterministicRNG(seed).uniform_array(n)
    k = min(n - 1, max(1, int(split * n)))
    split_rng = DeterministicRNG(seed)
    parts = np.concatenate(
        [split_rng.uniform_array(k), split_rng.uniform_array(n - k)]
    )
    assert whole.tolist() == parts.tolist()


def test_epoch_draws_equal_scalar_draws_across_epochs():
    def streams():
        root = DeterministicRNG(5)
        return 0.25, root.child("gaps"), root.child("a"), root.child("b")

    count = 2 * loadgen.EPOCH + 3
    assert list(islice(loadgen.epoch_draws(*streams()), count)) == list(
        islice(scalar_draws(*streams()), count)
    )


def _aggregate_fleet() -> list[FleetSpec]:
    # One open-loop pooled fleet: the ClientPool path reads epoch_draws.
    return [
        FleetSpec(
            tenant=TenantSpec("pooled", weight=1.0, max_queue=64),
            clients=100,
            mode="open",
            arrival_rate=30.0,
            read_fraction=0.6,
            profile="mixed",
            max_file_bytes=1 * units.MB,
            pooling="aggregate",
        ),
    ]


def test_vectorized_report_byte_identical_to_scalar(monkeypatch):
    def run():
        return run_serve(
            11, fleets=_aggregate_fleet(), duration_s=8.0, prepopulate=6,
            include_events=True,
        )

    vector = run()
    monkeypatch.setattr(loadgen, "epoch_draws", scalar_draws)
    scalar = run()
    assert report_to_json(vector) == report_to_json(scalar)
    assert vector["totals"]["ops"] > 0


@pytest.mark.parametrize("shards", [1, 4])
def test_xl_report_byte_identical_to_scalar(monkeypatch, shards):
    def run():
        return run_serve_xl(
            23, racks=4, shards=shards, duration_s=7.5, objects_per_rack=12,
            fault_rate=0.6,
        )

    vector = run()
    monkeypatch.setattr(loadgen, "epoch_draws", scalar_draws)
    scalar = run()
    assert report_to_json(vector) == report_to_json(scalar)
    assert vector["totals"]["failed"] > 0  # an outage window was drawn


# ----------------------------------------------------------------------
# arrive: the one open-loop arrival loop
# ----------------------------------------------------------------------
def test_arrive_does_not_issue_an_arrival_at_t_end():
    engine = Engine()
    issued = []
    arrivals = iter([(1.0, "a"), (1.0, "b"), (1.0, "c")])
    engine.run_process(arrive(
        engine, 2.0, arrivals, lambda tag: issued.append((engine.now, tag))
    ))
    assert issued == [(1.0, "a")]  # "b" would land exactly at t_end
    assert engine.now == 1.0
    assert next(arrivals) == (1.0, "c")  # pulled no further than "b"


def test_arrive_pulls_each_draw_one_arrival_after_the_last_issue():
    engine = Engine()
    log = []

    def arrivals():
        for index in range(3):
            log.append(("draw", index, engine.now))
            yield (0.5, index)

    engine.run_process(arrive(
        engine, 10.0, arrivals(),
        lambda index: log.append(("issue", index, engine.now)),
    ))
    assert log == [
        ("draw", 0, 0.0), ("issue", 0, 0.5),
        ("draw", 1, 0.5), ("issue", 1, 1.0),
        ("draw", 2, 1.0), ("issue", 2, 1.5),
    ]


def test_a_disconnect_stops_the_stream_before_the_next_draw():
    # The per-client open loop's shape: check the session, then draw.
    engine = Engine()
    rng, reference = DeterministicRNG(3), DeterministicRNG(3)
    session = {"disconnected": False}

    def gaps():
        while not session["disconnected"]:
            yield (rng.exponential(0.1),)

    def issue():
        session["disconnected"] = True

    engine.run_process(arrive(engine, 100.0, gaps(), issue))
    assert engine.now == reference.exponential(0.1)  # one arrival
    assert rng.uniform() == reference.uniform()  # and no second gap drawn
