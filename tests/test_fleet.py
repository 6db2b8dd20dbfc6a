"""Fleet-layer tests: store semantics, recovery, frontend routing, and
full campaign determinism over the chaos seed corpus.

The campaign tests run ``run_fleet`` with a deliberately small geometry
(6 racks, k=2+m=2, a few hundred pooled clients) so the whole corpus —
every seed twice, byte-compared — stays inside the unit-test budget;
the CLI default geometry (24 racks, 105 000 clients) is exercised by the
CI fleet-smoke job.
"""

import json

import pytest

from repro.errors import FleetError, ObjectUnrecoverableError
from repro.fleet import (
    FleetBackend,
    FleetStore,
    FleetTopology,
    Layout,
    RecoveryManager,
    render_text,
    report_to_json,
    run_fleet,
)
from repro.sim.engine import Engine

CORPUS_SEEDS = [7, 11, 23, 42, 1337]

#: Small-but-real geometry shared by the campaign tests below.
SMALL = dict(
    sites=3,
    racks_per_site=2,
    k=2,
    m=2,
    clients=240,
    duration_s=4.0,
    objects=6,
    arrival_rate=18.0,
)


def small_fleet(engine=None, **overrides):
    engine = engine or Engine()
    kwargs = dict(
        topology=FleetTopology(sites=3, racks_per_site=2),
        layout=Layout(k=2, m=2),
    )
    kwargs.update(overrides)
    return FleetStore(engine, **kwargs)


def put_now(store, path, data, declared=None):
    return store.engine.run_process(
        store.put(path, data, declared), f"put:{path}"
    )


def get_now(store, path, site=None):
    return store.engine.run_process(
        store.get(path, site=site), f"get:{path}"
    )


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
class TestFleetStore:
    def test_put_get_roundtrip(self):
        store = small_fleet()
        payload = bytes(range(251)) * 7
        put_now(store, "/fleet/a.img", payload)
        assert get_now(store, "/fleet/a.img") == payload
        record = store.catalog["/fleet/a.img"]
        assert record.acked
        assert len(record.placement) == 4
        assert len(set(record.placement)) == 4  # distinct racks
        sites = [store.racks[r].site for r in record.placement]
        assert max(sites.count(s) for s in sites) <= store.site_cap

    def test_declared_size_drives_wire_not_payload(self):
        store = small_fleet()
        put_now(store, "/fleet/big.img", b"x" * 100, declared=1_000_000)
        record = store.catalog["/fleet/big.img"]
        assert record.size == 1_000_000
        assert record.shard_wire == 500_000.0
        assert get_now(store, "/fleet/big.img") == b"x" * 100

    def test_get_fails_over_across_down_racks(self):
        store = small_fleet()
        payload = b"survives outages" * 99
        put_now(store, "/fleet/fo.img", payload)
        record = store.catalog["/fleet/fo.img"]
        # Take down m racks holding shards: reads must still succeed.
        for rack_id in record.placement[: store.layout.m]:
            store.fail_rack(rack_id, destroy=False)
        assert get_now(store, "/fleet/fo.img") == payload

    def test_get_fails_over_when_a_rack_dies_under_its_fetches(self):
        store = small_fleet(
            topology=FleetTopology(sites=3, racks_per_site=3),
            layout=Layout(k=4, m=2),
        )
        path, payload = "/fleet/midread.img", bytes(range(256)) * 64
        # 100 MB shards on 400 MB/s lanes: all four fetches are in flight
        put_now(store, path, payload, declared=400_000_000)
        record = store.catalog[path]
        victim = record.placement[store._read_order(record, None)[2]]
        store.engine.call_later(
            0.1, lambda: store.fail_rack(victim, destroy=True)
        )
        # the AllOf over the four fetch processes raises RackLostError;
        # the failover loop reads a fifth shard and still verifies
        assert get_now(store, path) == payload
        assert store.stats["failovers"] == 1
        assert store.stats["gets"] == 1
        assert store.racks[victim].fetches == 0

    def test_site_loss_keeps_objects_recoverable(self):
        store = small_fleet()
        for i in range(5):
            put_now(store, f"/fleet/s{i}.img", bytes([i]) * 777)
        store.fail_site("site-1", destroy=True)
        for i in range(5):
            path = f"/fleet/s{i}.img"
            assert store.recoverable(path)
            assert store.decode_now(path) == bytes([i]) * 777

    def test_unrecoverable_when_survivors_below_k(self):
        store = small_fleet()
        put_now(store, "/fleet/doomed.img", b"q" * 321)
        record = store.catalog["/fleet/doomed.img"]
        for rack_id in record.placement[: store.layout.m + 1]:
            store.fail_rack(rack_id, destroy=True)
        assert not store.recoverable("/fleet/doomed.img")
        with pytest.raises(ObjectUnrecoverableError):
            store.decode_now("/fleet/doomed.img")
        with pytest.raises(ObjectUnrecoverableError):
            get_now(store, "/fleet/doomed.img")

    def test_put_refuses_when_too_few_racks_up(self):
        store = small_fleet()
        store.fail_site("site-0", destroy=False)
        store.fail_rack("s1.r00", destroy=False)
        with pytest.raises(FleetError):
            put_now(store, "/fleet/late.img", b"z" * 64)

    def test_put_rehomes_a_shard_whose_rack_is_destroyed_mid_transfer(self):
        store = small_fleet()
        path, data = "/fleet/inflight.img", b"w" * 4096
        victim = store.placement_for(path)[1]
        store.engine.call_later(
            0.1, lambda: store.fail_rack(victim, destroy=True)
        )
        # 200 MB shards on 400 MB/s lanes: the rack dies mid-transfer
        put_now(store, path, data, declared=400_000_000)
        record = store.catalog[path]
        assert record.acked and victim not in record.placement
        assert store.lost_shards() == []
        assert store.decode_now(path) == data
        held = {
            (rack_id, key)
            for rack_id, rack in store.racks.items()
            for key in rack.shards
        }
        assert held == {
            (rack_id, (path, position))
            for position, rack_id in enumerate(record.placement)
        }

    def test_put_with_no_rack_left_to_rehome_onto_leaves_nothing_behind(self):
        store = small_fleet()
        store.fail_site("site-0", destroy=False)  # 4 racks up = n, no spare
        path = "/fleet/nohome.img"
        placement = store.placement_for(path)
        # a sibling shard still in flight when the put fails must not
        # land afterwards with no catalog entry to own it
        store.engine.spawn(store.racks[placement[3]].lane.transfer(1e9))
        store.engine.call_later(
            0.1, lambda: store.fail_rack(placement[0], destroy=True)
        )
        with pytest.raises(FleetError):
            put_now(store, path, b"n" * 4096, declared=400_000_000)
        store.engine.run()
        assert path not in store.catalog
        for rack in store.racks.values():
            assert not rack.shards and rack.used_bytes == 0


# ----------------------------------------------------------------------
# Recovery manager
# ----------------------------------------------------------------------
class TestRecovery:
    def run_manager(self, store, manager):
        engine = store.engine
        engine.spawn(manager.run(), "recovery-manager")
        engine.run()
        manager.stop()
        engine.run()

    def test_rack_loss_rebuilds_all_shards(self):
        store = small_fleet()
        for i in range(4):
            put_now(store, f"/fleet/r{i}.img", bytes([64 + i]) * 500)
        victim = store.catalog["/fleet/r0.img"].placement[0]
        lost = store.fail_rack(victim, destroy=True)
        assert lost > 0
        manager = RecoveryManager(store, detection_delay_s=0.25)
        self.run_manager(store, manager)
        assert store.lost_shards() == []
        assert manager.stats["shards_rebuilt"] == lost
        assert manager.stats["bytes_lost"] == 0.0
        # Rebuilt placements avoid the destroyed rack and stay distinct.
        for i in range(4):
            record = store.catalog[f"/fleet/r{i}.img"]
            assert victim not in record.placement
            assert len(set(record.placement)) == record.n
            assert store.decode_now(f"/fleet/r{i}.img") == bytes(
                [64 + i]
            ) * 500

    def test_manager_parks_until_restore_unblocks_rebuild(self):
        """With fewer up racks than the layout's n the rebuild cannot
        finish; the manager must park (not spin) and resume when a rack
        restore changes the fleet's shape."""
        store = small_fleet()
        put_now(store, "/fleet/p.img", b"patience" * 40)
        store.fail_site("site-0", destroy=True)
        store.fail_site("site-1", destroy=False)  # down, data intact
        manager = RecoveryManager(store, detection_delay_s=0.25)
        engine = store.engine
        engine.spawn(manager.run(), "recovery-manager")
        engine.run()  # must return: a no-progress pass parks the manager
        assert store.lost_shards() != []
        store.restore_site("site-1")
        engine.run()
        assert store.lost_shards() == []
        manager.stop()
        engine.run()
        assert engine.is_idle


# ----------------------------------------------------------------------
# Frontend routing
# ----------------------------------------------------------------------
class TestFrontend:
    def test_unknown_site_rejected(self):
        store = small_fleet()
        with pytest.raises(FleetError):
            FleetBackend(store, "site-99")

    def test_local_reads_avoid_wan_until_locals_die(self):
        store = small_fleet()
        put_now(store, "/fleet/loc.img", b"n" * 4096)
        record = store.catalog["/fleet/loc.img"]
        local_sites = {store.racks[r].site for r in record.placement}
        # Read "from" a site holding shards: k locals exist only if that
        # site holds >= k shards, so just assert the counter mechanics —
        # remote reads pay the WAN hop, local-preferred ordering first.
        home = sorted(local_sites)[0]
        before = store.stats["remote_gets"]
        get_now(store, "/fleet/loc.img", site=home)
        with_locals = store.stats["remote_gets"] - before
        # Destroy every shard in the home site: the read must fail over
        # to remote sites and count a remote get.
        for rack_id in record.placement:
            if store.racks[rack_id].site == home:
                store.fail_rack(rack_id, destroy=True)
        before = store.stats["remote_gets"]
        get_now(store, "/fleet/loc.img", site=home)
        assert store.stats["remote_gets"] - before >= max(with_locals, 1)


# ----------------------------------------------------------------------
# Full campaigns: corpus determinism, site survival, report shape
# ----------------------------------------------------------------------
class TestCampaign:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_corpus_campaign_replay_is_byte_identical(self, seed):
        first = run_fleet(seed, **SMALL)
        second = run_fleet(seed, **SMALL)
        assert report_to_json(first) == report_to_json(second)
        assert first["ok"], first["invariants"]
        assert first["bytes_lost"] == 0

    def test_campaign_survives_site_loss(self):
        report = run_fleet(7, **SMALL)
        kinds = [event["kind"] for event in report["fault_events"]]
        assert "rack.loss" in kinds
        assert "site.loss" in kinds
        assert report["recovery"]["shards_rebuilt"] > 0
        assert report["store"]["objects_unrecoverable"] == 0
        assert report["bytes_lost"] == 0
        names = {inv["invariant"] for inv in report["invariants"]}
        assert {
            "fleet_recoverable",
            "engine_drained",
            "no_admitted_request_lost",
        } <= names
        assert all(inv["ok"] for inv in report["invariants"])

    def test_campaign_serves_every_site(self):
        report = run_fleet(11, **SMALL)
        assert sorted(report["tenants"]) == ["site-0", "site-1", "site-2"]
        assert all(
            entry["ops"] > 0 for entry in report["tenants"].values()
        )
        assert report["pooling"] == "aggregate"
        assert report["clients"] == SMALL["clients"]

    def test_report_is_json_and_renderable(self):
        report = run_fleet(23, **SMALL)
        round_tripped = json.loads(report_to_json(report))
        assert round_tripped["seed"] == 23
        text = render_text(report)
        assert "fleet report" in text
        assert "verdict: OK" in text

    def test_faultless_campaign_rebuilds_nothing(self):
        report = run_fleet(42, rack_loss=False, site_loss=False, **SMALL)
        assert report["fault_events"] == []
        assert report["recovery"]["shards_rebuilt"] == 0
        assert report["store"]["racks_up"] == 6
        assert report["ok"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fleet_command(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "fleet.json"
    code = main([
        "fleet", "--seed", "7",
        "--sites", "3", "--racks-per-site", "3",
        "--clients", "120", "--duration", "3.0",
        "--objects", "4", "--arrival-rate", "12.0",
        "--runs", "2", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "byte-identical" in captured.out
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["bytes_lost"] == 0
