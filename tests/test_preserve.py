"""Preservation-grade integrity: scrubber, anti-entropy audit, campaigns.

Covers the :mod:`repro.preserve` subsystem end to end:

* the accelerated :class:`AgingClock` (births, freeze, shocks);
* the budgeted :class:`BackgroundScrubber` in both budget modes
  (private token bucket, and admission-controlled under serving);
* the LOCKSS-style :class:`AntiEntropyAuditor` (vote + minority repair,
  dead-copy restoration) and invariant 7 (``audit_converges``);
* decades-scale campaigns: byte-identical replay on the chaos corpus
  seeds, and the acceptance property that scrub+audit+migration keep
  strictly more bytes alive than an unattended archive;
* the scrub-while-fault-fires regression: a PLC fault aborting an array
  load mid-separation must not wedge the rack's drive set forever.
"""

import pytest

import repro.preserve.scrubber as scrubber_module
from repro import units
from repro.cluster import RackCluster
from repro.faults.invariants import check_audit_convergence
from repro.faults.plan import FaultPlan, MEDIA_AGING, PLC_CHANNEL
from repro.media.errors_model import SectorErrorModel
from repro.olfs.config import OLFSConfig
from repro.olfs.mechanical import ArrayState
from repro.preserve import (
    AgingClock,
    AntiEntropyAuditor,
    BackgroundScrubber,
    report_to_json,
    run_preserve,
)
from repro.serve.tenancy import AdmissionController, TenantSpec
from repro.sim.engine import Delay
from repro.sim.rng import DeterministicRNG
from tests.conftest import make_ros

#: The chaos corpus seeds; preservation campaigns pin the same ones.
CORPUS_SEEDS = [7, 11, 23, 42, 1337]


def burned_rack(with_injector=False):
    ros = make_ros(fault_plan=FaultPlan() if with_injector else None)
    payloads = {}
    for index in range(8):
        path = f"/preserve/f{index}.bin"
        payloads[path] = bytes([index + 3]) * 15000
        ros.write(path, payloads[path])
    ros.flush()
    return ros, payloads


def make_cluster():
    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
        read_cache_images=2,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    return RackCluster(
        rack_count=2,
        replicas=1,
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
    )


def _delay(seconds):
    yield Delay(seconds)


def _quiet_model():
    """An error model that never corrupts by itself (rate 0)."""
    return SectorErrorModel(DeterministicRNG(5), sector_error_rate=0.0)


# ----------------------------------------------------------------------
# AgingClock
# ----------------------------------------------------------------------
def test_aging_clock_registers_births_and_ages():
    ros, _payloads = burned_rack()
    clock = AgingClock(ros, _quiet_model(), years_per_second=0.1)
    clock.tick()
    assert clock.health()["discs_tracked"] > 0
    assert clock.max_age() == 0.0
    ros.run(_delay(50.0))
    assert clock.max_age() == pytest.approx(5.0)


def test_aging_clock_freeze_stops_the_clock():
    ros, _payloads = burned_rack()
    clock = AgingClock(ros, _quiet_model(), years_per_second=0.1)
    clock.tick()
    ros.run(_delay(10.0))
    clock.freeze()
    frozen_age = clock.max_age()
    ros.run(_delay(100.0))
    assert clock.max_age() == frozen_age


def test_aging_clock_shock_adds_years_synchronously():
    ros, _payloads = burned_rack()
    clock = AgingClock(ros, _quiet_model(), years_per_second=0.0)
    clock.tick()
    clock.shock(4.5)
    assert clock.max_age() == pytest.approx(4.5)
    assert clock.health()["shocks"] == 1
    with pytest.raises(ValueError):
        clock.shock(-1.0)


def test_media_aging_fault_reaches_one_bound_clock():
    ros, _payloads = burned_rack(with_injector=True)
    clock = AgingClock(ros, _quiet_model(), years_per_second=0.0)
    clock.tick()
    ros.engine.faults.bind_aging(clock)
    ros.engine.faults.inject(MEDIA_AGING, detail={"years": 2.0})
    assert clock.shock_years == pytest.approx(2.0)
    applied = [
        entry
        for entry in ros.engine.faults.log
        if entry["kind"] == MEDIA_AGING and entry["event"] == "apply"
    ]
    assert applied and applied[0]["target"].startswith("rack-")


def test_media_aging_fault_skips_without_a_clock():
    ros, _payloads = burned_rack(with_injector=True)
    ros.engine.faults.inject(MEDIA_AGING, detail={"years": 2.0})
    assert ros.engine.faults.log[-1]["event"] == "skip"


def test_cache_loss_fault_drops_cached_images():
    ros, payloads = burned_rack(with_injector=True)
    path = sorted(payloads)[0]
    ros.read(path)
    assert ros.cache.cached_ids
    from repro.faults.plan import CACHE_LOSS

    ros.engine.faults.inject(CACHE_LOSS)
    assert ros.cache.cached_ids == []
    assert ros.read(path).data == payloads[path]


# ----------------------------------------------------------------------
# BackgroundScrubber
# ----------------------------------------------------------------------
def test_scrubber_repairs_corruption_within_budget():
    ros, payloads = burned_rack()
    (roller, address) = next(iter(ros.mc.array_images))
    victim = next(
        i
        for i in ros.mc.array_images[(roller, address)]
        if not i.startswith("par-")
    )
    disc_id = ros.dim.record(victim).disc_id
    tray = ros.mech.rollers[roller].tray_at(address)
    disc = next(d for d in tray.discs() if d.disc_id == disc_id)
    _quiet_model().corrupt_exact(disc, [disc.tracks[0].start_sector])
    scrubber = BackgroundScrubber(ros)
    ros.run(scrubber.scrub_pass())
    ros.settle()
    assert scrubber.stats["errors_found"] >= 1
    assert scrubber.stats["images_repaired"] >= 1
    assert scrubber.health()["budget_granted_bytes"] > 0
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_scrubber_budget_paces_passes(monkeypatch):
    ros, _payloads = burned_rack()
    # A budget far below the array size forces the scrubber to wait for
    # the bucket before each array: simulated time must pass.
    monkeypatch.setattr(scrubber_module, "RATE_BYTES", 4 * 1024)
    scrubber = BackgroundScrubber(ros)
    assert scrubber.bucket.burst == 16 * 1024
    before = ros.now
    ros.run(scrubber.scrub_pass())
    ros.settle()
    assert scrubber.stats["arrays_scrubbed"] >= 1
    assert ros.now > before
    assert scrubber.bucket.granted == scrubber.stats["bytes_scrubbed"]


def test_scrubber_defers_when_admission_rejects():
    ros, _payloads = burned_rack()
    admission = AdmissionController(
        ros.engine,
        [TenantSpec("scrub", max_queue=1)],
        max_inflight=4,
    )
    admission.close()  # every admit now raises AdmissionRejectedError
    scrubber = BackgroundScrubber(ros, admission=admission)
    (roller, address) = next(iter(ros.mc.array_images))
    ros.run(scrubber.scrub_one(roller, address))
    assert scrubber.stats["deferred"] == 1
    assert scrubber.stats["arrays_scrubbed"] == 0


def test_scrubber_migrates_old_arrays_to_fresh_media(monkeypatch):
    ros, payloads = burned_rack()
    clock = AgingClock(ros, _quiet_model(), years_per_second=0.0)
    clock.tick()
    clock.shock_years = 25.0  # older than the migration threshold
    used_before = [
        key
        for key, state in ros.mc.da_index.items()
        if state is ArrayState.USED
    ]
    monkeypatch.setattr(scrubber_module, "RATE_BYTES", 16 * units.MB)
    scrubber = BackgroundScrubber(
        ros, clock=clock, migrate_after_years=18.0
    )
    ros.run(scrubber.scrub_pass())
    ros.settle()
    ros.flush()
    assert scrubber.stats["images_migrated"] > 0
    # Every originally used array was retired in favour of fresh media.
    for key in used_before:
        assert ros.mc.da_index[key] is ArrayState.FAILED
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


# ----------------------------------------------------------------------
# Scrub-while-fault-fires regression (the aborted-load wedge)
# ----------------------------------------------------------------------
def test_scrub_survives_plc_fault_mid_load(monkeypatch):
    """A PLC fault aborting the scrub's array load must not wedge the
    rack: the scrubber skips, recovers the mechanics, and the next pass
    scrubs normally."""
    ros, payloads = burned_rack(with_injector=True)
    monkeypatch.setattr(scrubber_module, "RATE_BYTES", 16 * units.MB)
    scrubber = BackgroundScrubber(ros)
    # Arm a one-shot control-link fault: the next PLC send — somewhere
    # inside the scrub's load_array sequence — raises PLCFaultError.
    ros.engine.faults.inject(PLC_CHANNEL)
    ros.run(scrubber.scrub_pass())
    ros.settle()
    assert scrubber.stats["skipped"] >= 1
    assert scrubber.stats["recoveries"] >= 1
    # No drive set is left wedged: discs in drives imply a home record.
    for drive_set in ros.mech.drive_sets:
        holds = any(d.disc is not None for d in drive_set.drives)
        assert not (holds and drive_set.loaded_from is None)
    # And the next pass actually scrubs what the aborted pass skipped.
    ros.run(scrubber.scrub_pass())
    ros.settle()
    assert scrubber.stats["arrays_scrubbed"] >= 1
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_reset_after_fault_rescues_orphaned_drive_set():
    """The wedge state itself: discs in the drives, no home tray
    recorded, arm idle.  ``reset_after_fault`` must send them home."""
    ros, _payloads = burned_rack()
    mech = ros.mech
    (roller_index, address) = next(
        key
        for key, state in ros.mc.da_index.items()
        if state is ArrayState.USED
    )
    roller = mech.rollers[roller_index]
    tray = roller.tray_at(address)
    drive_set = mech.drive_sets[0]
    if not drive_set.is_empty:
        ros.run(mech.unload_array(0))
    # Manufacture an aborted load: move the tray's discs straight into
    # the drives without stamping ``loaded_from``.
    discs = tray.take_all()
    for disc, drive in zip(discs, drive_set.drives):
        drive.open_tray()
        drive.insert_disc(disc)
        drive.close_tray()
    assert drive_set.loaded_from is None
    ros.run(mech.reset_after_fault())
    ros.settle()
    assert drive_set.is_empty
    assert not tray.checked_out and not tray.is_empty
    # The rack is fully operational again.
    ros.run(mech.load_array(0, address))
    ros.run(mech.unload_array(0))


# ----------------------------------------------------------------------
# AntiEntropyAuditor
# ----------------------------------------------------------------------
def populated_cluster(files=6):
    cluster = make_cluster()
    acked = {}
    for index in range(files):
        path = f"/audit/f{index:03d}.bin"
        data = bytes([index + 1]) * (9000 + 700 * index)
        cluster.write(path, data)
        acked[path] = data
    cluster.flush()
    for rack in cluster.racks:
        rack.settle()
    return cluster, acked


def test_audit_agrees_on_healthy_replicas():
    cluster, acked = populated_cluster()
    auditor = AntiEntropyAuditor(cluster)
    summary = cluster.engine.run_process(
        auditor.audit_round(sorted(acked)), "audit"
    )
    assert summary["disagreements"] == 0
    assert summary["repairs"] == 0
    assert auditor.stats["digest_bytes_on_wire"] > 0


def test_audit_repairs_divergent_minority():
    cluster, acked = populated_cluster()
    path = sorted(acked)[0]
    holders = cluster._alive(cluster.placement(path))
    assert len(holders) == 2
    # Diverge the higher-indexed holder's copy (ties break toward the
    # lowest rack index, so the original bytes must win the vote).
    villain = cluster.racks[max(holders)]
    cluster.engine.run_process(
        villain.pi.write_file(path, b"x" * len(acked[path]),
                              len(acked[path])),
        "diverge",
    )
    villain.settle()
    auditor = AntiEntropyAuditor(cluster)
    summary = cluster.engine.run_process(
        auditor.audit_round([path]), "audit"
    )
    for rack in cluster.racks:
        rack.settle()
    assert summary["disagreements"] == 1
    assert summary["repairs"] == 1
    # The tie broke toward the lowest holder index: original bytes win.
    for index in holders:
        assert cluster.racks[index].read(path).data == acked[path]
    result = check_audit_convergence(cluster, [path])
    assert result["ok"], result


def test_audit_restores_unreadable_copy():
    cluster, acked = populated_cluster()
    path = sorted(acked)[0]
    holders = cluster._alive(cluster.placement(path))
    victim = cluster.racks[max(holders)]
    # Kill the copy outright: every image holding the path goes lost.
    locations = list(victim.mv.peek_index(path).current.locations)
    for image_id in locations:
        record = victim.dim.records.get(image_id)
        if record is None:
            continue
        if record.state == "burned" and record.image is not None:
            victim.dim.evict_content(image_id)
        record.state = "lost"
        record.image = None
    from repro.errors import ROSError

    with pytest.raises(ROSError):
        victim.read(path)
    auditor = AntiEntropyAuditor(cluster)
    summary = cluster.engine.run_process(
        auditor.audit_round([path]), "audit"
    )
    for rack in cluster.racks:
        rack.settle()
    assert summary["unreadable"] == 1
    assert summary["repairs"] == 1
    assert victim.read(path).data == acked[path]


def test_audit_convergence_invariant_flags_divergence():
    cluster, acked = populated_cluster()
    path = sorted(acked)[0]
    holders = cluster._alive(cluster.placement(path))
    villain = cluster.racks[max(holders)]
    cluster.engine.run_process(
        villain.pi.write_file(path, b"y" * len(acked[path]),
                              len(acked[path])),
        "diverge",
    )
    villain.settle()
    result = check_audit_convergence(cluster, sorted(acked))
    assert not result["ok"]
    assert result["detail"]["problems"]


# ----------------------------------------------------------------------
# Campaigns: determinism, invariants, and the acceptance property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_campaign_replay_is_byte_identical(seed):
    reports = [
        report_to_json(run_preserve(seed, files=8)) for _ in range(2)
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_campaign_invariants_hold(seed):
    report = run_preserve(seed, files=8)
    failed = [inv for inv in report["invariants"] if not inv["ok"]]
    assert not failed, failed
    assert report["ok"]
    names = [inv["invariant"] for inv in report["invariants"]]
    assert "audit_converges" in names


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_preservation_beats_unattended_archive(seed):
    """The acceptance criterion: with scrub + audit + migration on, the
    loss metric is strictly below the unattended run at the same aging
    dose (or both are zero)."""
    on = run_preserve(seed, files=12)
    off = run_preserve(
        seed, files=12, scrub=False, audit=False, migrate=False
    )
    metric_on = on["verdict"]["bytes_lost_per_exabyte_decade"]
    metric_off = off["verdict"]["bytes_lost_per_exabyte_decade"]
    assert on["ok"] and off["ok"]
    # Identical dose on both configurations.
    assert [a["max_age_years"] for a in on["aging"]] == [
        a["max_age_years"] for a in off["aging"]
    ]
    if metric_off == 0:
        assert metric_on == 0
    else:
        assert metric_on < metric_off


def test_campaign_off_configuration_reports_no_machinery():
    report = run_preserve(
        7, files=8, scrub=False, audit=False, migrate=False, faults=False
    )
    assert report["scrub"] == []
    assert report["audit"] is None
    assert report["plan"] == []
    assert report["ok"]


def test_campaign_slos_watch_preserve_spans():
    report = run_preserve(7, files=8)
    # Scrub and audit both ran, so their spans exist and were audited.
    assert report["scrub"][0]["passes"] > 0
    assert report["audit"]["rounds"] > 0
    assert report["slo_violations"] == []
