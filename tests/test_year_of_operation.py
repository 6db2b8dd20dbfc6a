"""A long mixed-operation scenario: the whole system under one roof.

Simulates a year-scale operating cycle — monthly ingest batches, analytics
read-backs, version churn, checkpoints, a mid-life sector error with scrub
repair, a drive fault with burn retry, and a final MV disaster recovery —
asserting global invariants throughout.  This is the "everything at once"
regression net.
"""

import pytest

from repro.faults import DRIVE_TRANSIENT, FaultPlan
from repro.media.errors_model import SectorErrorModel
from repro.olfs.mechanical import ArrayState
from repro.power import PowerModel
from repro.sim.rng import DeterministicRNG
from tests.conftest import make_ros
from repro.workloads import ArchivalWorkloadGenerator
from repro.workloads import generator as workload_generator


def test_year_of_operation(monkeypatch):
    ros = make_ros(read_cache_images=3, fault_plan=FaultPlan())
    oracle: dict[str, bytes] = {}
    monkeypatch.setattr(workload_generator, "PAYLOAD_CAP", 4096)
    generator = ArchivalWorkloadGenerator(
        "mixed", seed=2026, max_file_bytes=24 * 1024
    )
    specs = list(generator.files(48))

    # -- twelve monthly ingest batches ---------------------------------
    for month in range(12):
        for spec in specs[month * 4 : (month + 1) * 4]:
            ros.write(spec.path, spec.payload, spec.logical_size)
            oracle[spec.path] = spec.payload
        # Some files get revised during the month.
        if month % 3 == 0 and oracle:
            victim = sorted(oracle)[month % len(oracle)]
            revised = oracle[victim] + b"-rev"
            ros.write(victim, revised)
            oracle[victim] = revised
        ros.flush()
        # Monthly analytics scan over a slice.
        for path in sorted(oracle)[:3]:
            result = ros.read(path)
            assert result.data[: len(oracle[path])] == oracle[path]
        # Quarterly MV checkpoint.
        if month % 3 == 2:
            ros.run(ros.recovery.burn_mv_snapshot())

    # -- invariants at mid-life -----------------------------------------
    status = ros.status()
    assert status["arrays"]["Used"] >= 3
    assert ros.mech.total_discs() == 6120  # no disc ever lost or duplicated
    report = ros.mi.wear_report()
    assert report["plc_faults"] == 0
    assert report["roller_rotations"] > 0

    # -- a sector error appears; scrub repairs it ------------------------
    data_arrays = [
        key
        for key, images in ros.mc.array_images.items()
        if any(not i.startswith(("par-", "mv-")) for i in images)
        and ros.mc.state_of(*key) is ArrayState.USED
    ]
    roller, address = data_arrays[0]
    victim_image = next(
        i
        for i in ros.mc.array_images[(roller, address)]
        if not i.startswith(("par-", "mv-"))
    )
    disc_id = ros.dim.record(victim_image).disc_id
    tray = ros.mech.rollers[roller].tray_at(address)
    disc = next(d for d in tray.discs() if d.disc_id == disc_id)
    SectorErrorModel(DeterministicRNG(1), 0.0).corrupt_exact(
        disc, [disc.tracks[0].start_sector]
    )
    scrub = ros.run(ros.mi.scrub_array(roller, address))
    assert scrub["repaired"] == [victim_image]
    ros.flush()

    # -- a drive fault mid-burn; the task retries a fresh tray -----------
    failed_before = ros.mc.counts()["Failed"]
    for index in range(4):
        path = f"/late/burst-{index}.bin"
        oracle[path] = bytes([index + 60]) * 18000
        ros.write(path, oracle[path])
    ros.engine.faults.inject(
        DRIVE_TRANSIENT, target=ros.mech.drive_sets[0].drives[2].drive_id
    )
    ros.flush()
    assert ros.mc.counts()["Failed"] == failed_before + 1

    # -- year-end: MV disaster, recover from the newest snapshot ---------
    ros.run(ros.recovery.burn_mv_snapshot())
    expected_paths = set(ros.mv.all_index_paths())
    ros.mv.load_snapshot(b'{"state": {}, "entries": []}')
    ros.recover_mv()
    assert set(ros.mv.all_index_paths()) == expected_paths

    # -- final audit: every oracle file reads back correctly -------------
    mismatches = []
    for path, payload in sorted(oracle.items()):
        result = ros.read(path)
        if result.data[: len(payload)] != payload:
            mismatches.append(path)
    assert not mismatches

    # -- power sanity over the whole year ---------------------------------
    energy = PowerModel(ros).report()
    assert 185.0 <= energy.average_power_w <= 652.0
    assert ros.now > 3600  # a substantial simulated span elapsed
