"""Failure injection: bad burns, dead devices, PLC faults, crash recovery.

Faults are injected through :mod:`repro.faults` — a seeded
``FaultInjector`` installed on the engine — rather than by poking device
flags.
"""

import pytest

from repro.errors import PLCFaultError, ROSError
from repro.faults import DRIVE_HARD, DRIVE_TRANSIENT, PLC_CHANNEL, FaultPlan
from repro.olfs.mechanical import ArrayState
from repro.sim import Join
from tests.conftest import make_ros, write_batch


def make_faulty_ros(**kwargs):
    """A rack with an (empty) fault plan: imperative injection enabled."""
    return make_ros(fault_plan=FaultPlan(), **kwargs)


# ----------------------------------------------------------------------
# Burn failures (DAindex Failed + retry on a fresh tray)
# ----------------------------------------------------------------------
def test_burn_failure_retries_on_fresh_tray():
    ros = make_faulty_ros(auto_burn=False)
    payloads = write_batch(ros)
    # The first drive of the only set fails its next burn.
    drive = ros.mech.drive_sets[0].drives[0]
    ros.engine.faults.inject(DRIVE_TRANSIENT, target=drive.drive_id)
    ros.flush()
    counts = ros.mc.counts()
    assert counts["Failed"] == 1
    assert counts["Used"] >= 1
    # All data still burned successfully after the retry.
    for record in ros.dim.records.values():
        if record.kind == "data" and not record.image_id.startswith("mv-"):
            if record.state in ("buffered", "burned"):
                assert record.state in ("burned", "buffered")
    burned = [r for r in ros.dim.records.values() if r.state == "burned"]
    assert burned
    # Data remains readable end to end (cold).
    path = next(iter(payloads))
    image_id = ros.stat(path)["locations"][0]
    ros.cache.evict(image_id)
    assert ros.read(path).data == payloads[path]


def test_burn_failure_marks_tray_failed_and_skips_it():
    ros = make_faulty_ros(auto_burn=False)
    write_batch(ros)
    drive = ros.mech.drive_sets[0].drives[1]
    ros.engine.faults.inject(DRIVE_TRANSIENT, target=drive.drive_id)
    ros.flush()
    failed = [
        (roller, address)
        for (roller, address), state in ros.mc.da_index.items()
        if state is ArrayState.FAILED
    ]
    assert len(failed) == 1
    # The failed tray's discs are not blank and never selected again.
    roller, address = failed[0]
    tray = ros.mech.rollers[roller].tray_at(address)
    assert any(not disc.is_blank for disc in tray.discs())
    blank = ros.mc.find_blank_tray(roller)
    assert blank != failed[0]


def test_a_fault_after_the_commit_leaves_the_array_burned_once(monkeypatch):
    """A round that committed its array (records burned, DAindex Used)
    and then faults while demoting the burned content keeps its tray:
    the array is neither marked Failed nor burned again elsewhere."""
    reference = make_ros(auto_burn=False)
    write_batch(reference)
    reference.flush()
    ros = make_ros(auto_burn=False)
    payloads = write_batch(ros)
    evict_content, faults = ros.dim.evict_content, []

    def evict_faulting_once(image_id):
        if not faults:
            faults.append(image_id)
            raise ROSError(f"demoting {image_id} faulted")
        return evict_content(image_id)

    monkeypatch.setattr(ros.dim, "evict_content", evict_faulting_once)
    ros.flush()
    [image_id] = faults
    assert ros.mc.da_index[ros.dim.records[image_id].array_address] is (
        ArrayState.USED
    )
    # the trays end as an unfaulted run leaves them: none Failed
    assert ros.mc.counts() == reference.mc.counts()
    assert ros.mc.counts()["Failed"] == 0
    assert not ros.btm.failed_tasks
    path = next(iter(payloads))
    ros.cache.evict(ros.stat(path)["locations"][0])
    assert ros.read(path).data == payloads[path]


def test_three_consecutive_burn_failures_fail_the_task():
    ros = make_faulty_ros(auto_burn=False)
    write_batch(ros, count=4)
    drive = ros.mech.drive_sets[0].drives[0]
    # Re-arm the fault as soon as each burn consumes it.
    original_burn = drive.burn

    def rearming_burn(*args, **kwargs):
        ros.engine.faults.inject(DRIVE_TRANSIENT, target=drive.drive_id)
        return original_burn(*args, **kwargs)

    drive.burn = rearming_burn
    ros.wbm.close_nonempty_buckets()
    tasks = ros.btm.flush_pending()
    ros.drain_background()
    assert ros.btm.failed_tasks
    task, error = ros.btm.failed_tasks[0]
    assert isinstance(error, ROSError)
    assert ros.mc.counts()["Failed"] == 3


def test_drive_hard_failure_window_expires():
    """A DRIVE_HARD window fails the drive for its duration, then clears."""
    ros = make_faulty_ros(auto_burn=False)
    write_batch(ros, count=4)
    drive = ros.mech.drive_sets[0].drives[0]
    ros.engine.faults.inject(
        DRIVE_HARD, target=drive.drive_id, duration=30.0
    )
    fault = ros.engine.faults.check("drive.op", drive.drive_id)
    assert fault is not None and fault.kind == DRIVE_HARD
    ros.engine.run(until=ros.now + 31.0)
    assert ros.engine.faults.check("drive.op", drive.drive_id) is None
    # The rack still burns fine once the window has passed.
    ros.flush()
    assert ros.mc.counts()["Used"] >= 1


# ----------------------------------------------------------------------
# PLC / sensor faults during OLFS operation
# ----------------------------------------------------------------------
def test_sensor_fault_surfaces_through_flush():
    ros = make_ros(auto_burn=False)
    write_batch(ros, count=4)
    ros.mech.plc.suites[0].arm_encoder.inject_drift(3.0)
    ros.wbm.close_nonempty_buckets()
    ros.btm.flush_pending()
    ros.drain_background()
    assert ros.btm.failed_tasks
    _, error = ros.btm.failed_tasks[0]
    assert isinstance(error, PLCFaultError)


def test_calibration_recovers_plc_fault():
    from repro.plc import Calibrate

    ros = make_ros(auto_burn=False)
    write_batch(ros, count=4)
    ros.mech.plc.suites[0].arm_encoder.inject_drift(3.0)
    ros.wbm.close_nonempty_buckets()
    ros.btm.flush_pending()
    ros.drain_background()
    assert ros.btm.failed_tasks
    # Administrator recalibrates; data is still on the buffer, re-burn.
    ros.run(ros.mech.plc.execute(Calibrate(0)))
    assert ros.btm.release_claims()
    tasks = ros.btm.flush_pending()
    ros.drain_background()
    assert any(t.state == "done" for t in ros.btm.completed_tasks)


def test_repair_burns_each_image_once_when_tasks_are_still_active():
    """The post-storm repair re-burns only what failed tasks left: tasks
    still queued or burning keep their images, so nothing burns twice."""
    from repro.faults.campaign import repair_rack

    ros = make_ros()
    write_batch(ros, count=12, size=30000)
    ros.flush(wait=False)
    active = [
        record.image_id
        for task in ros.btm.active_tasks
        for record in task.data_records
    ]
    assert active
    repair_rack(ros, "test")
    burned = [
        record.image_id
        for task in ros.btm.completed_tasks
        for record in task.data_records
    ]
    assert sorted(burned) == sorted(active)


# ----------------------------------------------------------------------
# Buffer volume device failures
# ----------------------------------------------------------------------
def test_mv_volume_failure_is_fatal_for_metadata_ops():
    """A dead metadata volume (both SSDs) blocks namespace operations —
    which is exactly why MV checkpoints exist (§4.2)."""
    from repro.errors import NoSpaceOLFSError

    ros = make_ros()
    ros.write("/pre/fault.bin", b"x")
    # Simulate MV exhaustion rather than electronics death: fill it up.
    ros.mv_volume.allocate(ros.mv_volume.free)
    with pytest.raises(NoSpaceOLFSError):
        ros.mv_volume.allocate(1)


# ----------------------------------------------------------------------
# Crash consistency: system state checkpoints in MV (§4.2)
# ----------------------------------------------------------------------
def test_state_checkpoint_roundtrip():
    ros = make_ros()
    ros.run(
        ros.mv.save_state(
            "controller",
            {"next_image": 42, "pending_arrays": [[0, 3, 1]]},
        )
    )
    snapshot = ros.mv.serialize_snapshot()
    ros.mv.load_snapshot(snapshot)
    state = ros.run(ros.mv.load_state("controller"))
    assert state == {"next_image": 42, "pending_arrays": [[0, 3, 1]]}


def test_interrupt_then_failure_combination():
    """An interrupted burn that later hits a bad disc still converges."""
    ros = make_faulty_ros(
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy="interrupt",
        forepart_enabled=False,
        auto_burn=False,
    )
    for index in range(4):
        ros.write(f"/old/f{index}.bin", b"o" * 300_000)
    ros.flush()
    target_image = ros.stat("/old/f0.bin")["locations"][0]
    ros.cache.evict(target_image)
    for index in range(4):
        ros.write(
            f"/new/f{index}.bin", b"n" * 300_000, 12 * 1024 * 1024
        )
    ros.wbm.close_nonempty_buckets()
    tasks = ros.btm.flush_pending()
    while not any(ds.is_burning for ds in ros.mech.drive_sets):
        ros.engine.run(until=ros.now + 0.05)
    # Interrupt via an urgent read...
    result = ros.read("/old/f0.bin")
    assert result.data == b"o" * 300_000
    # ...then fail a drive on the resumed burn.
    drive = ros.mech.drive_sets[0].drives[2]
    ros.engine.faults.inject(DRIVE_TRANSIENT, target=drive.drive_id)
    ros.drain_background()
    for task in tasks:
        assert task.state == "done"
    for index in range(4):
        image = ros.stat(f"/new/f{index}.bin")["locations"][0]
        assert ros.dim.record(image).state == "burned"


# ----------------------------------------------------------------------
# Crash / restart (§4.2): the restart joins the burns the crash stopped
# ----------------------------------------------------------------------
def _crash_mid_burn(downtime, armed=None):
    """Crash a rack ``downtime`` seconds long while its one array burns;
    ``armed`` (a fault kind) is injected at the crash instant.  Returns
    (when the crash hit, when the burn parked, its rounds as (start, end),
    when the restart process ended)."""
    ros = make_faulty_ros(auto_burn=False, tracing=True)
    write_batch(ros, count=4)
    ros.wbm.close_nonempty_buckets()
    [task] = ros.btm.flush_pending()
    while task.state != "burning":
        ros.engine.run(until=ros.now + 0.5)
    crashed_at = ros.now
    if armed is not None:
        ros.engine.faults.inject(armed, duration=5.0)
    parks = []
    park = ros.btm.notify_interrupted
    ros.btm.notify_interrupted = lambda t: (parks.append(ros.now), park(t))
    restart = ros.engine.spawn(ros.crash_restart(downtime), name="crash")
    ended = []

    def watch():
        yield Join(restart)
        ended.append(ros.now)

    ros.engine.spawn(watch())
    ros.drain_background()
    assert task.state == "done"
    rounds = [
        (s.start, s.end) for s in ros.engine.trace.find("btm.burn_round")
    ]
    return crashed_at, parks, rounds, ended


def test_crashed_burn_resumes_the_instant_it_parks_after_the_restart():
    # The unload that parks the stopped array outlasts a 10 s downtime.
    crashed_at, parks, rounds, ended = _crash_mid_burn(10.0)
    assert parks and parks[0] > crashed_at + 10.0
    # round 2 starts on the park instant, not on a later restart tick
    assert rounds[0][1] == parks[0] == rounds[1][0]
    # and the restart process ended with it
    assert ended == parks


def test_crashed_burn_parked_before_the_restart_resumes_on_restart():
    crashed_at, parks, rounds, ended = _crash_mid_burn(200.0)
    assert parks[0] < crashed_at + 200.0
    assert rounds[1][0] == ended[0] == crashed_at + 200.0


def test_a_crashed_round_that_fails_over_leaves_the_restart_nothing_to_join():
    """A channel fault fails the stopped array's unload: the task retries
    on a fresh tray, never parks, and the restart ends on restart."""
    crashed_at, parks, rounds, ended = _crash_mid_burn(
        10.0, armed=PLC_CHANNEL
    )
    assert parks == []
    assert rounds[0][1] < crashed_at + 5.0
    assert ended == [crashed_at + 10.0]
