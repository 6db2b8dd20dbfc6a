"""The DIM's ready queue against the full DILindex scan it replaced.

``BurnController.maybe_schedule`` / ``flush_pending`` form burn tasks from
``DiscImageManager.ready`` — buffered, unclaimed data images in DILindex
order, kept up to date as images change state.  The reference below is
the scan they used to run on every bucket close; the differential drives
both through out-of-order closes, parity and metadata images, claims,
burns, failed tasks and claim releases.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import ROSError
from repro.olfs.burning import BurnController
from repro.olfs.config import OLFSConfig
from repro.olfs.images import BUFFERED, BURNED, DiscImageManager
from repro.sim import Engine
from repro.storage.scheduler import IOStreamScheduler
from repro.storage.volume import Volume
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage

from tests.conftest import make_ros


def reference_ready(dim, claimed):
    """The full scan: every buffered data image not claimed, in DILindex
    (record-creation) order."""
    return [
        record
        for record in dim.records.values()
        if record.kind == "data"
        and record.state == BUFFERED
        and record.image_id not in claimed
    ]


def reference_batches(ready, width, flush):
    """What ``maybe_schedule`` (``flush=False``) / ``flush_pending``
    picked from the scan."""
    if not flush:
        return [ready[:width]] if len(ready) >= width else []
    batches = []
    while len(ready) >= width:
        batches.append(ready[:width])
        ready = ready[width:]
    if ready:
        batches.append(ready)
    return batches


def build(width):
    engine = Engine()
    config = OLFSConfig(
        data_discs_per_array=width,
        parity_discs_per_array=1,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    volume = Volume(
        engine,
        "buffer",
        read_throughput=units.GB,
        write_throughput=units.GB,
        capacity=units.GB,
        access_latency=0.0,
    )
    scheduler = IOStreamScheduler([volume], policy="shared")
    dim = DiscImageManager(engine, config, scheduler)
    # Tasks are spawned but the engine never runs them: the test plays
    # their outcomes (burned, failed) through the DIM and BTM calls.
    btm = BurnController(engine, config, dim, None, scheduler)
    return dim, btm


def image(image_id, kind="data"):
    fs = UDFFileSystem(64 * 1024, label=image_id)
    fs.write_file("/f", image_id.encode())
    fs.close()
    return DiscImage(image_id, kind=kind, filesystem=fs)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.just(0)),
        st.tuples(st.just("close"), st.integers(0, 7)),
        st.tuples(st.sampled_from(["parity", "metadata"]), st.just(0)),
        st.tuples(st.sampled_from(["maybe", "flush"]), st.just(0)),
        st.tuples(st.sampled_from(["burn", "fail"]), st.integers(0, 7)),
        st.tuples(st.just("release"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=4),
    ops=operations,
)
def test_ready_queue_picks_what_the_full_scan_picked(width, ops):
    dim, btm = build(width)
    claimed: set[str] = set()
    open_ids: list[str] = []
    serial = iter(range(10_000))
    for op, arg in ops:
        if op == "open":
            open_ids.append(f"img-{next(serial):05d}")
            dim.register_open_bucket(open_ids[-1])
        elif op == "close" and open_ids:
            # Buckets close out of creation order.
            dim.bucket_closed(image(open_ids.pop(arg % len(open_ids))))
        elif op == "parity":
            dim.register_parity(f"par-{next(serial):05d}", 64)
        elif op == "metadata":
            dim.bucket_closed(image(f"mv-{next(serial):05d}", "metadata"))
        elif op in ("maybe", "flush"):
            expected = reference_batches(
                reference_ready(dim, claimed), width, op == "flush"
            )
            if op == "maybe":
                task = btm.maybe_schedule()
                tasks = [] if task is None else [task]
            else:
                tasks = btm.flush_pending()
            assert [t.data_records for t in tasks] == expected
            claimed.update(r.image_id for batch in expected for r in batch)
        elif op == "burn" and btm.active_tasks:
            task = btm.active_tasks[arg % len(btm.active_tasks)]
            for record in task.data_records:
                dim.mark_burned(record.image_id, "disc", b"")
            btm.task_finished(task)
        elif op == "fail" and btm.active_tasks:
            task = btm.active_tasks[arg % len(btm.active_tasks)]
            btm.task_failed(task, ROSError("burn failed"))
        elif op == "release":
            # An active task keeps its claims; a failed one's are freed.
            returned = btm.release_claims()
            held = {
                record.image_id
                for task in btm.active_tasks
                for record in task.data_records
            }
            released, claimed = claimed - held, claimed & held
            assert returned == [
                record
                for record in reference_ready(dim, claimed)
                if record.image_id in released
            ]
        assert dim.ready == reference_ready(dim, claimed)
        assert btm.health()["claimed_images"] == len(claimed)


def test_released_images_of_a_failed_task_burn_again():
    dim, btm = build(width=2)
    for index in range(3):
        dim.register_open_bucket(f"img-{index}")
    for index in (2, 0, 1):
        dim.bucket_closed(image(f"img-{index}"))
    [first, second] = btm.flush_pending()
    assert [r.image_id for r in first.data_records] == ["img-0", "img-1"]
    btm.task_failed(first, ROSError("tray jammed"))
    dim.mark_burned("img-2", "disc", b"")
    btm.task_finished(second)
    assert btm.flush_pending() == []
    assert [r.image_id for r in btm.release_claims()] == ["img-0", "img-1"]
    assert btm.health()["claimed_images"] == 0
    [retry] = btm.flush_pending()
    assert retry.data_records == first.data_records


def test_release_keeps_the_claims_of_active_tasks():
    """Releasing after a storm frees what failed tasks left, never the
    images a queued or burning task still holds (those would burn twice)."""
    dim, btm = build(width=2)
    for index in range(4):
        dim.register_open_bucket(f"img-{index}")
        dim.bucket_closed(image(f"img-{index}"))
    [failed, active] = btm.flush_pending()
    btm.task_failed(failed, ROSError("tray jammed"))
    assert [r.image_id for r in btm.release_claims()] == ["img-0", "img-1"]
    assert btm.health()["claimed_images"] == 2
    [retry] = btm.flush_pending()
    assert retry.data_records == failed.data_records
    assert btm.release_claims() == []
    assert btm.flush_pending() == []


# ----------------------------------------------------------------------
# One checksum source: the bytes the task burned, across an interrupt
# ----------------------------------------------------------------------
def test_interrupted_then_resumed_burns_checksum_the_whole_image():
    ros = make_ros(
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy="interrupt",
        forepart_enabled=False,
        auto_burn=False,
    )
    images = {}
    bucket_closed, encode_parity = ros.dim.bucket_closed, ros.dim.encode_parity

    def closed_spy(entering):
        images[entering.image_id] = entering
        return bucket_closed(entering)

    def encode_spy(records, blobs):
        encoded = encode_parity(records, blobs)
        images.update((parity.image_id, parity) for parity in encoded)
        return encoded

    ros.dim.bucket_closed, ros.dim.encode_parity = closed_spy, encode_spy
    for index in range(4):
        ros.write(f"/old/f{index}.bin", b"o" * 300_000)
    ros.flush()
    ros.cache.evict(ros.stat("/old/f0.bin")["locations"][0])
    for index in range(4):
        ros.write(f"/new/f{index}.bin", b"n" * 300_000, 12 * 1024 * 1024)
    ros.wbm.close_nonempty_buckets()
    tasks = ros.btm.flush_pending()
    while not any(ds.is_burning for ds in ros.mech.drive_sets):
        ros.engine.run(until=ros.now + 0.05)
    assert ros.read("/old/f0.bin").data == b"o" * 300_000
    ros.settle()
    assert all(task.state == "done" for task in tasks)
    assert any(task.interruptions for task in tasks)

    resumed = 0
    for record in ros.dim.records.values():
        if record.state != BURNED:
            continue
        blob = images[record.image_id].serialize()
        assert record.checksum == hashlib.sha256(blob).hexdigest()
        roller, address = record.array_address
        tray = ros.mech.rollers[roller].tray_at(address)
        [disc] = [d for d in tray.discs() if d.disc_id == record.disc_id]
        partial = disc.find_track(f"{record.image_id}.partial")
        if partial is not None:
            rest = disc.find_track(f"{record.image_id}.rest")
            assert partial.payload + rest.payload == blob
            resumed += 1
    assert resumed
