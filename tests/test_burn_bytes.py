"""A burn's bytes exist from its burn on, and MV foreparts view them.

A burn task simulates its parity streams at formation, but serializes its
data images and encodes their parity only once a round holds the drive
set, and every later round reuses those bytes.  When a round commits,
each MV forepart the burned blob holds becomes a ``memoryview`` of that
blob: the disc's track payload, not a third copy of the client's bytes.
"""

import os

from repro.olfs.burning import BurnTask
from repro.olfs.forepart import FOREPART_BYTES
from repro.olfs.index import IndexFile

from tests.conftest import make_ros


def track_of(ros, image_id):
    """The disc track image ``image_id`` was burned to in one piece."""
    record = ros.dim.records[image_id]
    roller, address = record.array_address
    tray = ros.mech.rollers[roller].tray_at(address)
    [disc] = [d for d in tray.discs() if d.disc_id == record.disc_id]
    return disc.find_track(image_id)


def test_a_queued_task_holds_no_bytes_until_its_round_starts():
    ros = make_ros(auto_burn=False)
    for index in range(6):
        ros.write(f"/q/f{index}.bin", os.urandom(50_000))
    ros.wbm.close_nonempty_buckets()
    first, second = ros.btm.flush_pending()
    while first.state != "burning":
        ros.engine.run(until=ros.now + 0.5)
    # the second task's parity streams ran and its records exist, with
    # buffer space allocated, but it queues for the one drive set
    [parity] = second.parity_records
    assert parity.state == "buffered" and parity.image is None
    assert second.payloads is None
    assert first.payloads is not None
    while second.payloads is None:
        ros.engine.run(until=ros.now + 0.5)
    assert first.state == "done"
    [blob, _, image_id] = second.payloads[-1]
    assert image_id == parity.image_id and blob is parity.image.serialize()
    ros.settle()
    assert second.state == "done" and second.payloads is None


def test_a_resumed_round_reuses_the_blobs_of_the_first():
    ros = make_ros(
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy="interrupt",
        forepart_enabled=False,
        auto_burn=False,
    )
    rounds, encodes = [], []
    burn_round, encode = BurnTask._burn_round, BurnTask._encode

    def round_spy(task, *args):
        finished = yield from burn_round(task, *args)
        rounds.append((task, [blob for blob, _, _ in task.payloads]))
        return finished

    def encode_spy(task):
        encodes.append(task)
        encode(task)

    BurnTask._burn_round, BurnTask._encode = round_spy, encode_spy
    try:
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
    finally:
        BurnTask._burn_round, BurnTask._encode = burn_round, encode
    assert all(task.state == "done" for task in tasks)
    # each task, the first flush's too, encoded once
    assert len(set(encodes)) == len(encodes) and set(tasks) <= set(encodes)
    resumed = [task for task in tasks if task.interruptions]
    assert resumed
    for task in resumed:
        first, *later = [blobs for owner, blobs in rounds if owner is task]
        assert later
        for blobs in later:
            assert all(a is b for a, b in zip(blobs, first, strict=True))


def test_a_whole_file_forepart_views_its_disc_track_payload():
    ros = make_ros()
    data = os.urandom(5_000)
    ros.write("/v/a.bin", data)
    assert ros.mv.peek_index("/v/a.bin").forepart is data
    ros.flush()
    [image_id] = ros.stat("/v/a.bin")["locations"]
    forepart = ros.mv.peek_index("/v/a.bin").forepart
    assert isinstance(forepart, memoryview)
    assert forepart.obj is track_of(ros, image_id).payload
    assert forepart == data
    # a cold read still answers from the forepart, and reads the file
    ros.cache.evict(image_id)
    result = ros.read("/v/a.bin")
    assert result.used_forepart and result.data == data


def test_view_foreparts_serialize_as_their_bytes():
    ros = make_ros()
    payloads = {f"/v/f{i}.bin": os.urandom(3_000 + i) for i in range(8)}
    for path, data in payloads.items():
        ros.write(path, data)
    ros.flush()
    views = {path: ros.mv.stored_index(path) for path in payloads}
    assert all(isinstance(i.forepart, memoryview) for i in views.values())
    snapshot = ros.mv.serialize_snapshot()
    for path, index in views.items():
        as_bytes = index.copy()
        assert as_bytes.forepart is index.forepart  # copy shares the view
        as_bytes.forepart = bytes(index.forepart)
        assert index.serialize() == as_bytes.serialize()
        assert index.serialized_size() == as_bytes.serialized_size()
        parsed = IndexFile.deserialize(index.serialize())
        assert parsed.forepart == payloads[path]
    for index in views.values():
        index.forepart = bytes(index.forepart)
    assert ros.mv.serialize_snapshot() == snapshot


def test_a_rewrite_replaces_the_view():
    ros = make_ros()
    ros.write("/v/a.bin", os.urandom(4_000))
    ros.flush()
    assert isinstance(ros.mv.peek_index("/v/a.bin").forepart, memoryview)
    new = os.urandom(6_000)
    ros.write("/v/a.bin", new)
    index = ros.mv.peek_index("/v/a.bin")
    assert index.forepart is new
    assert ros.read("/v/a.bin").data == new
    ros.flush()
    index = ros.mv.peek_index("/v/a.bin")
    [image_id] = index.current.locations
    assert index.forepart.obj is track_of(ros, image_id).payload
    assert index.forepart == new


def test_a_file_split_over_images_keeps_its_first_bytes_as_forepart():
    ros = make_ros(bucket_capacity=1024 * 1024)
    payloads = {}
    # two 700 kB files fill the two open buckets; the next files split
    for name, size in (("a", 700_000), ("c", 700_000), ("b", 800_000),
                       ("d", 900_000), ("e", 900_000), ("f", 500_000)):
        payloads[name] = os.urandom(size)
        ros.write(f"/s/{name}.bin", payloads[name])
    ros.flush()
    parts = {}
    for name, data in payloads.items():
        index = ros.mv.peek_index(f"/s/{name}.bin")
        parts[name] = index.current.subfile_sizes
        assert bytes(index.forepart) == data[:FOREPART_BYTES]
        first = index.current.locations[0]
        if parts[name][0] >= FOREPART_BYTES:
            # the forepart is the front of the file's first extent
            assert index.forepart.obj is track_of(ros, first).payload
        else:
            assert type(index.forepart) is bytes
    for name, data in payloads.items():
        assert ros.read(f"/s/{name}.bin").data == data
    assert len(parts["b"]) == 2 and parts["b"][0] >= FOREPART_BYTES
    assert len(parts["f"]) == 2 and parts["f"][0] < FOREPART_BYTES
