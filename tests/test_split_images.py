"""Images a resumed burn split across two tracks, read by every reader.

A burn the §4.8 interrupt policy stops leaves ``<id>.partial`` on the
disc; resuming it burns ``<id>.rest`` beside it.  Fetch, scrub and both
disc-scan recoveries read the image through ``OpticalDisc.image``, so a
split disc is checked, repaired and collected like any other.
"""

from repro.media.disc import PARTIAL_SUFFIX, REST_SUFFIX
from tests.conftest import make_ros

OLD = b"o" * 300_000
NEW = b"n" * 300_000
EMPTY_MV = b'{"state": {}, "entries": []}'


def interrupted_rack(forepart_enabled=False):
    """A rack whose only drive set was burning when a cold read arrived,
    so the read interrupted the burn and the burn resumed afterwards."""
    return make_ros(
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy="interrupt",
        forepart_enabled=forepart_enabled,
        auto_burn=False,
    )


def interrupt_the_burn(ros, cold_path):
    while not any(ds.is_burning for ds in ros.mech.drive_sets):
        ros.engine.run(until=ros.now + 0.05)
    ros.read(cold_path)
    ros.settle()


def split_images(ros):
    """image id -> (disc, array address) of every split burned image."""
    split = {}
    for record in ros.dim.records.values():
        if record.state != "burned":
            continue
        disc = ros.mech.disc_by_id(record.disc_id)
        if disc.find_track(record.image_id + PARTIAL_SUFFIX) is not None:
            assert disc.find_track(record.image_id + REST_SUFFIX) is not None
            split[record.image_id] = (disc, record.array_address)
    return split


def rack_with_split_data_disc():
    ros = interrupted_rack()
    for index in range(4):
        ros.write(f"/old/f{index}.bin", OLD)
    ros.flush()
    ros.cache.evict(ros.stat("/old/f0.bin")["locations"][0])
    for index in range(4):
        ros.write(f"/new/f{index}.bin", NEW, 12 * 1024 * 1024)
    ros.wbm.close_nonempty_buckets()
    ros.btm.flush_pending()
    interrupt_the_burn(ros, "/old/f0.bin")
    split = split_images(ros)
    assert split
    return ros, split


def test_the_disc_reader_joins_the_pieces_in_track_order():
    ros, split = rack_with_split_data_disc()
    for image_id, (disc, _) in split.items():
        partial, rest = disc.tracks
        image = disc.image()
        assert image == disc.image(image_id)
        assert image.image_id == image_id
        assert image.tracks == (partial, rest)
        assert image.logical_size == partial.logical_size + rest.logical_size
        assert image.read() == partial.payload + rest.payload
        assert image.payload_length == len(image.read())


def test_scrub_checks_and_repairs_a_split_disc():
    ros, split = rack_with_split_data_disc()
    [(image_id, (disc, (roller, address)))] = split.items()
    paths = [
        path
        for path in ros.mv.all_index_paths()
        if image_id in ros.stat(path)["locations"]
    ]
    assert paths
    rest = disc.find_track(image_id + REST_SUFFIX)
    disc.bad_sectors.add(rest.start_sector)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["checked"] == len(ros.mc.array_images[(roller, address)])
    assert report["errors"] == 1
    assert report["repaired"] == [image_id]
    for path in paths:
        assert image_id not in ros.stat(path)["locations"]
        assert ros.read(path).data == NEW


def test_scrub_verifies_a_clean_split_disc_against_its_checksum():
    ros, split = rack_with_split_data_disc()
    [(_, (_, (roller, address)))] = split.items()
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["checked"] == len(ros.mc.array_images[(roller, address)])
    assert report["errors"] == 0
    assert report["repaired"] == report["lost"] == []


def test_disc_scan_rebuilds_the_namespace_through_a_split_disc():
    ros, _ = rack_with_split_data_disc()
    expected = {
        path: (ros.read(path).data, ros.stat(path)["size"])
        for path in ros.mv.all_index_paths()
    }
    ros.mv.load_snapshot(EMPTY_MV)
    images = ros.run(ros.recovery.collect_images_from_discs())
    restored = ros.run(ros.recovery.reconstruct_namespace(images))
    assert restored == len(expected)
    assert sorted(ros.mv.all_index_paths()) == sorted(expected)
    for path, (data, size) in expected.items():
        assert ros.stat(path)["size"] == size
        assert ros.read(path).data == data


def test_mv_recovery_reads_a_split_checkpoint_disc():
    # Foreparts make the MV snapshot megabytes long, so its burn lasts
    # long enough for a cold read to interrupt it.
    ros = interrupted_rack(forepart_enabled=True)
    for index in range(12):
        ros.write(f"/old/f{index}.bin", bytes([index]) * 300_000)
    ros.flush()
    ros.cache.evict(ros.stat("/old/f0.bin")["locations"][0])
    paths = ros.mv.all_index_paths()
    checkpoint = ros.engine.spawn(ros.recovery.burn_mv_snapshot())
    interrupt_the_burn(ros, "/old/f0.bin")
    assert checkpoint.done
    assert any(image_id.startswith("mv-") for image_id in split_images(ros))
    ros.mv.load_snapshot(EMPTY_MV)
    snapshot_id, discs_read = ros.recover_mv()
    assert (snapshot_id, discs_read) == (1, 1)
    assert ros.mv.all_index_paths() == paths
    for index in range(12):
        assert ros.read(f"/old/f{index}.bin").data == bytes([index]) * 300_000
