"""Direct tests for the WBM (buckets) and DIM (image registry) modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import FilesystemError, NoSpaceOLFSError
from repro.olfs.bucket import WritingBucketManager, link_path
from repro.olfs.config import OLFSConfig
from repro.olfs.images import (
    BUFFERED,
    BURNED,
    IN_BUCKET,
    DiscImageManager,
    pad_blobs,
)
from repro.sim import Engine
from repro.storage.raid import erasure_decode
from repro.storage.scheduler import IOStreamScheduler
from repro.storage.volume import Volume
from repro.udf.image import DiscImage
from repro.udf.filesystem import UDFFileSystem


def build(bucket_capacity=64 * 1024):
    engine = Engine()
    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
    ).scaled_for_tests(bucket_capacity=bucket_capacity)
    volume = Volume(
        engine,
        "buffer",
        read_throughput=1.2 * units.GB,
        write_throughput=1.0 * units.GB,
        capacity=100 * units.MB,
        access_latency=0.0004,
    )
    scheduler = IOStreamScheduler([volume], policy="shared")
    dim = DiscImageManager(engine, config, scheduler)
    closed = []
    wbm = WritingBucketManager(
        engine,
        config,
        volume,
        on_bucket_closed=lambda image: (
            dim.bucket_closed(image),
            closed.append(image),
        ),
        on_bucket_created=dim.register_open_bucket,
    )
    for bucket in wbm.open_buckets():
        if bucket.image_id not in dim.records:
            dim.register_open_bucket(bucket.image_id)
    return engine, config, volume, dim, wbm, closed


# ----------------------------------------------------------------------
# WBM
# ----------------------------------------------------------------------
def test_wbm_keeps_open_bucket_pool():
    engine, config, volume, dim, wbm, closed = build()
    assert len(wbm.open_buckets()) == 2
    engine.run_process(wbm.write_file("/a", b"x" * 50000))
    # Filling one bucket recycles the pool back to two open buckets.
    engine.run_process(wbm.write_file("/b", b"y" * 50000))
    assert len(wbm.open_buckets()) == 2


def test_wbm_first_come_first_served():
    engine, config, volume, dim, wbm, closed = build()
    engine.run_process(wbm.write_file("/a", b"1" * 1000))
    engine.run_process(wbm.write_file("/b", b"2" * 1000))
    ids_a, _ = engine.run_process(wbm.write_file("/c", b"3" * 1000))
    first_bucket = wbm.open_buckets()[0]
    assert ids_a == [first_bucket.image_id]


def test_wbm_split_produces_link_files():
    engine, config, volume, dim, wbm, closed = build(bucket_capacity=32 * 1024)
    big = b"Z" * 70000
    image_ids, sizes = engine.run_process(wbm.write_file("/big", big))
    assert len(image_ids) >= 3
    assert sum(sizes) == len(big)
    # Every continuation image carries a link to its predecessor.
    for part, image_id in enumerate(image_ids[1:], start=1):
        image = dim.get_buffered(image_id)
        fs = (
            image.mount()
            if image is not None
            else wbm.find_bucket(image_id).filesystem
        )
        assert fs.is_file(link_path("/big", part))


def test_wbm_buffer_space_accounting():
    engine, config, volume, dim, wbm, closed = build()
    # Pool reserves bucket capacity per open bucket.
    assert volume.used == 2 * config.bucket_capacity
    engine.run_process(wbm.write_file("/a", b"q" * 50000))
    engine.run_process(wbm.write_file("/b", b"q" * 50000))
    # Closed images hold their logical size; open pool still reserved.
    expected_open = len(wbm.open_buckets()) * config.bucket_capacity
    expected_images = sum(
        record.logical_size
        for record in dim.records.values()
        if record.state == BUFFERED
    )
    assert volume.used == expected_open + expected_images


def test_wbm_path_deeper_than_bucket_rejected():
    engine, config, volume, dim, wbm, closed = build(bucket_capacity=6 * 2048)
    deep = "/" + "/".join(f"d{i}" for i in range(10)) + "/f"
    with pytest.raises(NoSpaceOLFSError):
        engine.run_process(wbm.write_file(deep, b"x"))


def test_wbm_close_nonempty_only():
    engine, config, volume, dim, wbm, closed = build()
    engine.run_process(wbm.write_file("/a", b"x"))
    images = wbm.close_nonempty_buckets()
    assert len(images) == 1  # the empty second bucket stays open


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=90_000), min_size=1, max_size=6
    )
)
def test_property_wbm_subfile_sizes_partition_files(sizes):
    engine, config, volume, dim, wbm, closed = build(bucket_capacity=32 * 1024)
    for index, size in enumerate(sizes):
        data = bytes([index + 1]) * size
        image_ids, parts = engine.run_process(
            wbm.write_file(f"/f{index}", data)
        )
        assert sum(parts) == size
        assert len(image_ids) == len(parts)
        # Reassembling the subfiles yields the original content.
        rebuilt = b""
        for image_id in image_ids:
            bucket = wbm.find_bucket(image_id)
            fs = (
                bucket.filesystem
                if bucket is not None
                else dim.get_buffered(image_id).mount()
            )
            rebuilt += fs.read_file(f"/f{index}")
        assert rebuilt == data


# ----------------------------------------------------------------------
# DIM
# ----------------------------------------------------------------------
def test_dim_lifecycle_states():
    engine, config, volume, dim, wbm, closed = build()
    engine.run_process(wbm.write_file("/a", b"x" * 1000))
    bucket_id = wbm.open_buckets()[0].image_id
    assert dim.record(bucket_id).state == IN_BUCKET
    images = wbm.close_nonempty_buckets()
    image_id = images[0].image_id
    assert dim.record(image_id).state == BUFFERED
    dim.mark_burned(image_id, "disc-42", images[0].serialize(), (0, (0, 0)))
    assert dim.record(image_id).disc_id == "disc-42"


def test_dim_unknown_image_rejected():
    engine, config, volume, dim, wbm, closed = build()
    with pytest.raises(FilesystemError):
        dim.record("img-99999999")


def test_dim_evict_unburned_rejected():
    engine, config, volume, dim, wbm, closed = build()
    engine.run_process(wbm.write_file("/a", b"x" * 1000))
    images = wbm.close_nonempty_buckets()
    with pytest.raises(FilesystemError):
        dim.evict_content(images[0].image_id)


def test_dim_evict_and_restore_roundtrip():
    engine, config, volume, dim, wbm, closed = build()
    engine.run_process(wbm.write_file("/a", b"x" * 1000))
    images = wbm.close_nonempty_buckets()
    image = images[0]
    dim.mark_burned(image.image_id, "d0", image.serialize())
    used_before = volume.used
    dim.evict_content(image.image_id)
    assert volume.used < used_before
    assert dim.get_buffered(image.image_id) is None
    dim.restore_content(image.image_id, image)
    assert volume.used == used_before
    assert dim.get_buffered(image.image_id) is image


def test_dim_parity_generation_xor_correct():
    engine, config, volume, dim, wbm, closed = build()
    blobs = []
    images = []
    for index in range(3):
        fs = UDFFileSystem(config.bucket_capacity, label=f"im{index}")
        fs.write_file("/f", bytes([index + 1]) * 3000)
        fs.close()
        image = DiscImage(f"im{index}", filesystem=fs)
        dim.bucket_closed(image)
        images.append(image)
        blobs.append(image.serialize())
    records = engine.run_process(dim.generate_parity(images))
    assert len(records) == 1
    assert records[0].image is None  # the timed part carries no bytes
    [parity] = dim.encode_parity(records, blobs)
    assert records[0].image is parity
    # Blob 0 decodes from the other two + P (shard position 3).
    shards = dict(zip((1, 2, 3), pad_blobs([blobs[1], blobs[2], parity.raw])))
    recovered = erasure_decode(3, shards)[0].tobytes()[: len(blobs[0])]
    assert recovered == blobs[0]


def test_dim_parity_empty_set_rejected():
    engine, config, volume, dim, wbm, closed = build()

    def proc():
        yield from dim.generate_parity([])

    with pytest.raises(FilesystemError):
        engine.run_process(proc())


def test_dim_raid6_schema_generates_two_parities():
    engine = Engine()
    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=2,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    volume = Volume(
        engine,
        "buffer",
        read_throughput=1e9,
        write_throughput=1e9,
        capacity=100 * units.MB,
        access_latency=0.0,
    )
    dim = DiscImageManager(
        engine, config, IOStreamScheduler([volume], policy="shared")
    )
    images = []
    for index in range(3):
        fs = UDFFileSystem(config.bucket_capacity, label=f"im{index}")
        fs.write_file("/f", bytes([index + 1]) * (1000 + 300 * index))
        fs.close()
        image = DiscImage(f"im{index}", filesystem=fs)
        dim.bucket_closed(image)
        images.append(image)
    blobs = [image.serialize() for image in images]
    records = engine.run_process(dim.generate_parity(images))
    assert len(records) == 2
    assert [record.image for record in records] == [None, None]
    parity_images = dim.encode_parity(records, blobs)
    assert [record.image for record in records] == parity_images
    padded = pad_blobs(blobs + [image.raw for image in parity_images])
    # Any two lost data blobs decode from the third plus P (position 3)
    # and Q (position 4).
    for lost in itertools.combinations(range(3), 2):
        shards = {i: padded[i] for i in range(5) if i not in lost}
        decoded = erasure_decode(3, shards)
        for i in lost:
            assert decoded[i].tobytes()[: len(blobs[i])] == blobs[i]
