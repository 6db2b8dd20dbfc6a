"""Tests for the §4.2 interface extensions: KV, object store, block LUN."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interfaces import (
    BlockDeviceInterface,
    KeyValueInterface,
    ObjectStoreInterface,
)
from repro.interfaces.objectstore import NoSuchBucket, NoSuchKey
from tests.conftest import make_ros


# ----------------------------------------------------------------------
# Key-value
# ----------------------------------------------------------------------
@pytest.fixture
def kv():
    return KeyValueInterface(make_ros(), shards=8)


def test_kv_put_get_roundtrip(kv):
    kv.put("sensor/2026-07-07/raw", b"telemetry")
    assert kv.get("sensor/2026-07-07/raw") == b"telemetry"


def test_kv_missing_key_raises(kv):
    with pytest.raises(KeyError):
        kv.get("ghost")


def test_kv_overwrite_and_versions(kv):
    kv.put("doc", b"v1")
    kv.put("doc", b"v2")
    assert kv.get("doc") == b"v2"
    assert len(kv.versions("doc")) >= 1


def test_kv_delete(kv):
    kv.put("temp", b"x")
    kv.delete("temp")
    assert "temp" not in kv
    with pytest.raises(KeyError):
        kv.delete("temp")


def test_kv_exists_and_contains(kv):
    assert not kv.exists("a")
    kv.put("a", b"1")
    assert "a" in kv


def test_kv_keys_enumeration(kv):
    names = {f"item-{i}" for i in range(10)}
    for name in names:
        kv.put(name, name.encode())
    assert set(kv.keys()) == names


def test_kv_keys_swallows_only_a_missing_root(kv, monkeypatch):
    """No root directory yet means "no keys"; any other error out of
    the rack propagates instead of reading as an empty store."""
    from repro.errors import DriveError

    assert list(kv.keys()) == []

    def broken_readdir(path):
        raise DriveError("injected")

    monkeypatch.setattr(kv.ros, "readdir", broken_readdir)
    with pytest.raises(DriveError):
        list(kv.keys())


def test_kv_weird_keys_survive_quoting(kv):
    key = "path/with spaces/and:colons?&=#"
    kv.put(key, b"odd")
    assert kv.get(key) == b"odd"
    assert key in set(kv.keys())


def test_kv_empty_key_rejected(kv):
    with pytest.raises(KeyError):
        kv.put("", b"x")


def test_kv_sharding_spreads_directories(kv):
    for index in range(32):
        kv.put(f"k{index}", b".")
    shards = kv.ros.readdir("/kv")
    assert len(shards) > 1


def test_kv_survives_burn_and_cold_read():
    ros = make_ros()
    kv = KeyValueInterface(ros)
    kv.put("archive/record", b"precious" * 1000)
    ros.flush()
    image = ros.stat(kv._path("archive/record"))["locations"][0]
    ros.cache.evict(image)
    assert kv.get("archive/record") == b"precious" * 1000


@settings(max_examples=25, deadline=None)
@given(
    entries=st.dictionaries(
        st.text(min_size=1, max_size=30).filter(lambda s: s.strip()),
        st.binary(min_size=0, max_size=256),
        min_size=1,
        max_size=8,
    )
)
def test_property_kv_store_matches_dict(entries):
    kv = KeyValueInterface(make_ros(), shards=4)
    for key, value in entries.items():
        kv.put(key, value)
    for key, value in entries.items():
        assert kv.get(key) == value
    assert set(kv.keys()) == set(entries)


# ----------------------------------------------------------------------
# Object store
# ----------------------------------------------------------------------
@pytest.fixture
def s3():
    return ObjectStoreInterface(make_ros())


def test_object_put_get(s3):
    s3.create_bucket("research")
    s3.put_object("research", "2026/run-1/results.csv", b"a,b\n1,2\n")
    assert s3.get_object("research", "2026/run-1/results.csv") == b"a,b\n1,2\n"


def test_object_metadata_sidecar(s3):
    s3.create_bucket("b")
    s3.put_object(
        "b", "obj", b"data", metadata={"content-type": "text/plain", "owner": "amy"}
    )
    info = s3.head_object("b", "obj")
    assert info.size == 4
    assert info.metadata["owner"] == "amy"


def test_object_missing_bucket(s3):
    with pytest.raises(NoSuchBucket):
        s3.put_object("nope", "k", b"v")


def test_object_missing_key(s3):
    s3.create_bucket("b")
    with pytest.raises(NoSuchKey):
        s3.get_object("b", "ghost")


def test_object_delete_removes_sidecar(s3):
    s3.create_bucket("b")
    s3.put_object("b", "k", b"v", metadata={"x": 1})
    s3.delete_object("b", "k")
    with pytest.raises(NoSuchKey):
        s3.get_object("b", "k")
    keys, _ = s3.list_objects("b")
    assert keys == []


def test_object_listing_with_prefix_and_delimiter(s3):
    s3.create_bucket("logs")
    for key in (
        "2025/jan/a.log",
        "2025/feb/b.log",
        "2026/jan/c.log",
        "manifest.txt",
    ):
        s3.put_object("logs", key, b".")
    keys, prefixes = s3.list_objects("logs", prefix="", delimiter="/")
    assert keys == ["manifest.txt"]
    assert prefixes == ["2025/", "2026/"]
    keys, prefixes = s3.list_objects("logs", prefix="2025/", delimiter="/")
    assert prefixes == ["2025/feb/", "2025/jan/"] or set(prefixes) == {
        "2025/jan/",
        "2025/feb/",
    }


def test_object_list_buckets(s3):
    s3.create_bucket("a")
    s3.create_bucket("b")
    assert s3.list_buckets() == ["a", "b"]


def test_object_invalid_names(s3):
    with pytest.raises(ValueError):
        s3.create_bucket("has/slash")
    s3.create_bucket("ok")
    with pytest.raises(ValueError):
        s3.put_object("ok", "trailing/", b"x")


# ----------------------------------------------------------------------
# Block device (iSCSI-ish LUN)
# ----------------------------------------------------------------------
@pytest.fixture
def lun():
    return BlockDeviceInterface(
        make_ros(), "lun0", size=1024 * 1024, extent_size=64 * 1024
    )


def test_lun_read_unwritten_is_zero(lun):
    assert lun.read(0, 512) == b"\x00" * 512


def test_lun_write_read_roundtrip(lun):
    pattern = bytes(range(256)) * 4  # 1024 B
    lun.write(512, pattern)
    assert lun.read(512, 1024) == pattern
    # Neighbouring sectors untouched.
    assert lun.read(0, 512) == b"\x00" * 512


def test_lun_write_across_extent_boundary(lun):
    offset = 64 * 1024 - 512
    data = b"\xab" * 1024
    lun.write(offset, data)
    assert lun.read(offset, 1024) == data


def test_lun_unaligned_io_rejected(lun):
    with pytest.raises(ValueError):
        lun.read(100, 512)
    with pytest.raises(ValueError):
        lun.write(0, b"x" * 100)


def test_lun_out_of_range_rejected(lun):
    with pytest.raises(ValueError):
        lun.read(1024 * 1024 - 512, 1024)


def test_lun_capacity_report(lun):
    report = lun.capacity_report()
    assert report["sectors"] == 2048
    assert report["extents"] == 16


def test_lun_flush_burns_extents():
    ros = make_ros()
    lun = BlockDeviceInterface(ros, "vault", size=256 * 1024, extent_size=32 * 1024)
    lun.write(0, b"\x42" * 32 * 1024)
    lun.write(128 * 1024, b"\x17" * 32 * 1024)
    lun.flush()
    assert ros.status()["arrays"]["Used"] >= 1
    # Data still correct after burn + cache eviction.
    for image_id in list(ros.cache.cached_ids):
        ros.cache.evict(image_id)
    assert lun.read(0, 512) == b"\x42" * 512


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),  # sector index
            st.integers(min_value=1, max_value=4),  # sectors
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_property_lun_matches_reference_bytearray(writes):
    size = 64 * 512
    lun = BlockDeviceInterface(
        make_ros(), "prop", size=size, extent_size=8 * 512
    )
    reference = bytearray(size)
    for sector, count, fill in writes:
        count = min(count, 64 - sector)
        if count <= 0:
            continue
        offset, length = sector * 512, count * 512
        data = bytes([fill]) * length
        lun.write(offset, data)
        reference[offset : offset + length] = data
    assert lun.read(0, size) == bytes(reference)
