"""OLFS core behaviour: namespace, buckets, index files, versions, splits."""

import pytest

from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    IsADirectoryOLFSError,
)
from repro.olfs.bucket import LINK_SUFFIX
from repro.olfs.index import IndexFile, VersionEntry
from tests.conftest import make_ros


# ----------------------------------------------------------------------
# Basic write/read
# ----------------------------------------------------------------------
def test_write_then_read_roundtrip(ros):
    ros.write("/a/b/c.txt", b"content")
    result = ros.read("/a/b/c.txt")
    assert result.data == b"content"
    assert result.source == "bucket"


def test_write_sequence_matches_figure7(ros):
    trace = ros.write("/f.bin", b"x" * 1024)
    assert [op.name for op in trace.ops] == [
        "stat", "mknod", "stat", "write", "close"
    ]


def test_read_sequence_matches_figure7():
    ros = make_ros(tracing=True)
    tracer = ros.engine.trace
    ros.write("/f.bin", b"x" * 1024)
    ros.read("/f.bin")
    [read] = tracer.find("posix.read")
    ops = [
        span.name for span in tracer.children_of(read)
        if span.name.startswith("op.")
    ]
    assert ops == ["op.stat", "op.read", "op.close"]


def test_read_missing_file_raises(ros):
    with pytest.raises(FileNotFoundOLFSError):
        ros.read("/ghost")


def test_write_latency_close_to_paper(ros):
    """Figure 7: ext4+OLFS file write ~16 ms for a 1 KB file."""
    trace = ros.write("/t.bin", b"k" * 1024)
    seconds = sum(op.seconds for op in trace.ops)
    assert seconds == pytest.approx(0.016, rel=0.25)


def test_read_latency_close_to_paper(ros):
    """Figure 7: ext4+OLFS file read ~9 ms for a 1 KB file."""
    ros.write("/t.bin", b"k" * 1024)
    result = ros.read("/t.bin")
    assert result.total_seconds == pytest.approx(0.009, rel=0.25)


def test_empty_file(ros):
    ros.write("/empty", b"")
    assert ros.read("/empty").data == b""


def test_stat_reports_size_and_versions(ros):
    ros.write("/s.bin", b"q" * 5000)
    info = ros.stat("/s.bin")
    assert info["size"] == 5000
    assert info["versions"] == [1]


def test_stat_missing_raises(ros):
    with pytest.raises(FileNotFoundOLFSError):
        ros.stat("/nope")


def test_mkdir_and_readdir(ros):
    ros.mkdir("/docs")
    ros.write("/docs/one", b"1")
    ros.write("/docs/two", b"2")
    assert ros.readdir("/docs") == ["one", "two"]


def test_mkdir_existing_raises(ros):
    ros.mkdir("/d")
    with pytest.raises(FileExistsOLFSError):
        ros.mkdir("/d")


def test_write_over_directory_raises(ros):
    ros.mkdir("/d")
    with pytest.raises(IsADirectoryOLFSError):
        ros.write("/d", b"x")


def test_unlink_removes_from_namespace(ros):
    ros.write("/gone", b"data")
    ros.unlink("/gone")
    with pytest.raises(FileNotFoundOLFSError):
        ros.read("/gone")


def test_unlink_of_a_directory_raises_and_keeps_its_files(ros):
    ros.write("/d/a.bin", b"alpha")
    with pytest.raises(IsADirectoryOLFSError):
        ros.unlink("/d")
    assert ros.read("/d/a.bin").data == b"alpha"
    # the next snapshot still carries the file
    ros.mv.load_snapshot(ros.mv.serialize_snapshot())
    assert ros.read("/d/a.bin").data == b"alpha"


def test_unlink_of_the_root_raises_is_a_directory(ros):
    ros.write("/d/a.bin", b"alpha")
    with pytest.raises(IsADirectoryOLFSError):
        ros.unlink("/")
    assert ros.read("/d/a.bin").data == b"alpha"


# ----------------------------------------------------------------------
# Unique file path (§4.4)
# ----------------------------------------------------------------------
def test_unique_file_path_creates_directories_in_bucket(ros):
    ros.write("/deep/tree/of/dirs/file.dat", b"payload")
    image_id = ros.stat("/deep/tree/of/dirs/file.dat")["locations"][0]
    bucket = ros.wbm.find_bucket(image_id)
    fs = bucket.filesystem
    assert fs.listdir("/deep/tree/of/dirs") == ["file.dat"]
    assert fs.read_file("/deep/tree/of/dirs/file.dat") == b"payload"


def test_multiple_files_share_bucket_directories(ros):
    ros.write("/proj/a.txt", b"a")
    ros.write("/proj/b.txt", b"b")
    loc_a = ros.stat("/proj/a.txt")["locations"][0]
    loc_b = ros.stat("/proj/b.txt")["locations"][0]
    assert loc_a == loc_b  # first-come-first-served into the same bucket


# ----------------------------------------------------------------------
# File splitting across buckets (§4.5)
# ----------------------------------------------------------------------
def test_large_file_splits_across_images():
    ros = make_ros(bucket_capacity=32 * 1024)
    big = bytes(range(256)) * 300  # 76,800 bytes > 2 buckets
    ros.write("/big.bin", big)
    info = ros.stat("/big.bin")
    assert len(info["locations"]) >= 2
    result = ros.read("/big.bin")
    assert result.data == big


def test_split_creates_link_files():
    ros = make_ros(bucket_capacity=32 * 1024)
    big = b"Z" * 60000
    ros.write("/big.bin", big)
    locations = ros.stat("/big.bin")["locations"]
    # The continuation image carries a link file pointing at the previous.
    second = locations[1]
    record = ros.dim.record(second)
    fs = (
        record.image.mount()
        if record.image is not None
        else ros.wbm.find_bucket(second).filesystem
    )
    links = [p for p in fs.file_paths() if LINK_SUFFIX in p]
    assert links, "expected a link file on the continuation image"
    import json

    link = json.loads(fs.read_file(links[0]))
    assert link["continues"] == locations[0]


def test_split_subfile_sizes_sum_to_total():
    ros = make_ros(bucket_capacity=32 * 1024)
    big = b"Q" * 50000
    ros.write("/big.bin", big)
    index = ros.mv.peek_index("/big.bin")
    entry = index.current
    assert sum(entry.subfile_sizes) == 50000


# ----------------------------------------------------------------------
# Updates and versioning (§4.6)
# ----------------------------------------------------------------------
def test_regenerating_update_creates_new_version():
    ros = make_ros(update_in_place=False)
    ros.write("/v.txt", b"version one")
    ros.write("/v.txt", b"version two!")
    info = ros.stat("/v.txt")
    assert info["versions"] == [1, 2]
    assert ros.read("/v.txt").data == b"version two!"


def test_old_version_still_readable():
    ros = make_ros(update_in_place=False)
    ros.write("/v.txt", b"version one")
    ros.write("/v.txt", b"version two!")
    assert ros.read("/v.txt", version=1).data == b"version one"


def test_regenerating_update_lands_in_different_image():
    ros = make_ros(update_in_place=False)
    ros.write("/v.txt", b"one")
    ros.write("/v.txt", b"two")
    index = ros.mv.peek_index("/v.txt")
    assert index.entries[0].locations != index.entries[1].locations


def test_update_sequence_has_no_mknod(ros):
    ros.write("/v.txt", b"one")
    trace = ros.write("/v.txt", b"two")
    assert [op.name for op in trace.ops] == ["stat", "write", "close"]


def test_version_ring_overwrites_oldest():
    ros = make_ros(update_in_place=False)
    for i in range(20):
        ros.write("/ring.txt", f"content-{i}".encode())
    info = ros.stat("/ring.txt")
    assert len(info["versions"]) == 15  # §4.6: 15 historic entries
    assert info["versions"][-1] == 20
    assert info["versions"][0] == 6


def test_update_in_place_reuses_open_bucket(ros):
    """§4.6: a file still in an open bucket is simply updated — same
    image, same version number, new content."""
    ros.write("/u.txt", b"aaaa")
    first = ros.stat("/u.txt")
    ros.write("/u.txt", b"bbbb")
    second = ros.stat("/u.txt")
    assert first["locations"] == second["locations"]
    assert second["versions"] == [1]
    assert ros.read("/u.txt").data == b"bbbb"


# ----------------------------------------------------------------------
# Index files
# ----------------------------------------------------------------------
def test_index_file_json_roundtrip():
    index = IndexFile("/x/y.bin")
    index.add_version(
        VersionEntry(version=1, size=10, mtime=1.0, locations=["img-1"])
    )
    index.forepart = b"head"
    restored = IndexFile.deserialize(index.serialize())
    assert restored.path == "/x/y.bin"
    assert restored.current.locations == ["img-1"]
    assert restored.forepart == b"head"


def test_index_file_typical_size_is_papers_388_bytes(ros):
    """§4.2: 'Its typical size is 388 bytes' — ours stays in that range
    (JSON with one version entry and no forepart)."""
    index = IndexFile("/data/records/2026/customer-archive-000001.bin")
    index.add_version(
        VersionEntry(
            version=1, size=1048576, mtime=12345.678, locations=["img-00001234"]
        )
    )
    assert len(index.serialize()) <= 388


def test_version_entry_requires_location():
    with pytest.raises(Exception):
        VersionEntry(version=1, size=0, mtime=0, locations=[])


# ----------------------------------------------------------------------
# MV decoupling (§4.2)
# ----------------------------------------------------------------------
def test_mv_holds_index_not_data(ros):
    ros.write("/big/file.bin", b"D" * 10000)
    index = ros.mv.peek_index("/big/file.bin")
    blob = index.serialize()
    assert b"DDDD" not in blob  # no file data in MV (forepart excluded)


def test_mv_directories_mirror_namespace(ros):
    ros.write("/a/b/c/file", b"x")
    assert ros.run(ros.mv.is_dir("/a/b/c"))


def test_metadata_ops_fast_even_with_slow_data_path(ros):
    """Decoupled metadata: stat never touches the data tier."""
    ros.write("/f", b"x" * 50000)
    start = ros.now
    ros.stat("/f")
    assert ros.now - start < 0.005
