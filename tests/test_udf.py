"""Tests for the UDF file system and disc image serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    InvalidPathError,
    IsADirectoryOLFSError,
    MediaError,
    NoSpaceOLFSError,
    NotADirectoryOLFSError,
    ReadOnlyOLFSError,
)
from repro.udf import BLOCK_SIZE, DiscImage, UDFFileSystem


def small_fs(capacity=1024 * BLOCK_SIZE):
    return UDFFileSystem(capacity, label="test-vol")


# ----------------------------------------------------------------------
# Basic operations
# ----------------------------------------------------------------------
def test_new_volume_has_only_root():
    fs = small_fs()
    assert fs.listdir("/") == []
    assert fs.used_blocks == 1


def test_write_and_read_file():
    fs = small_fs()
    fs.write_file("/a.txt", b"hello")
    assert fs.read_file("/a.txt") == b"hello"
    assert fs.is_file("/a.txt")


def test_write_creates_ancestor_directories():
    fs = small_fs()
    fs.write_file("/deep/nested/path/file.bin", b"data")
    assert fs.listdir("/deep") == ["nested"]
    assert fs.listdir("/deep/nested/path") == ["file.bin"]


def test_relative_path_rejected():
    fs = small_fs()
    with pytest.raises(InvalidPathError):
        fs.write_file("relative.txt", b"")
    with pytest.raises(InvalidPathError):
        fs.write_file("/a/../b", b"")


def test_duplicate_write_rejected_without_overwrite():
    fs = small_fs()
    fs.write_file("/a", b"1")
    with pytest.raises(FileExistsOLFSError):
        fs.write_file("/a", b"2")
    fs.write_file("/a", b"2", overwrite=True)
    assert fs.read_file("/a") == b"2"


def test_read_missing_file():
    with pytest.raises(FileNotFoundOLFSError):
        small_fs().read_file("/ghost")


def test_write_through_file_as_directory_rejected():
    fs = small_fs()
    fs.write_file("/a", b"x")
    with pytest.raises(NotADirectoryOLFSError):
        fs.write_file("/a/b", b"y")


def test_read_directory_rejected():
    fs = small_fs()
    fs.makedirs("/d")
    with pytest.raises(IsADirectoryOLFSError):
        fs.read_file("/d")


def test_listdir_on_file_rejected():
    fs = small_fs()
    fs.write_file("/a", b"x")
    with pytest.raises(NotADirectoryOLFSError):
        fs.listdir("/a")


# ----------------------------------------------------------------------
# Block accounting (§4.5 worst case)
# ----------------------------------------------------------------------
def test_small_file_costs_two_blocks():
    """A <2KB file costs one entry block + one data block."""
    fs = small_fs()
    before = fs.used_blocks
    fs.write_file("/tiny", b"x")
    assert fs.used_blocks - before == 2


def test_worst_case_half_capacity():
    """§4.5: all-sub-2KB files can only fill half the volume with data."""
    fs = UDFFileSystem(20 * BLOCK_SIZE)
    written = 0
    for index in range(100):
        try:
            fs.write_file(f"/f{index:03d}", b"z" * BLOCK_SIZE)
            written += BLOCK_SIZE
        except NoSpaceOLFSError:
            break
    # one block is the root entry; of the rest, half hold data
    assert written <= fs.capacity // 2


def test_declared_size_counts_blocks():
    fs = small_fs()
    fs.write_file("/big", b"seed", logical_size=100 * BLOCK_SIZE)
    entry = fs.file_entry("/big")
    assert entry.size == 100 * BLOCK_SIZE
    assert entry.blocks == 101


def test_nospace_rejected_atomically():
    fs = UDFFileSystem(4 * BLOCK_SIZE)
    with pytest.raises(NoSpaceOLFSError):
        fs.write_file("/big", b"x" * (10 * BLOCK_SIZE))
    assert not fs.is_file("/big")


def test_fits_predicts_ancestor_cost():
    fs = UDFFileSystem(4 * BLOCK_SIZE)  # root + 3 free
    # /a/b/f needs 2 dirs + entry + data = 4 > 3
    assert not fs.fits("/a/b/f", 10)
    assert fs.fits("/f", 10)


# ----------------------------------------------------------------------
# Open vs closed volumes
# ----------------------------------------------------------------------
def test_closed_volume_rejects_writes():
    fs = small_fs()
    fs.write_file("/a", b"1")
    fs.close()
    with pytest.raises(ReadOnlyOLFSError):
        fs.write_file("/b", b"2")
    assert fs.read_file("/a") == b"1"  # reads still fine


# ----------------------------------------------------------------------
# Walk
# ----------------------------------------------------------------------
def test_walk_lists_all_entries():
    fs = small_fs()
    fs.write_file("/x/y/file1", b"1")
    fs.write_file("/x/file2", b"2")
    paths = [path for path, _ in fs.walk()]
    assert paths == ["/x", "/x/file2", "/x/y", "/x/y/file1"]


def test_file_paths_only_files():
    fs = small_fs()
    fs.write_file("/x/y/file1", b"1")
    fs.makedirs("/empty")
    assert fs.file_paths() == ["/x/y/file1"]


# ----------------------------------------------------------------------
# Disc image serialization
# ----------------------------------------------------------------------
def test_image_roundtrip_preserves_tree_and_content():
    fs = small_fs()
    fs.write_file("/archive/2026/records.csv", b"a,b,c\n1,2,3\n", mtime=5.0)
    fs.write_file("/archive/readme", b"hi", mtime=6.0)
    fs.makedirs("/archive/empty-dir")
    fs.close()
    image = DiscImage("img-0001", filesystem=fs)
    blob = image.serialize()
    restored = DiscImage.deserialize(blob)
    assert restored.image_id == "img-0001"
    assert restored.kind == "data"
    mounted = restored.mount()
    assert mounted.read_file("/archive/2026/records.csv") == b"a,b,c\n1,2,3\n"
    assert mounted.read_file("/archive/readme") == b"hi"
    assert mounted.listdir("/archive/empty-dir") == []
    assert mounted.read_only


def test_image_roundtrip_preserves_declared_size():
    fs = small_fs()
    fs.write_file("/big", b"seed", logical_size=50 * BLOCK_SIZE)
    fs.close()
    blob = DiscImage("img-2", filesystem=fs).serialize()
    mounted = DiscImage.deserialize(blob).mount()
    entry = mounted.file_entry("/big")
    assert entry.logical_size == 50 * BLOCK_SIZE
    assert entry.data == b"seed"


def test_parity_image_roundtrip():
    image = DiscImage("par-1", kind="parity", raw=b"\x12\x34" * 100)
    blob = image.serialize()
    restored = DiscImage.deserialize(blob)
    assert restored.kind == "parity"
    assert restored.raw == b"\x12\x34" * 100
    with pytest.raises(MediaError):
        restored.mount()


def test_parity_raw_is_a_view_of_the_serialized_bytes():
    payload = np.arange(4096, dtype=np.uint8)
    image = DiscImage("par-2", kind="parity", raw=payload, logical_size=9999)
    blob = image.serialize()
    assert image.serialize() is blob
    assert image.raw.obj is blob
    assert np.shares_memory(np.frombuffer(image.raw, np.uint8),
                            np.frombuffer(blob, np.uint8))
    assert image.raw == payload.tobytes()
    assert image.logical_size == 9999
    header = DiscImage.peek_header(blob)
    assert (header["payload_length"], header["logical_size"]) == (4096, 9999)
    assert blob.endswith(payload.tobytes())

    restored = DiscImage.deserialize(blob)
    assert restored.raw.obj is blob
    assert restored.serialize() is blob
    # bytes past the payload are not part of the image
    trailing = DiscImage.deserialize(blob + b"junk")
    assert trailing.serialize() == blob
    assert trailing.raw == payload.tobytes()


def test_peek_header_without_full_parse():
    fs = small_fs()
    fs.write_file("/f", b"data")
    blob = DiscImage("img-7", filesystem=fs).serialize()
    header = DiscImage.peek_header(blob)
    assert header["image_id"] == "img-7"
    assert header["kind"] == "data"


def test_bad_magic_rejected():
    with pytest.raises(MediaError):
        DiscImage.deserialize(b"GARBAGE-VOLUME")


def test_logical_size_tracks_fs_usage():
    fs = small_fs()
    fs.write_file("/f", b"x" * (3 * BLOCK_SIZE))
    image = DiscImage("img", filesystem=fs)
    assert image.logical_size == fs.used_bytes


@settings(max_examples=40, deadline=None)
@given(
    files=st.dictionaries(
        st.text(
            alphabet="abcdefghij",
            min_size=1,
            max_size=8,
        ),
        st.binary(min_size=0, max_size=4096),
        min_size=1,
        max_size=10,
    )
)
def test_property_serialize_roundtrip(files):
    """Any tree of files survives serialize -> deserialize unchanged."""
    fs = UDFFileSystem(10_000 * BLOCK_SIZE)
    for name, data in files.items():
        fs.write_file(f"/dir-{name}/{name}.bin", data)
    restored = DiscImage.deserialize(
        DiscImage("x", filesystem=fs).serialize()
    ).mount()
    for name, data in files.items():
        assert restored.read_file(f"/dir-{name}/{name}.bin") == data
    assert restored.used_blocks == fs.used_blocks


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=8 * BLOCK_SIZE),
        min_size=1,
        max_size=20,
    )
)
def test_property_block_accounting_invariant(sizes):
    """used_blocks always equals 1 (root) + sum of entry block costs."""
    fs = UDFFileSystem(10_000 * BLOCK_SIZE)
    expected = 1
    for index, size in enumerate(sizes):
        fs.write_file(f"/f{index}", b"b" * size)
        expected += 1 + -(-size // BLOCK_SIZE)
    assert fs.used_blocks == expected
