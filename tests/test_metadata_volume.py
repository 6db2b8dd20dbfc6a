"""Direct tests for the Metadata Volume (§4.2)."""

import base64
import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    FilesystemError,
    IsADirectoryOLFSError,
    NotADirectoryOLFSError,
)
from repro.olfs.index import IndexFile, VersionEntry
from repro.olfs.metadata import MV_BLOCK_SIZE, MV_INODE_SIZE, MetadataVolume
from repro.sim import Engine
from repro.storage.volume import Volume


@pytest.fixture
def mv():
    engine = Engine()
    volume = Volume(
        engine,
        "mv",
        read_throughput=900 * units.MB,
        write_throughput=450 * units.MB,
        capacity=units.GB,
        access_latency=0.0001,
    )
    return engine, MetadataVolume(engine, volume)


def make_index(path, image="img-1"):
    index = IndexFile(path)
    index.add_version(
        VersionEntry(version=1, size=10, mtime=0.0, locations=[image])
    )
    return index


def test_write_and_lookup(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/a/b/file", make_index("/a/b/file")))
    index = engine.run_process(volume.lookup_index("/a/b/file"))
    assert index.current.locations == ["img-1"]


def test_lookup_missing_raises(mv):
    engine, volume = mv
    with pytest.raises(FileNotFoundOLFSError):
        engine.run_process(volume.lookup_index("/nope"))


def test_ancestor_directories_created(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/x/y/z/f", make_index("/x/y/z/f")))
    assert engine.run_process(volume.is_dir("/x/y"))
    assert engine.run_process(volume.listdir("/x/y")) == ["z"]


def test_index_cannot_shadow_directory(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/d/f", make_index("/d/f")))
    with pytest.raises(FileExistsOLFSError):
        engine.run_process(volume.write_index("/d", make_index("/d")))


def test_listdir_of_index_rejected(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/f", make_index("/f")))
    with pytest.raises(NotADirectoryOLFSError):
        engine.run_process(volume.listdir("/f"))


def test_remove_index(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/f", make_index("/f")))
    engine.run_process(volume.remove_index("/f"))
    assert not engine.run_process(volume.exists("/f"))
    with pytest.raises(FileNotFoundOLFSError):
        engine.run_process(volume.remove_index("/f"))


def test_entry_kind(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/dir/f", make_index("/dir/f")))
    assert engine.run_process(volume.entry_kind("/dir")) == "dir"
    assert engine.run_process(volume.entry_kind("/dir/f")) == "file"
    assert engine.run_process(volume.entry_kind("/missing")) is None


def test_operations_are_timed(mv):
    engine, volume = mv
    start = engine.now
    engine.run_process(volume.write_index("/f", make_index("/f")))
    assert engine.now > start
    assert volume.updates == 1
    engine.run_process(volume.lookup_index("/f"))
    assert volume.lookups >= 1


def test_used_bytes_accounting(mv):
    engine, volume = mv
    empty = volume.used_bytes()
    engine.run_process(volume.write_index("/a/f1", make_index("/a/f1")))
    one = volume.used_bytes()
    # one new dir + one index file
    assert one - empty == 2 * MV_INODE_SIZE + 2 * MV_BLOCK_SIZE
    engine.run_process(volume.write_index("/a/f2", make_index("/a/f2")))
    two = volume.used_bytes()
    assert two - one == MV_INODE_SIZE + MV_BLOCK_SIZE


def test_snapshot_roundtrip_preserves_everything(mv):
    engine, volume = mv
    engine.run_process(volume.write_index("/p/q/f", make_index("/p/q/f")))
    engine.run_process(volume.make_dir("/empty"))
    engine.run_process(volume.save_state("ctrl", {"epoch": 3}))
    snapshot = volume.serialize_snapshot()

    engine2 = Engine()
    target = MetadataVolume(
        engine2,
        Volume(
            engine2,
            "mv2",
            read_throughput=1e9,
            write_throughput=1e9,
            capacity=units.GB,
            access_latency=0.0,
        ),
    )
    target.load_snapshot(snapshot)
    assert target.all_index_paths() == ["/p/q/f"]
    assert target.peek_index("/p/q/f").current.locations == ["img-1"]
    assert engine2.run_process(target.is_dir("/empty"))
    assert engine2.run_process(target.load_state("ctrl")) == {"epoch": 3}


def test_all_index_paths_sorted_depth_first(mv):
    engine, volume = mv
    for path in ("/b/2", "/a/1", "/a/0", "/c"):
        engine.run_process(volume.write_index(path, make_index(path)))
    assert volume.all_index_paths() == ["/a/0", "/a/1", "/b/2", "/c"]


# ----------------------------------------------------------------------
# Index encoding: one splice instead of the encoder scanning the forepart
# ----------------------------------------------------------------------
def reference_serialize(index):
    """The encoding every stored index file has: the whole record through
    ``json.dumps(..., sort_keys=True)``."""
    record = {
        "path": index.path,
        "max_versions": index.max_versions,
        "entries": [entry.to_json() for entry in index.entries],
    }
    if index.forepart is not None:
        record["forepart"] = base64.b64encode(index.forepart).decode()
    return json.dumps(record, sort_keys=True).encode()


awkward_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", " ", "/"]),
        st.characters(blacklist_categories=()),
    ),
    max_size=24,
)

version_entries = st.builds(
    lambda version, size, mtime, parts: VersionEntry(
        version=version,
        size=size,
        mtime=mtime,
        locations=[name for name, _ in parts],
        subfile_sizes=[part for _, part in parts],
    ),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
    st.floats(allow_nan=False),
    st.lists(
        st.tuples(awkward_text, st.integers(min_value=0, max_value=2**31)),
        min_size=1,
        max_size=4,
    ),
)

foreparts = st.one_of(
    st.none(),
    st.just(b""),
    st.binary(max_size=64),
    st.builds(
        lambda seed, size: random.Random(seed).randbytes(size),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=256 * 1024),
    ),
)


def index_of(path, max_versions, entries, forepart):
    index = IndexFile(path, max_versions)
    index.entries = list(entries)
    index.forepart = forepart
    return index


@settings(max_examples=120, deadline=None)
@given(
    path=awkward_text,
    max_versions=st.integers(min_value=1, max_value=20),
    entries=st.lists(version_entries, max_size=15),
    forepart=foreparts,
)
def test_serialize_is_byte_equal_to_json_dumps(
    path, max_versions, entries, forepart
):
    index = index_of(path, max_versions, entries, forepart)
    blob = index.serialize()
    assert blob == reference_serialize(index)
    back = IndexFile.deserialize(blob)
    assert (back.path, back.max_versions, back.entries, back.forepart) == (
        path, max_versions, entries, forepart,
    )


# ----------------------------------------------------------------------
# The parsed form is derived state: copies out, copies in
# ----------------------------------------------------------------------
def charged(volume):
    """Record the byte count of every MV volume read and write."""
    log = []
    for name in ("read", "write"):
        original = getattr(volume.volume, name)

        def spy(nbytes, _original=original, _name=name):
            log.append((_name, nbytes))
            return _original(nbytes)

        setattr(volume.volume, name, spy)
    return log


def fields(index):
    return (index.path, index.max_versions, list(index.entries),
            index.forepart)


def test_lookups_hand_out_copies(mv):
    engine, volume = mv
    stored = make_index("/iso/f")
    stored.forepart = b"head"
    engine.run_process(volume.write_index("/iso/f", stored))
    blob = stored.serialize()
    first = engine.run_process(volume.lookup_index("/iso/f"))
    first.add_version(
        VersionEntry(version=2, size=1, mtime=1.0, locations=["img-2"])
    )
    first.entries[0] = VersionEntry(
        version=9, size=9, mtime=9.0, locations=["img-9"]
    )
    first.forepart = b"other"
    again = engine.run_process(volume.lookup_index("/iso/f"))
    assert again.serialize() == blob
    peeked = volume.peek_index("/iso/f")
    peeked.entries.clear()
    assert volume.peek_index("/iso/f").serialize() == blob


def test_writer_edits_after_write_index_do_not_leak(mv):
    engine, volume = mv
    index = make_index("/iso/g")
    engine.run_process(volume.write_index("/iso/g", index))
    blob = index.serialize()
    index.add_version(
        VersionEntry(version=2, size=1, mtime=1.0, locations=["img-2"])
    )
    index.entries[0] = VersionEntry(
        version=7, size=7, mtime=7.0, locations=["img-7"]
    )
    index.forepart = b"late"
    assert engine.run_process(volume.lookup_index("/iso/g")).serialize() \
        == blob


def test_loaded_trees_are_parsed_from_their_blobs(mv):
    engine, volume = mv
    for path in ("/s/a", "/s/b"):
        index = make_index(path)
        index.forepart = path.encode() * 100
        engine.run_process(volume.write_index(path, index))
    snapshot = volume.serialize_snapshot()
    changed = make_index("/s/b", image="img-2")
    engine.run_process(volume.write_index("/s/b", changed))
    engine.run_process(volume.write_index("/s/c", make_index("/s/c")))
    engine.run_process(volume.remove_index("/s/a"))

    volume.load_snapshot(snapshot)
    blobs = {
        entry["path"]: entry["blob"].encode()
        for entry in json.loads(snapshot)["entries"]
        if entry["type"] == "index"
    }
    assert volume.all_index_paths() == sorted(blobs) == ["/s/a", "/s/b"]
    for path, blob in blobs.items():
        expected = fields(IndexFile.deserialize(blob))
        assert fields(volume.peek_index(path)) == expected
        assert fields(engine.run_process(volume.lookup_index(path))) \
            == expected
        assert volume._find(path).size == len(blob)
    assert volume.peek_index("/s/b").current.locations == ["img-1"]


def test_charges_carry_the_encoded_size(mv):
    engine, volume = mv
    small = make_index("/c/small")
    large = make_index("/c/large")
    large.forepart = bytes(range(256)) * 1024
    log = charged(volume)
    for index in (small, large):
        engine.run_process(volume.write_index(index.path, index))
        engine.run_process(volume.lookup_index(index.path))
    sizes = [max(len(reference_serialize(index)), 256)
             for index in (small, large)]
    assert log == [
        ("write", sizes[0]), ("read", sizes[0]),
        ("write", sizes[1]), ("read", sizes[1]),
    ]


def test_version_entries_are_frozen():
    entry = VersionEntry(version=1, size=10, mtime=0.0, locations=["img-1"])
    assert entry.subfile_sizes == [10]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.locations = ["img-2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.size = 11


# ----------------------------------------------------------------------
# Differential: parsed records against blob-as-truth
# ----------------------------------------------------------------------
class BlobReference:
    """The MV as it was when each index file was kept as its encoded
    blob, flattened to path sets: what every checkpoint, footprint and
    charge must still come out as."""

    def __init__(self):
        self.files: dict[str, bytes] = {}
        self.dirs: set[str] = set()
        self.state: dict = {}
        self.charges: list[tuple[str, int]] = []

    @staticmethod
    def parts(path):
        return [part for part in path.split("/") if part]

    def walk(self, parts, create=False):
        """The MV's ``_walk_to``: the same error at the same ancestor."""
        for depth in range(1, len(parts) + 1):
            prefix = "/" + "/".join(parts[:depth])
            if prefix in self.files:
                raise NotADirectoryOLFSError(prefix)
            if prefix not in self.dirs:
                if not create:
                    raise FileNotFoundOLFSError(prefix)
                self.dirs.add(prefix)

    def find(self, path):
        """'dir' or 'file'; raises as ``_find`` does."""
        self.walk(self.parts(path)[:-1])
        if path in self.dirs:
            return "dir"
        if path in self.files:
            return "file"
        raise FileNotFoundOLFSError(path)

    # -- the operations ------------------------------------------------
    def write_index(self, path, index):
        self.walk(self.parts(path)[:-1], create=True)
        if path in self.dirs:
            raise FileExistsOLFSError(path)
        blob = reference_serialize(index)
        self.files[path] = blob
        self.charges.append(("write", max(len(blob), 256)))

    def make_dir(self, path):
        self.walk(self.parts(path), create=True)
        self.charges.append(("write", 256))

    def remove_index(self, path):
        if self.find(path) == "dir":
            raise IsADirectoryOLFSError(path)
        del self.files[path]
        self.charges.append(("write", 256))

    def lookup_index(self, path):
        if self.find(path) == "dir":
            raise FileNotFoundOLFSError(path)
        blob = self.files[path]
        self.charges.append(("read", max(len(blob), 256)))
        return blob

    def entry(self, path):
        if path in self.dirs:
            return {"path": path, "type": "dir"}
        return {"path": path, "type": "index",
                "blob": self.files[path].decode()}

    def serialize_snapshot(self):
        paths = sorted(self.dirs | set(self.files), key=self.parts)
        return json.dumps(
            {"state": self.state, "entries": list(map(self.entry, paths))},
            sort_keys=True,
        ).encode()

    def load_snapshot(self, blob):
        snapshot = json.loads(blob)
        self.files, self.dirs = {}, set()
        self.state = snapshot["state"]
        for entry in snapshot["entries"]:
            path = entry["path"]
            self.walk(self.parts(path)[:-1], create=True)
            if entry["type"] == "dir":
                if path not in self.files:
                    self.dirs.add(path)
            else:
                self.files[path] = entry["blob"].encode()

    def used_bytes(self):
        blocks = sum(-(-len(blob) // MV_BLOCK_SIZE)
                     for blob in self.files.values())
        return ((1 + len(self.dirs)) * (MV_INODE_SIZE + MV_BLOCK_SIZE)
                + len(self.files) * MV_INODE_SIZE + blocks * MV_BLOCK_SIZE)


#: /a, /b, /a/a, ... /b/b/b: few enough that ops collide
mv_paths = st.sampled_from([
    "/" + "/".join(parts)
    for depth in (1, 2, 3) for parts in itertools.product("ab", repeat=depth)
])

#: None, or 0, 1, 2, ... bytes up to beyond the 256 KiB forepart
forepart_sizes = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=300 * 1024),
)

mv_indexes = st.builds(
    lambda path, max_versions, entries, size: index_of(
        path, max_versions, entries,
        None if size is None else random.Random(size).randbytes(size),
    ),
    st.sampled_from(["/f", 'q"\\', "\u00e9\n"]),
    st.integers(min_value=1, max_value=20),
    st.lists(version_entries, max_size=2),
    forepart_sizes,
)

#: op -> weight; a ``restore`` loads any earlier checkpoint's snapshot
MV_OPS = (["write_index"] * 4 + ["lookup_index"] * 3
          + ["make_dir", "remove_index", "checkpoint", "checkpoint",
             "restore"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parsed_records_match_blob_truth(data):
    engine = Engine()
    volume = MetadataVolume(engine, Volume(
        engine, "mv", read_throughput=units.GB, write_throughput=units.GB,
        capacity=units.GB, access_latency=0.0,
    ))
    reference = BlobReference()
    log = charged(volume)
    snapshots = [volume.serialize_snapshot()]
    for _ in range(data.draw(st.integers(0, 30), label="ops")):
        op = data.draw(st.sampled_from(MV_OPS), label="op")
        if op == "checkpoint":
            snapshots.append(volume.serialize_snapshot())
            # recovery: every checkpoint's snapshot loads back to its own
            # bytes and footprint, also once every record is read
            for snapshot in snapshots:
                restored = MetadataVolume(engine, volume.volume)
                restored.load_snapshot(snapshot)
                for path in restored.all_index_paths():
                    restored.peek_index(path)
                assert restored.serialize_snapshot() == snapshot
                loaded = BlobReference()
                loaded.load_snapshot(snapshot)
                assert restored.used_bytes() == loaded.used_bytes()
            continue
        if op == "restore":
            base = data.draw(st.integers(0, len(snapshots) - 1), label="base")
            op, args = "load_snapshot", [snapshots[base]]
        elif op == "write_index":
            args = [data.draw(mv_paths, label="path"),
                    data.draw(mv_indexes, label="index")]
        elif reference.files and data.draw(st.booleans(), label="a file"):
            files = st.sampled_from(sorted(reference.files))
            args = [data.draw(files, label="path")]
        else:
            args = [data.draw(mv_paths, label="path")]
        try:
            expected = getattr(reference, op)(*args)
        except FilesystemError as error:
            with pytest.raises(type(error)):
                result = getattr(volume, op)(*args)
                if op != "load_snapshot":
                    engine.run_process(result)
        else:
            result = getattr(volume, op)(*args)
            if op != "load_snapshot":
                result = engine.run_process(result)
            if op == "lookup_index":
                assert result.serialize() == expected
            elif op == "write_index":
                path, index = args
                assert index.serialized_size() == len(index.serialize())
                assert volume._find(path).size == len(reference.files[path])
        assert log == reference.charges
        assert volume.used_bytes() == reference.used_bytes()
        assert volume.serialize_snapshot() == reference.serialize_snapshot()
