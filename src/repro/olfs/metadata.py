"""The Metadata Volume (MV): the global namespace's fast, small home (§4.2).

MV is an ext4 file system on a RAID-1 SSD pair holding, for every entry of
the global namespace, an index file at the same path.  Data and metadata
storage are physically decoupled: MV answers every namespace operation at
SSD latency while file bytes live in buckets/images/discs.

The implementation keeps a real directory tree of parsed
:class:`~repro.olfs.index.IndexFile` records, charges every operation
against the MV volume's bandwidth/latency (plus the calibrated ext4
direct-I/O constant) by each record's encoded length, tracks 1 KB-block/
128 B-inode usage for the §4.2 sizing claim, and encodes the records
again only to serialize a snapshot for the periodic burn-to-disc
checkpoints.
"""

from __future__ import annotations

import json
from typing import Generator, Optional

from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    InvalidPathError,
    IsADirectoryOLFSError,
    NotADirectoryOLFSError,
)
from repro.olfs.config import MV_LOOKUP_SECONDS, MV_UPDATE_SECONDS
from repro.olfs.index import IndexFile
from repro.sim.engine import Delay, Engine
from repro.storage.volume import Volume
from repro.udf.filesystem import split_path

#: MV formatting choices (§4.2): 1 KB blocks, 128 B inodes.
MV_BLOCK_SIZE = 1024
MV_INODE_SIZE = 128


class _Dir:
    __slots__ = ("children", "mtime")

    def __init__(self):
        self.children: dict[str, object] = {}
        self.mtime = 0.0


class _IndexNode:
    """A stored index file, held in one form: the writer's parsed record
    (``parsed``), or a checkpoint's ``blob`` until the first read parses
    it.  ``size`` is the encoded length every charge carries."""

    __slots__ = ("blob", "mtime", "parsed", "size")

    def __init__(self, blob=None, parsed=None, mtime: float = 0.0):
        self.blob = blob
        self.parsed = parsed
        self.mtime = mtime
        self.size = len(blob) if parsed is None else parsed.serialized_size()

    def index(self) -> IndexFile:
        if self.parsed is None:
            self.parsed = IndexFile.deserialize(self.blob)
            self.blob = None
        return self.parsed.copy()

    def encoded(self) -> str:
        """The index file's bytes as a checkpoint entry carries them."""
        blob = self.blob if self.parsed is None else self.parsed.serialize()
        return blob.decode()


class MetadataVolume:
    """The MV: timed index-file store plus system-state checkpoints."""

    def __init__(self, engine: Engine, volume: Volume):
        self.engine = engine
        self.volume = volume
        self._root = _Dir()
        self._state: dict[str, dict] = {}
        self.lookups = 0
        self.updates = 0
        # Change tracking for incremental checkpoints (§4.2 extension):
        # paths touched / removed since the last checkpoint cleared them.
        self._dirty: set[str] = set()
        self._deleted: set[str] = set()

    # ------------------------------------------------------------------
    # Tree plumbing (untimed)
    # ------------------------------------------------------------------
    def _walk_to(self, parts: list[str], create_dirs: bool = False) -> _Dir:
        node = self._root
        for depth, part in enumerate(parts, 1):
            child = node.children.get(part)
            if child is None:
                if not create_dirs:
                    raise FileNotFoundOLFSError(f"missing directory {part!r}")
                child = _Dir()
                node.children[part] = child
                # the next delta carries it, even once its files are gone
                self._dirty.add("/" + "/".join(parts[:depth]))
            if not isinstance(child, _Dir):
                raise NotADirectoryOLFSError(f"{part!r} is an index file")
            node = child
        return node

    def _find(self, path: str):
        parts = split_path(path)
        if not parts:
            return self._root
        parent = self._walk_to(parts[:-1])
        if parts[-1] not in parent.children:
            raise FileNotFoundOLFSError(f"{path!r}: not in MV")
        return parent.children[parts[-1]]

    # ------------------------------------------------------------------
    # Timed namespace operations
    # ------------------------------------------------------------------
    def exists(self, path: str) -> Generator:
        yield from self._charge_lookup(0)
        try:
            self._find(path)
            return True
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return False

    def is_dir(self, path: str) -> Generator:
        yield from self._charge_lookup(0)
        try:
            return isinstance(self._find(path), _Dir)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return False

    def lookup_index(self, path: str) -> Generator:
        """Timed read of an index file (a private copy); raises if absent."""
        node = self._find(path)  # untimed check first: miss costs too
        if isinstance(node, _Dir):
            raise FileNotFoundOLFSError(f"{path!r} is a directory in MV")
        yield from self._charge_lookup(node.size)
        return node.index()

    def write_index(
        self, path: str, index: IndexFile, mtime: float = 0.0
    ) -> Generator:
        """Create or update an index file, creating ancestor directories."""
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot index the root")
        parent = self._walk_to(parts[:-1], create_dirs=True)
        existing = parent.children.get(parts[-1])
        if isinstance(existing, _Dir):
            raise FileExistsOLFSError(f"{path!r} is a directory in MV")
        node = _IndexNode(parsed=index.copy(), mtime=mtime)
        parent.children[parts[-1]] = node
        self._dirty.add(path)
        self._deleted.discard(path)
        yield from self._charge_update(node.size)

    def make_dir(self, path: str, mtime: float = 0.0) -> Generator:
        parts = split_path(path)
        self._walk_to(parts, create_dirs=True).mtime = mtime
        self._dirty.add(path)
        self._deleted.discard(path)
        yield from self._charge_update(0)

    def remove_index(self, path: str) -> Generator:
        parts = split_path(path)
        parent = self._walk_to(parts[:-1])
        if parts[-1] not in parent.children:
            raise FileNotFoundOLFSError(f"{path!r}: not in MV")
        if isinstance(parent.children[parts[-1]], _Dir):
            # unlink(2): a directory is not unlinked, and dropping it would
            # drop its files without recording them in the next delta
            raise IsADirectoryOLFSError(f"{path!r} is a directory in MV")
        del parent.children[parts[-1]]
        self._dirty.discard(path)
        self._deleted.add(path)
        yield from self._charge_update(0)

    def listdir(self, path: str) -> Generator:
        node = self._root if path == "/" else self._find(path)
        if not isinstance(node, _Dir):
            raise NotADirectoryOLFSError(f"{path!r} is an index file")
        yield from self._charge_lookup(0)
        return sorted(node.children)

    def entry_kind(self, path: str) -> Generator:
        """'dir', 'file', or None — one lookup charge."""
        yield from self._charge_lookup(0)
        try:
            node = self._find(path)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return None
        return "dir" if isinstance(node, _Dir) else "file"

    # ------------------------------------------------------------------
    # System state (§4.2: running state + checkpoints live in MV)
    # ------------------------------------------------------------------
    def save_state(self, key: str, state: dict) -> Generator:
        blob = json.dumps(state, sort_keys=True).encode()
        self._state[key] = state
        yield from self._charge_update(len(blob))

    def load_state(self, key: str) -> Generator:
        yield from self._charge_lookup(256)
        return self._state.get(key)

    # ------------------------------------------------------------------
    # Untimed iteration / accounting
    # ------------------------------------------------------------------
    def all_index_paths(self) -> list[str]:
        paths: list[str] = []

        def recurse(prefix: str, directory: _Dir):
            for name in sorted(directory.children):
                child = directory.children[name]
                path = f"{prefix}/{name}"
                if isinstance(child, _Dir):
                    recurse(path, child)
                else:
                    paths.append(path)

        recurse("", self._root)
        return paths

    def peek_index(self, path: str) -> IndexFile:
        """Untimed index read (recovery verification, tests)."""
        node = self._find(path)
        if isinstance(node, _Dir):
            raise FileNotFoundOLFSError(f"{path!r} is a directory in MV")
        return node.index()

    def used_bytes(self) -> int:
        """MV footprint with 1 KB blocks + 128 B inodes (§4.2 sizing)."""
        total = 0

        def recurse(directory: _Dir):
            nonlocal total
            total += MV_INODE_SIZE + MV_BLOCK_SIZE  # dir inode + block
            for child in directory.children.values():
                if isinstance(child, _Dir):
                    recurse(child)
                else:
                    blocks = -(-child.size // MV_BLOCK_SIZE)
                    total += MV_INODE_SIZE + blocks * MV_BLOCK_SIZE

        recurse(self._root)
        return total

    # ------------------------------------------------------------------
    # Snapshots (burned to discs periodically, §4.2)
    # ------------------------------------------------------------------
    def serialize_snapshot(self) -> bytes:
        entries = []

        def recurse(prefix: str, directory: _Dir):
            for name in sorted(directory.children):
                child = directory.children[name]
                path = f"{prefix}/{name}"
                if isinstance(child, _Dir):
                    entries.append({"path": path, "type": "dir"})
                    recurse(path, child)
                else:
                    entries.append(
                        {"path": path, "type": "index", "blob": child.encoded()}
                    )

        recurse("", self._root)
        return json.dumps(
            {"state": self._state, "entries": entries}, sort_keys=True
        ).encode()

    def load_snapshot(self, blob: bytes) -> None:
        snapshot = json.loads(blob)
        self._root = _Dir()
        self._state = snapshot["state"]
        for entry in snapshot["entries"]:
            parts = split_path(entry["path"])
            parent = self._walk_to(parts[:-1], create_dirs=True)
            if entry["type"] == "dir":
                if parts[-1] not in parent.children:
                    parent.children[parts[-1]] = _Dir()
            else:
                parent.children[parts[-1]] = _IndexNode(entry["blob"].encode())

    # ------------------------------------------------------------------
    # Incremental checkpoints (§4.2 extension)
    # ------------------------------------------------------------------
    def collect_delta(self) -> bytes:
        """Serialize only the entries changed since the last checkpoint."""
        entries = []
        for path in sorted(self._dirty):
            try:
                node = self._find(path)
            except (FileNotFoundOLFSError, NotADirectoryOLFSError):
                continue  # vanished since dirtied
            if isinstance(node, _Dir):
                entries.append({"path": path, "type": "dir"})
            else:
                entries.append(
                    {"path": path, "type": "index", "blob": node.encoded()}
                )
        return json.dumps(
            {
                "state": self._state,
                "entries": entries,
                "deleted": sorted(self._deleted),
            },
            sort_keys=True,
        ).encode()

    def apply_delta(self, blob: bytes) -> None:
        """Replay a delta over the current tree (after the base load)."""
        delta = json.loads(blob)
        self._state = delta.get("state", self._state)
        for path in delta.get("deleted", []):
            parts = split_path(path)
            try:
                parent = self._walk_to(parts[:-1])
            except (FileNotFoundOLFSError, NotADirectoryOLFSError):
                continue  # parent already gone: nothing to delete
            parent.children.pop(parts[-1], None)
        for entry in delta["entries"]:
            parts = split_path(entry["path"])
            parent = self._walk_to(parts[:-1], create_dirs=True)
            if entry["type"] == "dir":
                # may replace an index file (make_dir unlists its removal)
                if not isinstance(parent.children.get(parts[-1]), _Dir):
                    parent.children[parts[-1]] = _Dir()
            else:
                parent.children[parts[-1]] = _IndexNode(entry["blob"].encode())

    def clear_change_tracking(self) -> None:
        """Called after a checkpoint burns successfully."""
        self._dirty.clear()
        self._deleted.clear()

    @property
    def pending_changes(self) -> int:
        return len(self._dirty) + len(self._deleted)

    # ------------------------------------------------------------------
    def _charge_lookup(self, nbytes: int) -> Generator:
        with self.engine.trace.span("mv.lookup", "mv"):
            self.lookups += 1
            yield Delay(MV_LOOKUP_SECONDS)
            yield from self.volume.read(max(nbytes, 256))

    def _charge_update(self, nbytes: int) -> Generator:
        with self.engine.trace.span("mv.update", "mv"):
            self.updates += 1
            yield Delay(MV_UPDATE_SECONDS)
            yield from self.volume.write(max(nbytes, 256))
