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
from typing import Generator

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


class _IndexNode:
    """A stored index file: its parsed record and the encoded length
    every charge carries."""

    __slots__ = ("parsed", "size")

    def __init__(self, parsed: IndexFile):
        self.parsed = parsed
        self.size = parsed.serialized_size()

    def index(self) -> IndexFile:
        return self.parsed.copy()

    def encoded(self) -> str:
        """The index file's bytes as a snapshot entry carries them."""
        return self.parsed.serialize().decode()


class MetadataVolume:
    """The MV: timed index-file store plus system-state checkpoints."""

    def __init__(self, engine: Engine, volume: Volume):
        self.engine = engine
        self.volume = volume
        #: a directory is its children dict; a file is an _IndexNode
        self._root: dict = {}
        self._state: dict[str, dict] = {}
        self.lookups = 0
        self.updates = 0

    # ------------------------------------------------------------------
    # Tree plumbing (untimed)
    # ------------------------------------------------------------------
    def _walk_to(self, parts: list[str], create_dirs: bool = False) -> dict:
        node = self._root
        for part in parts:
            child = node.get(part)
            if child is None:
                if not create_dirs:
                    raise FileNotFoundOLFSError(f"missing directory {part!r}")
                child = node[part] = {}
            if not isinstance(child, dict):
                raise NotADirectoryOLFSError(f"{part!r} is an index file")
            node = child
        return node

    def _find(self, path: str):
        parts = split_path(path)
        if not parts:
            return self._root
        parent = self._walk_to(parts[:-1])
        if parts[-1] not in parent:
            raise FileNotFoundOLFSError(f"{path!r}: not in MV")
        return parent[parts[-1]]

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
            return isinstance(self._find(path), dict)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return False

    def lookup_index(self, path: str) -> Generator:
        """Timed read of an index file (a private copy); raises if absent."""
        node = self._find(path)  # untimed check first: miss costs too
        if isinstance(node, dict):
            raise FileNotFoundOLFSError(f"{path!r} is a directory in MV")
        yield from self._charge_lookup(node.size)
        return node.index()

    def write_index(self, path: str, index: IndexFile) -> Generator:
        """Create or update an index file, creating ancestor directories."""
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot index the root")
        parent = self._walk_to(parts[:-1], create_dirs=True)
        if isinstance(parent.get(parts[-1]), dict):
            raise FileExistsOLFSError(f"{path!r} is a directory in MV")
        node = parent[parts[-1]] = _IndexNode(index.copy())
        yield from self._charge_update(node.size)

    def make_dir(self, path: str) -> Generator:
        self._walk_to(split_path(path), create_dirs=True)
        yield from self._charge_update(0)

    def remove_index(self, path: str) -> Generator:
        parts = split_path(path)
        if not parts:
            raise IsADirectoryOLFSError("cannot unlink the root")
        parent = self._walk_to(parts[:-1])
        if parts[-1] not in parent:
            raise FileNotFoundOLFSError(f"{path!r}: not in MV")
        if isinstance(parent[parts[-1]], dict):
            # unlink(2): a directory is not unlinked, and dropping it would
            # silently drop every file under it
            raise IsADirectoryOLFSError(f"{path!r} is a directory in MV")
        del parent[parts[-1]]
        yield from self._charge_update(0)

    def listdir(self, path: str) -> Generator:
        node = self._root if path == "/" else self._find(path)
        if not isinstance(node, dict):
            raise NotADirectoryOLFSError(f"{path!r} is an index file")
        yield from self._charge_lookup(0)
        return sorted(node)

    def entry_kind(self, path: str) -> Generator:
        """'dir', 'file', or None — one lookup charge."""
        yield from self._charge_lookup(0)
        try:
            node = self._find(path)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return None
        return "dir" if isinstance(node, dict) else "file"

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

        def recurse(prefix: str, directory: dict):
            for name in sorted(directory):
                child = directory[name]
                path = f"{prefix}/{name}"
                if isinstance(child, dict):
                    recurse(path, child)
                else:
                    paths.append(path)

        recurse("", self._root)
        return paths

    def peek_index(self, path: str) -> IndexFile:
        """Untimed index read (recovery verification, tests)."""
        node = self._find(path)
        if isinstance(node, dict):
            raise FileNotFoundOLFSError(f"{path!r} is a directory in MV")
        return node.index()

    def stored_index(self, path: str):
        """The stored index file itself (not a copy), untimed, or None."""
        try:
            node = self._find(path)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return None
        return None if isinstance(node, dict) else node.parsed

    def used_bytes(self) -> int:
        """MV footprint with 1 KB blocks + 128 B inodes (§4.2 sizing)."""
        total = 0

        def recurse(directory: dict):
            nonlocal total
            total += MV_INODE_SIZE + MV_BLOCK_SIZE  # dir inode + block
            for child in directory.values():
                if isinstance(child, dict):
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

        def recurse(prefix: str, directory: dict):
            for name in sorted(directory):
                child = directory[name]
                path = f"{prefix}/{name}"
                if isinstance(child, dict):
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
        self._root = {}
        self._state = snapshot["state"]
        for entry in snapshot["entries"]:
            parts = split_path(entry["path"])
            parent = self._walk_to(parts[:-1], create_dirs=True)
            if entry["type"] == "dir":
                parent.setdefault(parts[-1], {})
            else:
                parent[parts[-1]] = _IndexNode(
                    IndexFile.deserialize(entry["blob"].encode())
                )

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
