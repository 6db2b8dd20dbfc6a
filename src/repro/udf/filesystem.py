"""The in-memory UDF volume: a block-accounted directory tree.

Paths are absolute, slash-separated, rooted at ``/``.  The volume tracks
every entry's block consumption against a fixed capacity; an *open* volume
(a bucket) accepts writes and in-place updates, a *closed* volume (a disc
image) is read-only — matching the bucket -> image life cycle of §4.3.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import (
    FileExistsOLFSError,
    FileNotFoundOLFSError,
    InvalidPathError,
    IsADirectoryOLFSError,
    NoSpaceOLFSError,
    NotADirectoryOLFSError,
    ReadOnlyOLFSError,
)
from repro.udf.constants import BLOCK_SIZE, ENTRY_BLOCKS
from repro.udf.entry import DirectoryEntry, FileEntry, blocks_for_data


def split_path(path: str) -> list[str]:
    """Validate and split an absolute path into components."""
    if not path or not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute: {path!r}")
    parts = [part for part in path.split("/") if part]
    for part in parts:
        if part in (".", ".."):
            raise InvalidPathError(f"relative component in {path!r}")
    return parts


class UDFFileSystem:
    """One UDF volume: 2 KB blocks, capacity-bounded, open or closed."""

    def __init__(self, capacity: int, label: str = ""):
        if capacity < BLOCK_SIZE:
            raise ValueError(f"capacity {capacity} below one block")
        self.capacity = int(capacity)
        self.label = label
        self.root = DirectoryEntry(name="/")
        self.read_only = False
        self._used_blocks = ENTRY_BLOCKS  # the root directory entry

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self.capacity // BLOCK_SIZE

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def used_bytes(self) -> int:
        return self._used_blocks * BLOCK_SIZE

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def free_bytes(self) -> int:
        return self.free_blocks * BLOCK_SIZE

    def blocks_needed_for(self, path: str, nbytes: int) -> int:
        """Blocks a new file of ``nbytes`` at ``path`` would consume,
        including any ancestor directories that do not exist yet."""
        parts = split_path(path)
        blocks = ENTRY_BLOCKS + blocks_for_data(nbytes)
        node = self.root
        for part in parts[:-1]:
            child = node.children.get(part) if isinstance(node, DirectoryEntry) else None
            if child is None or not isinstance(child, DirectoryEntry):
                blocks += ENTRY_BLOCKS  # directory to be created
                node = DirectoryEntry(name=part)
            else:
                node = child
        return blocks

    def fits(self, path: str, nbytes: int) -> bool:
        return self.blocks_needed_for(path, nbytes) <= self.free_blocks

    def _charge(self, blocks: int) -> None:
        if blocks > self.free_blocks:
            raise NoSpaceOLFSError(
                f"volume {self.label!r}: need {blocks} blocks, "
                f"{self.free_blocks} free"
            )
        self._used_blocks += blocks

    def _refund(self, blocks: int) -> None:
        self._used_blocks -= blocks

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _lookup(self, path: str):
        node = self.root
        for part in split_path(path):
            if not isinstance(node, DirectoryEntry):
                raise NotADirectoryOLFSError(f"{path!r}: not a directory")
            if part not in node.children:
                raise FileNotFoundOLFSError(f"{path!r}: no such entry")
            node = node.children[part]
        return node

    def is_file(self, path: str) -> bool:
        try:
            return isinstance(self._lookup(path), FileEntry)
        except (FileNotFoundOLFSError, NotADirectoryOLFSError):
            return False

    def listdir(self, path: str = "/") -> list[str]:
        node = self.root if path == "/" else self._lookup(path)
        if not isinstance(node, DirectoryEntry):
            raise NotADirectoryOLFSError(f"{path!r} is a file")
        return node.child_names()

    def walk(self) -> Iterator[tuple[str, object]]:
        """Depth-first (path, entry) pairs, files and dirs."""

        def recurse(prefix: str, directory: DirectoryEntry):
            for name in directory.child_names():
                child = directory.children[name]
                child_path = f"{prefix}/{name}"
                yield child_path, child
                if isinstance(child, DirectoryEntry):
                    yield from recurse(child_path, child)

        yield from recurse("", self.root)

    def file_paths(self) -> list[str]:
        return [
            path
            for path, entry in self.walk()
            if isinstance(entry, FileEntry)
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyOLFSError(
                f"volume {self.label!r} is closed (read-only)"
            )

    def makedirs(self, path: str, mtime: float = 0.0) -> DirectoryEntry:
        """Create a directory and any missing ancestors."""
        self._require_writable()
        node = self.root
        for part in split_path(path):
            if not isinstance(node, DirectoryEntry):
                raise NotADirectoryOLFSError(f"{path!r}: ancestor is a file")
            child = node.children.get(part)
            if child is None:
                self._charge(ENTRY_BLOCKS)
                child = DirectoryEntry(name=part, mtime=mtime)
                node.children[part] = child
            node = child
        if not isinstance(node, DirectoryEntry):
            raise NotADirectoryOLFSError(f"{path!r} exists as a file")
        return node

    def write_file(
        self,
        path: str,
        data: bytes,
        logical_size: Optional[int] = None,
        mtime: float = 0.0,
        overwrite: bool = False,
    ) -> FileEntry:
        """Create (or, in an open volume, replace) a file with content."""
        self._require_writable()
        parts = split_path(path)
        if not parts:
            raise InvalidPathError("cannot write to /")
        parent = (
            self.makedirs("/" + "/".join(parts[:-1]), mtime)
            if len(parts) > 1
            else self.root
        )
        name = parts[-1]
        existing = parent.children.get(name)
        if existing is not None:
            if isinstance(existing, DirectoryEntry):
                raise IsADirectoryOLFSError(f"{path!r} is a directory")
            if not overwrite:
                raise FileExistsOLFSError(f"{path!r} exists")
        entry = FileEntry(
            name=name, data=bytes(data), logical_size=logical_size, mtime=mtime
        )
        new_blocks = entry.blocks - (existing.blocks if existing else 0)
        if new_blocks > 0:
            self._charge(new_blocks)
        else:
            self._refund(-new_blocks)
        parent.children[name] = entry
        return entry

    def read_file(self, path: str) -> bytes:
        entry = self._lookup(path)
        if isinstance(entry, DirectoryEntry):
            raise IsADirectoryOLFSError(f"{path!r} is a directory")
        return entry.data

    def file_entry(self, path: str) -> FileEntry:
        entry = self._lookup(path)
        if isinstance(entry, DirectoryEntry):
            raise IsADirectoryOLFSError(f"{path!r} is a directory")
        return entry

    def close(self) -> None:
        """Finalize the volume: no further writes (bucket -> image)."""
        self.read_only = True
