"""UDF file and directory entries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.udf.constants import BLOCK_SIZE, ENTRY_BLOCKS


def blocks_for_data(nbytes: int) -> int:
    """Data blocks needed for ``nbytes`` of file content."""
    return -(-int(nbytes) // BLOCK_SIZE)


@dataclass
class FileEntry:
    """A regular file: name, real content and an optional declared size.

    ``logical_size`` lets timing-scale experiments carry files whose
    declared size exceeds the stored payload; it defaults to the payload
    length and all space accounting uses it.
    """

    name: str
    data: bytes = b""
    logical_size: Optional[int] = None
    mtime: float = 0.0

    def __post_init__(self):
        if self.logical_size is None:
            self.logical_size = len(self.data)
        if self.logical_size < len(self.data):
            raise ValueError(
                f"logical size {self.logical_size} < payload {len(self.data)}"
            )

    @property
    def size(self) -> int:
        return self.logical_size

    @property
    def blocks(self) -> int:
        """Total blocks consumed: entry block(s) plus data blocks."""
        return ENTRY_BLOCKS + blocks_for_data(self.logical_size)


@dataclass
class DirectoryEntry:
    """A directory: named children, each a FileEntry or DirectoryEntry."""

    name: str
    children: dict = field(default_factory=dict)
    mtime: float = 0.0

    def child_names(self) -> list[str]:
        return sorted(self.children)
