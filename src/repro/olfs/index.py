"""Index files: the global namespace's per-entry metadata records (§4.2).

Every file (and directory) in the global namespace has an index file of the
same path in the Metadata Volume.  Index files carry no file data — only
version entries locating the data by image ID (the unique-file-path design
of §4.4 means an image ID is enough: the file sits at the same path inside
that image's UDF tree).  They are serialized as JSON "for its ease of
processing and translation" and hold up to 15 version entries in a ring
(§4.6); the forepart-data-stored mechanism (§4.8) adds the file's first
bytes for instant cold-read response.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FilesystemError

#: Paper figures for MV sizing (§4.2).
TYPICAL_INDEX_FILE_BYTES = 388
LOCATION_INFO_BYTES = 128
VERSION_ENTRY_BYTES = 40

#: where :meth:`IndexFile.serialize` splices the base64 forepart in
_FOREPART = '"forepart": "'


@dataclass(frozen=True)
class VersionEntry:
    """One version of a file: where its data lives.

    ``locations`` is a list of image IDs; normally one, two or more when
    the file straddled bucket boundaries (§4.5) — position ``i`` holds
    subfile ``i``.  ``subfile_sizes`` aligns with it.

    An entry is replaced, never edited in place (it is frozen): the MV's
    parsed index files, which its checkpoints are encoded from, share
    their entries with the copies lookups hand out.
    """

    version: int
    size: int
    mtime: float
    locations: list[str]
    subfile_sizes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.locations:
            raise FilesystemError("version entry needs at least one location")
        if not self.subfile_sizes:
            object.__setattr__(self, "subfile_sizes", [self.size])
        if len(self.subfile_sizes) != len(self.locations):
            raise FilesystemError("subfile sizes misaligned with locations")

    def to_json(self) -> dict:
        return {
            "v": self.version,
            "size": self.size,
            "mtime": self.mtime,
            "loc": self.locations,
            "parts": self.subfile_sizes,
        }

    @classmethod
    def from_json(cls, record: dict) -> "VersionEntry":
        return cls(
            version=record["v"],
            size=record["size"],
            mtime=record["mtime"],
            locations=list(record["loc"]),
            subfile_sizes=list(record["parts"]),
        )


class IndexFile:
    """The MV record for one global-namespace file."""

    def __init__(self, path: str, max_versions: int = 15):
        self.path = path
        self.max_versions = max_versions
        self.entries: list[VersionEntry] = []
        self.forepart: Optional[bytes] = None  # or a burned blob's view

    # ------------------------------------------------------------------
    # Versions (§4.6: ring of up to 15 entries)
    # ------------------------------------------------------------------
    @property
    def current(self) -> VersionEntry:
        if not self.entries:
            raise FilesystemError(f"index {self.path!r} has no versions")
        return self.entries[-1]

    @property
    def next_version(self) -> int:
        return self.entries[-1].version + 1 if self.entries else 1

    def add_version(self, entry: VersionEntry) -> None:
        self.entries.append(entry)
        if len(self.entries) > self.max_versions:
            # Ring semantics: the oldest entry is overwritten (§4.6).
            self.entries.pop(0)

    def version(self, number: int) -> VersionEntry:
        for entry in self.entries:
            if entry.version == number:
                return entry
        raise FilesystemError(
            f"index {self.path!r}: version {number} not retained"
        )

    def versions(self) -> list[int]:
        return [entry.version for entry in self.entries]

    def copy(self) -> "IndexFile":
        """A twin safe to edit: its own entries list, the same forepart."""
        twin = IndexFile(self.path, self.max_versions)
        twin.entries = list(self.entries)
        twin.forepart = self.forepart
        return twin

    # ------------------------------------------------------------------
    # Serialization (JSON, §4.2)
    # ------------------------------------------------------------------
    def _skeleton(self) -> str:
        """The record's JSON with an empty ``"forepart"`` string, if any."""
        record = {
            "path": self.path,
            "max_versions": self.max_versions,
            "entries": [entry.to_json() for entry in self.entries],
        }
        if self.forepart is not None:
            record["forepart"] = ""
        return json.dumps(record, sort_keys=True)

    def serialize(self) -> bytes:
        """The record's ``json.dumps(..., sort_keys=True)``, byte for byte,
        with the base64 forepart spliced in, not scanned by the encoder:
        sorted, only ``"entries"`` (no bare ``"`` in its escaped strings)
        precedes ``"forepart"``, and base64 text needs no escaping."""
        skeleton = self._skeleton()
        if self.forepart is None:
            return skeleton.encode()
        head, tail = skeleton.split(_FOREPART, 1)
        head = f"{head}{_FOREPART}".encode()
        return b"".join((head, base64.b64encode(self.forepart), tail.encode()))

    def serialized_size(self) -> int:
        """``len(self.serialize())`` without encoding the forepart: the
        skeleton is ASCII, and base64 spends 4 bytes per 3 started."""
        size = len(self._skeleton())
        if self.forepart is not None:
            size += 4 * -(-len(self.forepart) // 3)
        return size

    @classmethod
    def deserialize(cls, blob: bytes) -> "IndexFile":
        record = json.loads(blob)
        index = cls(record["path"], record.get("max_versions", 15))
        for entry in record["entries"]:
            index.entries.append(VersionEntry.from_json(entry))
        if "forepart" in record:
            index.forepart = base64.b64decode(record["forepart"])
        return index
