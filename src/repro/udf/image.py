"""Disc images: serializable UDF volumes with identity.

A disc image is OLFS's basic container (§4.1): "each disc image has the
same capacity as the disc and has an internal UDF file system... disc
images as a whole can swap between discs and disks.  Each disc image has a
universal unique identifier."

Three kinds exist:

* ``data`` — a closed UDF volume holding user files (from a filled bucket);
* ``parity`` — raw parity bytes over a disc array's data images (§4.7:
  "the parity image is not a UDF volume");
* ``metadata`` — a periodic snapshot of the Metadata Volume (§4.2), burned
  so the global namespace can be recovered from discs.

The serialized layout is self-describing (magic + JSON header + extents),
which is what lets recovery reconstruct everything from survived discs.
Parsing one decodes only the header: a file is sliced out of the bytes
when read, and the tree is built the first time something walks it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import FileNotFoundOLFSError, MediaError
from repro.udf.constants import FORMAT_VERSION, VOLUME_MAGIC
from repro.udf.entry import DirectoryEntry, FileEntry
from repro.udf.filesystem import UDFFileSystem

_HEADER_LEN_BYTES = 8

DATA = "data"
PARITY = "parity"
METADATA = "metadata"
_KINDS = (DATA, PARITY, METADATA)


def _decode_header(blob: bytes) -> tuple[dict, int]:
    """The volume's JSON header and the offset its extents start at."""
    if blob[: len(VOLUME_MAGIC)] != VOLUME_MAGIC:
        raise MediaError("not a ROS-UDF volume (bad magic)")
    cursor = len(VOLUME_MAGIC) + _HEADER_LEN_BYTES
    head_len = int.from_bytes(blob[len(VOLUME_MAGIC) : cursor], "big")
    if len(blob) < cursor + head_len:
        raise MediaError("volume ends inside its header")
    return json.loads(blob[cursor : cursor + head_len]), cursor + head_len


def _mount(blob: bytes) -> UDFFileSystem:
    """The closed UDF volume a data or metadata image's bytes hold."""
    header, cursor = _decode_header(blob)
    fs = UDFFileSystem(header["capacity"], label=header["label"])
    for entry in header["entries"]:
        if entry["type"] == "dir":
            fs.makedirs(entry["path"], mtime=entry["mtime"])
        else:
            start = cursor + entry["offset"]
            fs.write_file(
                entry["path"],
                blob[start : start + entry["length"]],
                logical_size=entry["size"],
                mtime=entry["mtime"],
            )
    fs.close()
    return fs


def _volume(header: dict, *body) -> bytes:
    """magic | header length | JSON header | body, in one copy."""
    head = json.dumps(header, sort_keys=True).encode()
    length = len(head).to_bytes(_HEADER_LEN_BYTES, "big")
    return b"".join((VOLUME_MAGIC, length, head, *body))


class DiscImage:
    """An identified, serializable volume that swaps between disks and discs.

    ``serialized``: the volume's bytes.  A parity image's ``raw`` views
    them; a parsed data or metadata image reads its files out of them."""

    def __init__(
        self,
        image_id: str,
        kind: str = DATA,
        filesystem: Optional[UDFFileSystem] = None,
        raw=None,
        logical_size: Optional[int] = None,
        serialized: Optional[bytes] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown image kind {kind!r}")
        if kind == PARITY:
            if raw is None:
                raise ValueError("parity images need raw bytes")
        elif filesystem is None and serialized is None:
            raise ValueError(f"{kind} images need a filesystem")
        self.image_id = image_id
        self.kind = kind
        self.filesystem = filesystem
        self.raw = raw
        self._declared_size = logical_size
        if kind == PARITY and serialized is None:
            # Serialized once, here: ``raw`` becomes a view of the bytes
            # that are burned, so the buffer holds one copy of them.
            serialized = _volume({
                "version": FORMAT_VERSION,
                "image_id": image_id,
                "kind": kind,
                "logical_size": self.logical_size,
                "payload_length": len(raw),
            }, raw)
            self.raw = memoryview(serialized)[len(serialized) - len(raw):]
        self._serialized = serialized
        #: a parsed image's files: path -> (offset in ``_serialized``,
        #: length, size, mtime); None for one built from a filesystem
        self._files: Optional[dict[str, tuple]] = None

    @property
    def logical_size(self) -> int:
        """Bytes this image occupies for burn timing/capacity purposes."""
        if self._declared_size is not None:
            return self._declared_size
        if self.kind == PARITY:
            return len(self.raw)
        return self.mount().used_bytes

    def mount(self) -> UDFFileSystem:
        """The image's read-only file system view (data/metadata only);
        a parsed image builds it from its bytes the first time."""
        if self.filesystem is None:
            if self.kind == PARITY:
                raise MediaError(
                    f"image {self.image_id} ({self.kind}) has no fs"
                )
            self.filesystem = _mount(self._serialized)
        return self.filesystem

    def file_entry(self, path: str) -> FileEntry:
        """The file at ``path``; a parsed image slices it out of its
        bytes without building the tree."""
        if self._files is None:
            return self.mount().file_entry(path)
        try:
            start, length, size, mtime = self._files[path]
        except KeyError:
            raise FileNotFoundOLFSError(f"{path!r}: no such file") from None
        data = self._serialized[start : start + length]
        return FileEntry(path.rpartition("/")[2], data, size, mtime)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def serialize(self, extents: Optional[dict] = None) -> bytes:
        """Self-describing byte layout: magic | header length | JSON header
        | concatenated file extents (or raw parity bytes, the object ``raw``
        views); ``extents`` gets path -> (file data, offset in the bytes)."""
        if self.kind == PARITY:
            return self._serialized
        entries = []
        files = []  # (path, data, offset in the body)
        offset = 0
        fs = self.mount()
        for path, entry in fs.walk():
            if isinstance(entry, DirectoryEntry):
                entries.append({"path": path, "type": "dir", "mtime": entry.mtime})
            else:
                entries.append(
                    {
                        "path": path,
                        "type": "file",
                        "size": entry.logical_size,
                        "length": len(entry.data),
                        "offset": offset,
                        "mtime": entry.mtime,
                    }
                )
                files.append((path, entry.data, offset))
                offset += len(entry.data)
        header = {
            "version": FORMAT_VERSION,
            "image_id": self.image_id,
            "kind": self.kind,
            "label": fs.label,
            "capacity": fs.capacity,
            "logical_size": self.logical_size,
            "entries": entries,
        }
        blob = _volume(header, *[data for _, data, _ in files])
        if extents is not None:
            start = len(blob) - offset
            extents.update((p, (data, start + at)) for p, data, at in files)
        return blob

    @classmethod
    def deserialize(cls, blob: bytes) -> "DiscImage":
        """Rebuild an image from serialized bytes, which it keeps: only
        the header is decoded (see :meth:`file_entry` and :meth:`mount`)."""
        header, cursor = _decode_header(blob)
        if header.get("version") != FORMAT_VERSION:
            raise MediaError(
                f"unsupported volume format {header.get('version')}"
            )
        kind = header["kind"]
        if kind == PARITY:
            # a view, not a copy; ``blob[:end]`` is ``blob`` itself when
            # it holds nothing past the payload
            serialized = blob[: cursor + header["payload_length"]]
            return cls(
                header["image_id"],
                kind=PARITY,
                raw=memoryview(serialized)[cursor:],
                logical_size=header["logical_size"],
                serialized=serialized,
            )
        image = cls(
            header["image_id"],
            kind=kind,
            logical_size=header["logical_size"],
            serialized=blob,
        )
        image._files = {
            entry["path"]: (cursor + entry["offset"], entry["length"],
                            entry["size"], entry["mtime"])
            for entry in header["entries"]
            if entry["type"] != "dir"
        }
        return image

    @staticmethod
    def peek_header(blob: bytes) -> dict:
        """Read just the JSON header (recovery scans discs cheaply)."""
        return _decode_header(blob)[0]
