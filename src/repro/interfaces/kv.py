"""Key-value interface over OLFS (§4.2 extension).

Keys map deterministically onto the global namespace: a key hashes into a
two-level directory fan-out (so millions of keys do not pile into one
directory) and the key itself is preserved in the file name for
recovery-friendliness — a bare-discs namespace rebuild restores the store.

    PUT  k -> /kv/<shard>/<quoted-key>
    GET  k -> read the same path
    versions, deletes and cold reads behave exactly like files.
"""

from __future__ import annotations

import hashlib
import urllib.parse
from typing import Iterator, Optional

from repro.errors import FileNotFoundOLFSError


class KeyValueInterface:
    """A durable KV store on a ROS rack."""

    def __init__(self, ros, root: str = "/kv", shards: int = 64):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.ros = ros
        self.root = root.rstrip("/")
        self.shards = shards

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        if not key:
            raise KeyError("empty key")
        digest = hashlib.sha256(key.encode()).hexdigest()
        shard = int(digest[:8], 16) % self.shards
        # The "k-" prefix keeps quoted keys like "." or ".." from ever
        # forming relative path components.
        quoted = urllib.parse.quote(key, safe="")
        return f"{self.root}/s{shard:03d}/k-{quoted}"

    @staticmethod
    def _key_of(name: str) -> str:
        return urllib.parse.unquote(name[2:] if name.startswith("k-") else name)

    # ------------------------------------------------------------------
    def put(self, key: str, value: bytes) -> None:
        self.ros.write(self._path(key), value)

    def get(self, key: str) -> bytes:
        try:
            return self.ros.read(self._path(key)).data
        except FileNotFoundOLFSError:
            raise KeyError(key) from None

    def get_version(self, key: str, version: int) -> bytes:
        try:
            return self.ros.read(self._path(key), version=version).data
        except FileNotFoundOLFSError:
            raise KeyError(key) from None

    def delete(self, key: str) -> None:
        try:
            self.ros.unlink(self._path(key))
        except FileNotFoundOLFSError:
            raise KeyError(key) from None

    def exists(self, key: str) -> bool:
        try:
            self.ros.stat(self._path(key))
            return True
        except FileNotFoundOLFSError:
            return False

    def versions(self, key: str) -> list[int]:
        try:
            return self.ros.versions(self._path(key))
        except FileNotFoundOLFSError:
            raise KeyError(key) from None

    def keys(self) -> Iterator[str]:
        """Enumerate all keys (scans the shard directories)."""
        try:
            shards = self.ros.readdir(self.root)
        except FileNotFoundOLFSError:  # root not created yet
            return
        for shard in shards:
            for name in self.ros.readdir(f"{self.root}/{shard}"):
                yield self._key_of(name)

    def __contains__(self, key: str) -> bool:
        return self.exists(key)
