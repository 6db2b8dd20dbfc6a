"""File-grain caching and prefetching (§4.1's future-work knobs).

"Certainly, the read cache also can use in finer grain as files or
prefetch some files according to specific access patterns."  Two opt-in
mechanisms implement that sentence:

* :class:`FileGrainCache` — instead of admitting a whole fetched disc
  image to the buffer (the default, image-grain), keep only the requested
  file's bytes under a byte-budget LRU.  Wins when access is random
  across many images and buffer space is tight; loses the spatial
  locality the image-grain cache gets for free.
* :class:`SequentialPrefetcher` — while a fetched disc is still mounted,
  pull the next few sibling files (same directory, name order) into the
  file cache, anticipating sequential scans.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import FilesystemError
from repro.udf.image import DiscImage


class FileGrainCache:
    """Byte-budget LRU of individual file payloads."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 1:
            raise ValueError("file cache needs a positive byte budget")
        self.capacity_bytes = int(capacity_bytes)
        self.entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(image_id: str, path: str) -> str:
        return f"{image_id}:{path}"

    def get(self, image_id: str, path: str) -> Optional[bytes]:
        key = self.key(image_id, path)
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def put(self, image_id: str, path: str, data: bytes) -> None:
        if len(data) > self.capacity_bytes:
            return  # larger than the whole budget: not cacheable
        key = self.key(image_id, path)
        if key in self.entries:
            self.used_bytes -= len(self.entries.pop(key))
        self.entries[key] = data
        self.used_bytes += len(data)
        while self.used_bytes > self.capacity_bytes:
            _, victim = self.entries.popitem(last=False)
            self.used_bytes -= len(victim)


class SequentialPrefetcher:
    """Pick the sibling files to pull alongside a fetched file."""

    def __init__(self, depth: int):
        self.depth = int(depth)
        self.prefetched = 0

    def candidates(self, image: DiscImage, path: str) -> list[str]:
        """Up to ``depth`` same-directory successors of ``path`` in the
        image, name order — the sequential-scan pattern."""
        if self.depth <= 0:
            return []
        fs = image.mount()
        directory = path.rsplit("/", 1)[0] or "/"
        try:
            names = fs.listdir(directory)
        except FilesystemError:  # directory not in this image
            return []
        base = path.rsplit("/", 1)[1]
        files = [
            name
            for name in names
            if fs.is_file(f"{directory}/{name}".replace("//", "/"))
        ]
        if base not in files:
            return []
        index = files.index(base)
        chosen = files[index + 1 : index + 1 + self.depth]
        prefix = directory if directory != "/" else ""
        return [f"{prefix}/{name}" for name in chosen]
