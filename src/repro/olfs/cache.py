"""The Read Cache (RC): LRU over whole disc images (§4.1).

"The current design of OLFS only considers a disc image as a cache unit,
sufficiently exploiting spatial locality."  Recently fetched (or freshly
burned) images stay on the disk buffer; beyond capacity the least recently
used image's content is evicted (its bytes remain safe on disc).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.olfs.images import BURNED, DiscImageManager
from repro.udf.image import DiscImage


class ReadCache:
    """LRU cache of burned disc images kept on the disk buffer."""

    def __init__(self, dim: DiscImageManager, capacity_images: int):
        if capacity_images < 1:
            raise ValueError("read cache needs capacity for >= 1 image")
        self.dim = dim
        self.capacity_images = capacity_images
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: optional MetricsRegistry; OLFS wires its own in
        self.metrics = None
        #: optional Engine, wired by OLFS so evictions reach the
        #: flight recorder; None keeps the cache engine-agnostic
        self.engine = None

    def __len__(self) -> int:
        return len(self._lru)

    def _record_eviction(self, image_id: str, cause: str) -> None:
        self.evictions += 1
        if self.metrics is not None:
            self.metrics.counter("cache.evictions").inc()
        if self.engine is not None and self.engine.recorder.enabled:
            self.engine.recorder.record(
                "cache.eviction", image_id=image_id, cause=cause
            )

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._lru

    def get(self, image_id: str) -> Optional[DiscImage]:
        """Cache lookup; refreshes recency on hit."""
        if image_id in self._lru:
            self._lru.move_to_end(image_id)
            image = self.dim.get_buffered(image_id)
            if image is not None:
                self.hits += 1
                if self.metrics is not None:
                    self.metrics.counter("cache.hits").inc()
                return image
            # Content vanished (e.g. manual evict); treat as miss.
            del self._lru[image_id]
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.misses").inc()
        return None

    def put(self, image_id: str, image: DiscImage) -> None:
        """Admit a burned image's content, evicting LRU beyond capacity."""
        self.dim.restore_content(image_id, image)
        self._lru[image_id] = None
        self._lru.move_to_end(image_id)
        while len(self._lru) > self.capacity_images:
            victim, _ = self._lru.popitem(last=False)
            if self._burned(victim) is not None:
                self.dim.evict_content(victim)
                self._record_eviction(victim, "lru")
        if self.metrics is not None:
            self.metrics.gauge("cache.cached_images").set(len(self._lru))

    def evict(self, image_id: str) -> None:
        if image_id in self._lru:
            del self._lru[image_id]
            if self._burned(image_id) is not None:
                self.dim.evict_content(image_id)
                self._record_eviction(image_id, "manual")

    def _burned(self, image_id: str):
        """``image_id``'s record if it is still BURNED, else None: a lost
        or migrated entry has no content to evict and simply leaves the
        LRU."""
        record = self.dim.records.get(image_id)
        if record is None or record.state != BURNED:
            return None
        return record

    def reclaim(self, bytes_needed: int) -> int:
        """Evict LRU images until ``bytes_needed`` are freed (or the
        cache is empty).  Returns the bytes released — the buffer-pressure
        valve the bucket manager pulls before refusing a write."""
        freed = 0
        while freed < bytes_needed and self._lru:
            victim, _ = self._lru.popitem(last=False)
            record = self._burned(victim)
            if record is None:
                continue
            if record.image is not None:
                freed += record.logical_size
            self.dim.evict_content(victim)
            self._record_eviction(victim, "reclaim")
        return freed

    @property
    def cached_ids(self) -> list[str]:
        return list(self._lru)

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        snapshot = self.stats()
        snapshot["evictions"] = self.evictions
        snapshot["hit_rate"] = round(snapshot["hit_rate"], 6)
        return snapshot

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "cached": len(self._lru),
            "capacity": self.capacity_images,
        }
