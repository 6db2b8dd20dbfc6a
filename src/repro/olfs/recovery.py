"""Recovery: MV checkpoints on disc and namespace reconstruction (§4.2, §4.4).

Two independent safety nets:

* **MV checkpoints** — the Metadata Volume is periodically serialized,
  chunked into ``metadata`` disc images and burned.  If MV fails, the
  latest snapshot is recovered by scanning the discs (the paper measured
  ~half an hour over 120 discs).
* **Full namespace reconstruction** — because every image carries its
  files' ancestor directories (unique file path, §4.4) and split files
  carry link files (§4.5), the entire global namespace can be rebuilt by
  scanning all survived data discs even with MV *and* every checkpoint
  lost.
"""

from __future__ import annotations

import itertools
import json
from typing import Generator, Optional

from repro.errors import FilesystemError
from repro.faults.policy import RetryPolicy
from repro.mechanics.geometry import TrayAddress
from repro.olfs.bucket import LINK_SUFFIX, WritingBucketManager
from repro.olfs.burning import BurnController, BurnTask
from repro.olfs.config import OLFSConfig
from repro.olfs.images import DiscImageManager
from repro.olfs.index import IndexFile, VersionEntry
from repro.olfs.mechanical import ArrayState, MechanicalController, PRIORITY_FETCH
from repro.olfs.metadata import MetadataVolume
from repro.sim.engine import Engine
from repro.udf.entry import FileEntry
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage

#: Reserve for the chunk file's UDF entries + manifest inside each image
#: (a handful of 2 KB blocks).
_CHUNK_OVERHEAD = 16 * 1024

#: Retries for recovery scans (MV rebuild reads burned discs).
RECOVERY_RETRY = RetryPolicy(
    attempts=3, base_delay=1.0, multiplier=2.0, max_delay=30.0
)


class RecoveryManager:
    """MV checkpoint burning and disc-scan recovery."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        mv: MetadataVolume,
        dim: DiscImageManager,
        mc: MechanicalController,
        btm: BurnController,
    ):
        self.engine = engine
        self.config = config
        self.mv = mv
        self.dim = dim
        self.mc = mc
        self.btm = btm
        self._snapshot_counter = itertools.count(1)
        self._metadata_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Checkpoint burning
    # ------------------------------------------------------------------
    def burn_mv_snapshot(self) -> Generator:
        """Serialize MV, chunk it into metadata images, burn the arrays.

        Returns the completed :class:`BurnTask` objects.
        """
        snapshot_id = next(self._snapshot_counter)
        blob = self.mv.serialize_snapshot()
        chunk_size = self.config.bucket_capacity - _CHUNK_OVERHEAD
        if chunk_size <= 0:
            raise FilesystemError("bucket capacity too small for snapshots")
        chunks = [
            blob[offset : offset + chunk_size]
            for offset in range(0, len(blob), chunk_size)
        ] or [b""]
        records = []
        for seq, chunk in enumerate(chunks):
            image_id = f"mv-{next(self._metadata_counter):08d}"
            fs = UDFFileSystem(self.config.bucket_capacity, label=image_id)
            fs.write_file(
                "/mv/manifest.json",
                json.dumps(
                    {
                        "snapshot": snapshot_id,
                        "seq": seq,
                        "total": len(chunks),
                    }
                ).encode(),
                mtime=self.engine.now,
            )
            fs.write_file(f"/mv/chunk-{seq:06d}", chunk, mtime=self.engine.now)
            fs.close()
            image = DiscImage(image_id, kind="metadata", filesystem=fs)
            records.append(self.dim.bucket_closed(image))
        tasks: list[BurnTask] = []
        for start in range(0, len(records), self.config.data_discs_per_array):
            batch = records[start : start + self.config.data_discs_per_array]
            tasks.append(self.btm.schedule(batch))
        from repro.sim.engine import Wait

        for task in tasks:
            yield Wait(task.done_event)
        return tasks

    # ------------------------------------------------------------------
    # MV recovery from discs (the ~30-minute experiment)
    # ------------------------------------------------------------------
    def recover_mv_from_discs(self) -> Generator:
        """Scan used arrays for MV snapshots and load the newest one.

        The newest snapshot whose every chunk was read wins.  Returns
        ``(snapshot_id, discs_read)``.  Timed: every candidate array is
        mechanically loaded and its metadata chunks streamed off the
        discs.
        """
        chunks: dict[int, dict[int, bytes]] = {}
        totals: dict[int, int] = {}
        discs_read = 0
        for (roller, address), state in sorted(self.mc.da_index.items()):
            if state is not ArrayState.USED:
                continue
            images = self.mc.array_images.get((roller, address), [])
            if not any(image_id.startswith("mv-") for image_id in images):
                continue
            checkpoints = yield from self._with_retries(
                lambda: self._read_images(roller, address, "metadata"),
                "scan-array",
            )
            discs_read += len(checkpoints)
            for image in checkpoints:
                fs = image.mount()
                manifest = json.loads(fs.read_file("/mv/manifest.json"))
                snapshot_id = manifest["snapshot"]
                totals[snapshot_id] = manifest["total"]
                seq = manifest["seq"]
                chunks.setdefault(snapshot_id, {})[seq] = fs.read_file(
                    f"/mv/chunk-{seq:06d}"
                )

        complete = [
            snapshot_id
            for snapshot_id, have in chunks.items()
            if len(have) == totals[snapshot_id]
        ]
        if not complete:
            raise FilesystemError("no complete MV snapshot found on discs")
        newest = max(complete)
        have = chunks[newest]
        self.mv.load_snapshot(b"".join(have[seq] for seq in sorted(have)))
        return newest, discs_read

    def _with_retries(self, factory, label: str) -> Generator:
        """Run ``factory()`` (a fresh generator per attempt) under the
        recovery retry policy, resetting the mechanics between attempts.
        Drive/mechanics faults are retried; media errors propagate."""
        return RECOVERY_RETRY.retry(
            factory,
            lambda _error, attempt: self.engine.trace.event(
                "recovery.retry", "recovery", {"op": label, "attempt": attempt}
            ),
            self.mc.mech, PRIORITY_FETCH,
        )

    def _read_images(
        self, roller: int, address: TrayAddress, kind: str
    ) -> Generator:
        """Load one array and stream off it every image of ``kind`` (the
        header is peeked untimed; only those images are read, timed).
        Returns them deserialized, in drive order."""

        def body(loaded) -> Generator:
            images: list[DiscImage] = []
            for drive, on_disc in loaded:
                header = DiscImage.peek_header(on_disc.read())
                if header.get("kind") != kind:
                    continue
                blob = yield from self.mc.read_image(drive, on_disc)
                images.append(DiscImage.deserialize(blob))
            return images

        images = yield from self.mc.scan_array(roller, address, body)
        return images

    # ------------------------------------------------------------------
    # Full namespace reconstruction from data images (§4.4)
    # ------------------------------------------------------------------
    def reconstruct_namespace(
        self, images: Optional[list[DiscImage]] = None
    ) -> Generator:
        """Rebuild the MV from data-image contents (a process).

        ``images`` defaults to every data image whose content is still on
        the buffer.  Returns the number of files restored.  Timed disc
        scanning is the caller's job (combine with
        :meth:`collect_images_from_discs` for the full disaster path).
        """
        if images is None:
            images = [
                record.image
                for record in self.dim.records.values()
                if record.kind == "data" and record.image is not None
            ]
        images = sorted(images, key=lambda image: image.image_id)
        # (path, image_id) -> (entry, link-info or None)
        sightings: dict[str, list[tuple[str, FileEntry, Optional[dict]]]] = {}
        links: dict[tuple[str, str], dict] = {}
        for image in images:
            fs = image.mount()
            for path in fs.file_paths():
                if LINK_SUFFIX in path:
                    link = json.loads(fs.read_file(path))
                    links[(link["path"], image.image_id)] = link
                    continue
                entry = fs.file_entry(path)
                sightings.setdefault(path, []).append(
                    (image.image_id, entry, None)
                )
        restored = 0
        for path, appearances in sightings.items():
            index = IndexFile(path)
            # Chain split parts: an appearance with a link file continues
            # an earlier image; heads have no link.
            heads = []
            continuation: dict[str, str] = {}
            for image_id, entry, _ in appearances:
                link = links.get((path, image_id))
                if link is None:
                    heads.append((image_id, entry))
                else:
                    continuation[link["continues"]] = image_id
            by_image = {image_id: entry for image_id, entry, _ in appearances}
            for image_id, entry in sorted(heads):
                location_chain = [image_id]
                sizes = [entry.size]
                cursor = image_id
                while cursor in continuation:
                    cursor = continuation[cursor]
                    location_chain.append(cursor)
                    sizes.append(by_image[cursor].size)
                index.add_version(
                    VersionEntry(
                        version=index.next_version,
                        size=sum(sizes),
                        mtime=entry.mtime,
                        locations=location_chain,
                        subfile_sizes=sizes,
                    )
                )
            if index.entries:
                yield from self.mv.write_index(path, index)
                restored += 1
        return restored

    def collect_images_from_discs(self) -> Generator:
        """Mechanically scan every used array and return all data images
        read off the discs (timed).  Feed the result to
        :meth:`reconstruct_namespace` for the full §4.4 disaster path.
        """
        collected: list[DiscImage] = []
        for (roller, address), state in sorted(self.mc.da_index.items()):
            if state is not ArrayState.USED:
                continue
            collected.extend(
                (
                    yield from self._with_retries(
                        lambda: self._read_images(roller, address, "data"),
                        "collect-array",
                    )
                )
            )
        return collected
