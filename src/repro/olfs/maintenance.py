"""The Maintenance Interface (MI): administration, scrubbing, repair (§4.1).

"Disc sector-error checking can be scheduled at idle times and can
periodically scan all the burned disc arrays to check sector errors.  When
sector errors occur, data on the failed sectors can be recovered from their
parity discs and the corresponding data discs in the same disc array...
The recovered data can be written to new buckets and finally burned into
free disc arrays." (§4.7)
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Generator, Optional

from repro.errors import RaidDegradedError, SectorError
from repro.media.errors_model import SectorErrorModel
from repro.mechanics.geometry import TrayAddress
from repro.olfs.bucket import WritingBucketManager
from repro.olfs.cache import ReadCache
from repro.olfs.config import OLFSConfig
from repro.olfs.images import DiscImageManager, pad_blobs
from repro.olfs.mechanical import ArrayState, MechanicalController
from repro.olfs.metadata import MetadataVolume
from repro.sim.engine import Engine
from repro.storage.raid import erasure_decode
from repro.udf.image import DiscImage


class MaintenanceInterface:
    """Administrator operations: status, scrub, repair."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        mv: MetadataVolume,
        dim: DiscImageManager,
        mc: MechanicalController,
        wbm: WritingBucketManager,
        cache: ReadCache,
    ):
        self.engine = engine
        self.config = config
        self.mv = mv
        self.dim = dim
        self.mc = mc
        self.wbm = wbm
        self.cache = cache
        self.scrubs = 0
        self.sector_errors_found = 0
        self.images_repaired = 0

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """System-wide status summary for the administrator console."""
        mech = self.mc.mech
        discs_total = sum(r.geometry.disc_capacity for r in mech.rollers)
        states = {"buffered": 0, "burned": 0, "in-bucket": 0}
        for record in self.dim.records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "sim_time": self.engine.now,
            "arrays": self.mc.counts(),
            "discs_total": discs_total,
            "images": states,
            "open_buckets": len(self.wbm.open_buckets()),
            "buckets_closed": self.wbm.buckets_closed,
            "cache": self.cache.stats(),
            "mv_bytes": self.mv.used_bytes(),
            "mv_index_files": len(self.mv.all_index_paths()),
            "plc_instructions": mech.plc.instructions_executed,
            "scrubs": self.scrubs,
            "sector_errors_found": self.sector_errors_found,
            "images_repaired": self.images_repaired,
        }

    # ------------------------------------------------------------------
    def scrub_array(
        self,
        roller: int,
        address: TrayAddress,
        error_model: Optional[SectorErrorModel] = None,
        migrate: bool = False,
    ) -> Generator:
        """Check one burned array's sectors; repair damaged images.

        Loads the array, optionally ages the discs through the error
        model, reads every track (timed), and verifies each payload
        against the checksum stored at burn time.  The discs that read
        back are the array's erasure shards, by their position in the
        committed membership (data, then P, then Q), so up to as many
        unreadable or mismatching data images as the array has parity
        discs are decoded with :func:`~repro.storage.raid.erasure_decode`;
        their files are rewritten into fresh buckets and the MV index
        entries repointed (§4.7).  Beyond that the survivors are salvaged
        and the casualties recorded.  An array left without its full
        parity is migrated and retired.  With ``migrate=True`` every
        readable data image is additionally rewritten onto fresh media and
        the tray retired — the media-refresh path of a preservation
        campaign.  Returns a report dict.
        """
        self.scrubs += 1
        if self.mc.state_of(roller, address) is not ArrayState.USED:
            raise SectorError("-", -1)  # not a burned array

        def body(loaded) -> Generator:
            # Check, then repair, migrate or retire, all before the
            # array is unloaded.
            report = {
                "checked": 0,
                "errors": 0,
                "checksum_mismatches": 0,
                "repaired": [],
                "migrated": [],
                "lost": [],
            }
            blobs: dict[str, bytes] = {}
            failed: dict[str, int] = {}  # data image id -> blob length
            parity: dict[str, bytes] = {}  # parity image id -> raw
            parity_failed = False
            parity_ids: list[str] = []
            # The DAindex's committed membership, not the disc labels,
            # says which discs are this array and at which shard position
            # (the burn commits data ids, then P, then Q): a disc burned
            # into the tray outside its commit must not vote in the decode.
            members = self.mc.array_images[(roller, address)]
            positions = {image_id: i for i, image_id in enumerate(members)}
            for drive, image in loaded:
                image_id = image.image_id
                if image_id not in positions:
                    continue
                if error_model is not None:
                    aged = error_model.age_disc(drive.disc)
                    self.sector_errors_found += aged
                report["checked"] += 1
                is_parity = image_id.startswith("par-")
                if is_parity:
                    parity_ids.append(image_id)
                try:
                    blob = yield from self.mc.read_image(drive, image)
                except SectorError:
                    blob = None
                record = self.dim.records.get(image_id)
                if (
                    blob is not None
                    and record is not None
                    and record.checksum is not None
                    and hashlib.sha256(blob).hexdigest() != record.checksum
                ):
                    # Sectors read back, but the bytes differ from the
                    # fingerprint stored at burn time: silent corruption.
                    # Treat exactly like an unreadable image (§4.7).
                    report["checksum_mismatches"] += 1
                    self.sector_errors_found += 1
                    blob = None
                if blob is None:
                    report["errors"] += 1
                    if is_parity:
                        parity_failed = True
                    else:
                        failed[image_id] = image.payload_length
                elif is_parity:
                    parity[image_id] = DiscImage.deserialize(blob).raw
                else:
                    blobs[image_id] = blob

            def migrate_survivors(image_ids) -> Generator:
                # Rewrite surviving data images into fresh buckets (the
                # next burn lands them on a fresh array), which marks
                # each lost, then retire the tray.  Its parity images are
                # superseded too (the replacement array gets fresh
                # parity), so the DIM never claims a burned image on a
                # FAILED array.
                for image_id in image_ids:
                    restored = DiscImage.deserialize(blobs[image_id])
                    yield from self._rewrite_image(image_id, restored)
                    report["migrated"].append(image_id)
                self.mc.set_state(roller, address, ArrayState.FAILED)
                for image_id in parity_ids:
                    self.dim.mark_lost(image_id)

            if failed:
                survivors = {**blobs, **parity}
                shards = dict(zip(
                    map(positions.get, survivors),
                    pad_blobs(list(survivors.values())),
                ))
                k = sum(not i.startswith("par-") for i in members)
                try:
                    decoded = erasure_decode(k, shards)
                except RaidDegradedError:
                    # Beyond this array's redundancy: salvage the
                    # survivors, record the casualties.
                    report["lost"].extend(sorted(failed))
                    for image_id in failed:
                        self.dim.mark_lost(image_id)
                    yield from migrate_survivors(list(blobs))
                else:
                    for image_id, lost_length in failed.items():
                        blob = decoded[positions[image_id]].tobytes()
                        restored = DiscImage.deserialize(blob[:lost_length])
                        yield from self._rewrite_image(image_id, restored)
                        report["repaired"].append(image_id)
                        self.images_repaired += 1
            if parity_failed and (
                self.mc.state_of(roller, address) is ArrayState.USED
            ):
                # Degraded redundancy: the data is intact (or was just
                # repaired) but under-protected.  Migrating it lets the
                # next burn re-establish full parity.
                yield from migrate_survivors(list(blobs))
            if migrate and self.mc.state_of(roller, address) is ArrayState.USED:
                # Media refresh: move every surviving data image off the
                # aging tray onto young media (§4.7 applied proactively by
                # a migration campaign).
                yield from migrate_survivors(sorted(blobs))
            return report

        report = yield from self.mc.scan_array(roller, address, body)
        return report

    def _rewrite_image(
        self, lost_image_id: str, restored: DiscImage
    ) -> Generator:
        """Write a recovered image's files into fresh buckets and repoint
        every MV index entry that referenced the lost image."""
        fs = restored.mount()
        new_locations: dict[str, tuple[list[str], list[int]]] = {}
        for path in fs.file_paths():
            from repro.olfs.bucket import LINK_SUFFIX

            if LINK_SUFFIX in path:
                continue
            entry = fs.file_entry(path)
            image_ids, sizes = yield from self.wbm.write_file(
                path,
                entry.data,
                logical_size=entry.logical_size,
                mtime=self.engine.now,
            )
            new_locations[path] = (image_ids, sizes)
        # Repoint MV entries that referenced the lost image; for split
        # files only the lost subfile's slot is spliced out.
        for path in self.mv.all_index_paths():
            index = self.mv.peek_index(path)
            changed = False
            for ring_slot, version in enumerate(index.entries):
                if lost_image_id not in version.locations:
                    continue
                if path not in new_locations:
                    continue
                ids, sizes = new_locations[path]
                slot = version.locations.index(lost_image_id)
                index.entries[ring_slot] = dataclasses.replace(
                    version,
                    locations=version.locations[:slot]
                    + ids
                    + version.locations[slot + 1 :],
                    subfile_sizes=version.subfile_sizes[:slot]
                    + sizes
                    + version.subfile_sizes[slot + 1 :],
                )
                changed = True
            if changed:
                yield from self.mv.write_index(path, index)
        # The lost image is superseded: its data lives on in the new
        # buckets (which will burn to a fresh array); mark it dead.
        self.dim.mark_lost(lost_image_id)

    # ------------------------------------------------------------------
    def wear_report(self) -> dict:
        """Mechanical duty counters for maintenance forecasting.

        Robotics are the shortest-lived components of a 50-year system
        (§2.3: "hardware, software and mechanical components are not
        likely to have the same lifetime as discs"); tracking cycles
        tells the operator when to service arms and motors.
        """
        mech = self.mc.mech
        return {
            "roller_rotations": sum(
                roller.rotation_count for roller in mech.rollers
            ),
            "roller_rotation_seconds": sum(
                roller.rotation_seconds for roller in mech.rollers
            ),
            "arm_moves": sum(arm.moves for arm in mech.arms),
            "arm_travel_seconds": sum(
                arm.travel_seconds for arm in mech.arms
            ),
            "drive_busy_seconds": sum(
                drive.busy_seconds
                for drive_set in mech.drive_sets
                for drive in drive_set.drives
            ),
            "plc_instructions": mech.plc.instructions_executed,
            "plc_faults": mech.plc.faults,
        }
