"""Burning Task Management (BTM) and Disc Burning (DB) — §4.1, §4.7, §4.8.

A burn task forms when a full array's worth of data images is ready (11 by
default), generates the parity image(s) *delayed* (§4.7), claims a drive
set and a blank tray, loads the blank discs, stages the image streams off
the disk buffer and burns all discs concurrently in write-all-once mode.

The §4.8 interrupt-burn policy is supported end to end: an urgent fetch can
stop a burning array at any instant; the burned prefixes are committed as
POW tracks, the array is switched out, and once the interrupting read
finishes the task re-loads the same tray and appends the remainders.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.errors import MechanicsError, ROSError
from repro.faults.policy import RetryPolicy
from repro.media.disc import REST_SUFFIX
from repro.mechanics.geometry import TrayAddress
from repro.olfs.config import OLFSConfig
from repro.olfs.images import DiscImageManager, ImageRecord, ParityRecipe
from repro.olfs.mechanical import (
    ArrayState,
    MechanicalController,
    PRIORITY_BURN,
)
from repro.sim.engine import Delay, Engine, Wait
from repro.storage.scheduler import IOStreamScheduler, StreamKind
from repro.udf.image import DiscImage

#: Backoff between burn-task retry rounds after a drive/media error.
BURN_RETRY = RetryPolicy(
    attempts=4, base_delay=2.0, multiplier=2.0, max_delay=60.0
)


class BurnTask:
    """One disc-array burn from parity generation to unload."""

    def __init__(
        self,
        controller: "BurnController",
        data_records: list[ImageRecord],
    ):
        # Task ids come from the controller so independent OLFS instances
        # number their burns identically (trace determinism).
        self.task_id = next(controller._task_ids)
        self.controller = controller
        self.engine = controller.engine
        self.data_records = data_records
        self.done_event = self.engine.event(f"burn-{self.task_id}-done")
        self.interrupt_requested = False
        self.interruptions = 0
        self.tray: Optional[tuple[int, TrayAddress]] = None
        #: the roller (and so the drive set) of the latest round
        self.roller: Optional[int] = None
        self.state = "pending"
        #: signalled by the fetch that interrupted us once it is done
        self._resume_event = None
        #: fires when the latest round that started burning has ended
        self.round_over = None
        self.data_images: list[DiscImage] = []
        self.parity_records: list[ImageRecord] = []
        #: per disc (blob, logical size, image id), and each data blob's
        #: file extents, from the first round on (see _encode)
        self.payloads, self.extents = None, []

    # ------------------------------------------------------------------
    def request_interrupt(self) -> None:
        """Stop the array burn now; drives not yet started never do (§4.8)."""
        if self.state != "burning":
            return
        self.interrupt_requested = True
        self.interruptions += 1
        self.controller.mc.mech.drive_sets[self.roller].request_interrupt()

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        with self.engine.trace.span(
            "btm.burn_task",
            "btm",
            {"task_id": self.task_id, "images": len(self.data_records)},
        ) as span:
            yield from self._run()
            span.tag("state", self.state)

    def _run(self) -> Generator:
        mc = self.controller.mc
        dim = self.controller.dim
        config = self.controller.config
        try:
            self.state = "parity"
            self.data_images = [record.image for record in self.data_records]
            if config.parity_discs_per_array > 0:
                with self.engine.trace.span("btm.parity", "btm"):
                    self.parity_records = yield from dim.generate_parity(
                        self.data_images
                    )
            burned_prefix: dict[str, float] = {}
            real_prefix: dict[str, int] = {}
            attempts = 0
            tray_failures = 0
            retry_backoffs = list(BURN_RETRY.delays())
            while True:
                attempts += 1
                if attempts > 16:
                    raise MechanicsError("burn task retried too many times")
                try:
                    with self.engine.trace.span(
                        "btm.burn_round", "btm", {"task_id": self.task_id}
                    ):
                        finished = yield from self._burn_round(
                            burned_prefix, real_prefix
                        )
                except ROSError as round_error:
                    # The whole array is abandoned: mark its tray Failed
                    # in the DAindex and restart on fresh blank discs.
                    tray_failures += 1
                    if self.engine.recorder.enabled:
                        self.engine.recorder.record(
                            "btm.retry",
                            task_id=self.task_id,
                            attempt=attempts,
                            tray_failures=tray_failures,
                            error=str(round_error),
                        )
                    if self.tray is not None:
                        mc.set_state(
                            self.tray[0], self.tray[1], ArrayState.FAILED
                        )
                    self.tray = None
                    burned_prefix.clear()
                    real_prefix.clear()
                    if tray_failures >= 3:
                        raise
                    # Back off before retrying on a fresh tray: a drive
                    # hard-failure window should pass, not be hammered.
                    if retry_backoffs:
                        backoff = retry_backoffs[
                            min(tray_failures - 1, len(retry_backoffs) - 1)
                        ]
                        if backoff > 0:
                            yield Delay(backoff)
                    continue
                if finished:
                    break
                # Interrupted: wait for the urgent read to finish, then
                # resume appending-burn on the same tray.
                self._resume_event = self.engine.event(
                    f"burn-{self.task_id}-resume"
                )
                self.controller.notify_interrupted(self)
                yield Wait(self._resume_event)
            self.state = "done"
            self.controller.task_finished(self)
            self.done_event.succeed(self)
        except ROSError as error:
            self.state = "failed"
            if self.tray is not None:
                mc.set_state(self.tray[0], self.tray[1], ArrayState.FAILED)
            self.controller.task_failed(self, error)
            self.done_event.fail(error)
        finally:
            # the controller keeps finished tasks; their bytes go
            self.data_images, self.payloads, self.extents = [], None, []

    def _encode(self) -> None:
        """Serialize the data images and encode their parity, once a
        round holds the drive set, so a queued task holds no bytes.  A
        sealed image is immutable, so parity covers the burned bytes."""
        self.extents = [{} for _ in self.data_images]
        blobs = [image.serialize(extents)
                 for image, extents in zip(self.data_images, self.extents)]
        parity = self.controller.dim.encode_parity(self.parity_records, blobs)
        blobs += [image.serialize() for image in parity]
        self.payloads = [
            (blob, image.logical_size, image.image_id)
            for blob, image in zip(blobs, self.data_images + parity)
        ]

    def _keep_parity_recipes(self, drives: list) -> None:
        """At the commit, each parity track this task burned whole, as one
        track, gives up its bytes for a :class:`ParityRecipe` over the data
        blobs (§4.7): only a scrub or a repair reads a parity disc, and the
        data discs hold those blobs anyway.  The pieces of an interrupted
        burn keep their bytes."""
        count = len(self.data_images)
        blobs = [blob for blob, _, _ in self.payloads[:count]]
        for position, (drive, (blob, _, image_id)) in enumerate(
            zip(drives[count:], self.payloads[count:])
        ):
            track = drive.disc and drive.disc.find_track(image_id)
            if track is not None and track.payload is blob:
                track.payload = ParityRecipe(blob, blobs, position)

    def _burn_round(self, burned_prefix: dict, real_prefix: dict) -> Generator:
        """Load the tray (blank on the first round), burn what remains of
        each image, unload.  Returns True when every image completed.

        A round runs on its tray's roller; a fresh tray comes from the first
        roller, by index, that still holds a blank one, under its lock."""
        mc = self.controller.mc
        dim = self.controller.dim
        mech = mc.mech
        roller = self.roller = (
            mc.blank_roller() if self.tray is None else self.tray[0]
        )
        grant = yield from mc.acquire_set(roller, PRIORITY_BURN)
        while self.tray is None and mc.blank_roller() != roller:
            # the roller's last blank tray went while this round queued
            grant.release()
            roller = self.roller = mc.blank_roller()
            grant = yield from mc.acquire_set(roller, PRIORITY_BURN)
        mc.burn_task_of_set[roller] = self
        drive_set = mech.drive_sets[roller]
        try:
            if self.payloads is None:
                self._encode()
            payloads = self.payloads
            all_images = self.data_images + [
                record.image for record in self.parity_records
            ]
            if not drive_set.is_empty:
                yield from mech.unload_array(roller, priority=PRIORITY_BURN)
            if self.tray is None:
                self.tray = mc.find_blank_tray(roller)
            address = self.tray[1]
            yield from mech.load_array(roller, address, priority=PRIORITY_BURN)
            # Stage the image streams off the disk buffer concurrently
            # with the burn (the §4.7 burn-read stream).
            volume = self.controller.scheduler.volume_for(StreamKind.BURN_READ)

            def stage(nbytes: float) -> Generator:
                yield from volume.read(nbytes)

            for _, size, image_id in payloads:
                done = burned_prefix.get(image_id, 0.0)
                if size - done > 0:
                    self.engine.spawn(
                        stage(size - done), name=f"stage-{image_id}"
                    )

            self.state = "burning"
            self.interrupt_requested = False
            self.round_over = self.engine.event(
                f"burn-{self.task_id}-round-over"
            )
            jobs: list = []
            for (payload, size, image_id) in payloads:
                done = burned_prefix.get(image_id, 0.0)
                if done >= size:
                    jobs.append(None)  # that disc is already finished
                else:
                    body = payload[real_prefix.get(image_id, 0) :]
                    label = image_id if done == 0 else image_id + REST_SUFFIX
                    jobs.append((body, int(size - done), label))
            try:
                results = yield from drive_set.burn_array(
                    jobs,
                    close=True,
                    stagger_seconds=None,
                    abort_check=lambda: self.interrupt_requested,
                )
            except ROSError:
                # A drive/disc failed mid-burn (burn_array has waited for
                # the surviving drives).  Clear the now junk array out of
                # the drives, and let run() retry on a fresh tray.
                yield from mech.unload_array(roller, priority=PRIORITY_BURN)
                raise
            self.state = "placing"
            all_done = True
            for result, job, (payload, size, image_id) in zip(
                results, jobs, payloads
            ):
                if job is None:
                    continue  # disc already finished in an earlier round
                if result is None:
                    all_done = False  # aborted before this burn started
                    continue
                if result.completed:
                    burned_prefix[image_id] = size
                else:
                    burned_prefix[image_id] = (
                        burned_prefix.get(image_id, 0.0) + result.burned_bytes
                    )
                    if result.track is not None:
                        real_prefix[image_id] = real_prefix.get(
                            image_id, 0
                        ) + len(result.track.payload)
                    all_done = False
            if all_done:
                for drive, (blob, _, image_id) in zip(
                    drive_set.drives, payloads
                ):
                    if drive.disc is not None:
                        dim.mark_burned(
                            image_id,
                            drive.disc.disc_id,
                            blob,
                            self.tray,
                        )
                if self.controller.foreparts is not None:
                    self.controller.foreparts.view_burned(payloads, self.extents)
                self._keep_parity_recipes(drive_set.drives)
                mc.set_state(roller, address, ArrayState.USED)
                mc.array_images[self.tray] = [
                    image.image_id for image in all_images
                ]
            try:
                if all_done:
                    # Burned content demotes from pinned buffer space to
                    # the read cache (data) or is dropped outright (parity).
                    for image in all_images:
                        record = dim.records[image.image_id]
                        if (record.kind == "data"
                                and self.controller.cache is not None):
                            self.controller.cache.put(image.image_id, image)
                        elif record.kind != "data":
                            dim.evict_content(image.image_id)
                # Return the discs to their tray either way: on interrupt
                # the array must leave the drives for the urgent read (§4.8).
                yield from mech.unload_array(roller, priority=PRIORITY_BURN)
            except ROSError:
                if not all_done:
                    raise
                # The array is already committed (records burned, DAindex
                # Used, array_images set) — a fault after that must not
                # condemn the tray and re-burn valid discs.  Leave the discs
                # where the fault stranded them; the next unload or a
                # mechanical reset returns them home.
                self.engine.trace.event(
                    "btm.fault_after_commit", "btm", {"task_id": self.task_id}
                )
            return all_done
        finally:
            if mc.burn_task_of_set.get(roller) is self:
                del mc.burn_task_of_set[roller]
            grant.release()
            if self.round_over is not None and not self.round_over.fired:
                self.round_over.succeed()

    def resume(self) -> None:
        """Called once the interrupting read has finished (§4.8)."""
        if self._resume_event is not None and not self._resume_event.fired:
            self._resume_event.succeed()


class BurnController:
    """BTM: forms burn tasks and tracks their completion."""

    def __init__(
        self,
        engine: Engine,
        config: OLFSConfig,
        dim: DiscImageManager,
        mc: MechanicalController,
        scheduler: IOStreamScheduler,
    ):
        self.engine = engine
        self.config = config
        self.dim = dim
        self.mc = mc
        self.scheduler = scheduler
        #: wired by OLFS after construction: burned data images migrate
        #: from pinned buffer space into the LRU read cache, and MV
        #: foreparts held in a burned blob become views of it
        self.cache = None
        self.foreparts = None
        self._task_ids = itertools.count(1)
        self.active_tasks: list[BurnTask] = []
        self.completed_tasks: list[BurnTask] = []
        self.failed_tasks: list[tuple[BurnTask, Exception]] = []
        self.interrupted_tasks: list[BurnTask] = []

    # ------------------------------------------------------------------
    def maybe_schedule(self) -> Optional[BurnTask]:
        """Start a burn when a full array of data images is ready (§4.7)."""
        width = self.config.data_discs_per_array
        if not self.config.auto_burn or len(self.dim.ready) < width:
            return None
        return self.schedule(self.dim.ready[:width])

    def schedule(self, records: list[ImageRecord]) -> BurnTask:
        if not records:
            raise ROSError("cannot schedule an empty burn")
        task = BurnTask(self, records)
        self.dim.claim(records)
        self.active_tasks.append(task)
        self.engine.spawn(task.run(), name=f"burn-task-{task.task_id}")
        return task

    def flush_pending(self) -> list[BurnTask]:
        """Burn whatever unburned images exist, even a partial array."""
        width = self.config.data_discs_per_array
        tasks = []
        while len(self.dim.ready) >= width:
            tasks.append(self.schedule(self.dim.ready[:width]))
        if self.dim.ready:
            tasks.append(self.schedule(self.dim.ready[:]))
        return tasks

    def release_claims(self) -> list[ImageRecord]:
        """Forget the claims of failed tasks, so what they left on the
        buffer burns again; returns those images, in DILindex order.  An
        active task (queued, parked or burning) keeps its claims: it will
        burn them, and a second task over them would burn them twice."""
        return self.dim.release_claims({
            record.image_id
            for task in self.active_tasks
            for record in task.data_records
        })

    # ------------------------------------------------------------------
    # Task callbacks
    # ------------------------------------------------------------------
    def task_finished(self, task: BurnTask) -> None:
        self.active_tasks.remove(task)
        self.completed_tasks.append(task)

    def task_failed(self, task: BurnTask, error: Exception) -> None:
        if task in self.active_tasks:
            self.active_tasks.remove(task)
        self.failed_tasks.append((task, error))

    def notify_interrupted(self, task: BurnTask) -> None:
        self.interrupted_tasks.append(task)

    def resume_interrupted(self) -> None:
        """Resume every burn parked by an interrupting read."""
        tasks, self.interrupted_tasks = self.interrupted_tasks, []
        for task in tasks:
            task.resume()

    def resume_when_parked(self, task: BurnTask, round_over) -> Generator:
        """Resume ``task`` the instant its round ``round_over`` ends, if
        that round parked it (not if it finished, failed over to a fresh
        tray, or was resumed already)."""
        if not round_over.fired:
            yield Wait(round_over)
        if task.round_over is round_over and task in self.interrupted_tasks:
            self.interrupted_tasks.remove(task)
            task.resume()

    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "active": [
                {
                    "task_id": task.task_id,
                    "state": task.state,
                    "set_id": task.roller,
                    "interruptions": task.interruptions,
                }
                for task in self.active_tasks
            ],
            "completed": len(self.completed_tasks),
            "failed": len(self.failed_tasks),
            "interrupted_parked": len(self.interrupted_tasks),
            "claimed_images": len(self.dim.claimed),
        }
