"""The Mechanical Controller (MC): drive-set arbitration and the DAindex.

"MC not only communicates with PLC, but also schedules disc burning and
fetching tasks to optimize the usage of mechanical resources" (§4.1).

Responsibilities here:

* **DAindex** (§4.1) — every tray/disc-array is Empty, Used or Failed;
* **drive-set locks** — one per roller, as each roller feeds its own
  drive set; one burn or fetch owns a set at a time, and urgent fetches
  (priority 0) queue ahead of background burns (priority 10);
* **the busy-drive read policy** (§4.8) — when the roller's drive set is
  burning, either wait for the burn or interrupt it (appending-burn mode);
* the mapping from burned image IDs to tray addresses so fetches know
  which array to load.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.drives.drive import OpticalDrive
from repro.errors import MechanicsError
from repro.mechanics.geometry import TrayAddress
from repro.mechanics.library import MechanicalSubsystem
from repro.media.disc import ImageOnDisc
from repro.olfs.config import OLFSConfig
from repro.sim.engine import Acquire, Engine
from repro.sim.resources import Grant, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.olfs.burning import BurnTask

#: Queue priorities on drive-set locks.
PRIORITY_FETCH = 0
PRIORITY_BURN = 10


class ArrayState(enum.Enum):
    EMPTY = "Empty"
    USED = "Used"
    FAILED = "Failed"


class MechanicalController:
    """Owns drive-set access and the disc-array bookkeeping."""

    def __init__(
        self,
        engine: Engine,
        mech: MechanicalSubsystem,
        config: OLFSConfig,
    ):
        self.engine = engine
        self.mech = mech
        self.config = config
        self.da_index: dict[tuple[int, TrayAddress], ArrayState] = {}
        #: tray -> image ids burned there (in drive order)
        self.array_images: dict[tuple[int, TrayAddress], list[str]] = {}
        self._locks = [
            Resource(engine, 1, name=f"drive-set-{index}")
            for index in range(len(mech.rollers))
        ]
        #: burn task holding each roller's set (for the interrupt policy)
        self.burn_task_of_set: dict[int, "BurnTask"] = {}
        self._blank_cursor: dict[int, int] = {
            roller.roller_id: 0 for roller in mech.rollers
        }
        #: every tray address, top layer first (the blank-tray scan order)
        self._addresses = tuple(mech.geometry.addresses())
        for roller in mech.rollers:
            for address in self._addresses:
                self.da_index[(roller.roller_id, address)] = ArrayState.EMPTY

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "da_index": self.counts(),
            "set_locks": [
                {
                    "set_id": index,
                    "available": lock.available,
                    "queue_length": lock.queue_length,
                    "burning_task": (
                        self.burn_task_of_set[index].task_id
                        if index in self.burn_task_of_set
                        else None
                    ),
                }
                for index, lock in enumerate(self._locks)
            ],
            "arrays_mapped": len(self.array_images),
        }

    # ------------------------------------------------------------------
    # DAindex
    # ------------------------------------------------------------------
    def state_of(self, roller: int, address: TrayAddress) -> ArrayState:
        return self.da_index[(roller, address)]

    def set_state(
        self, roller: int, address: TrayAddress, state: ArrayState
    ) -> None:
        self.da_index[(roller, address)] = state

    def counts(self) -> dict[str, int]:
        summary = {state.value: 0 for state in ArrayState}
        for state in self.da_index.values():
            summary[state.value] += 1
        return summary

    def find_blank_tray(self, roller_index: int) -> tuple[int, TrayAddress]:
        """The roller's next Empty tray full of blank discs, filling
        top-down: the scan resumes from its cursor and stops at the first
        hit."""
        index = self._next_blank(self.mech.rollers[roller_index])
        if index is None:
            raise MechanicsError("no blank disc arrays left")
        self._blank_cursor[roller_index] = index
        return roller_index, self._addresses[index]

    def blank_roller(self) -> int:
        """The first roller, by index, that still holds a blank tray; the
        last roller when none does (its :meth:`find_blank_tray` raises)."""
        *others, last = self.mech.rollers
        return next(
            (r.roller_id for r in others if self._next_blank(r) is not None),
            last.roller_id,
        )

    def _next_blank(self, roller) -> Optional[int]:
        """Index of the roller's first blank tray at or after its cursor."""
        addresses = self._addresses
        start = self._blank_cursor[roller.roller_id]
        for offset in range(len(addresses)):
            index = (start + offset) % len(addresses)
            if self._is_blank_tray(roller, addresses[index]):
                return index
        return None

    def _is_blank_tray(self, roller, address: TrayAddress) -> bool:
        """Empty in the DAindex, at home, full, and every disc blank."""
        if self.da_index[(roller.roller_id, address)] is not ArrayState.EMPTY:
            return False
        tray = roller.tray_at(address)
        if tray.checked_out or not tray.is_full:
            return False
        return all(disc.is_blank for disc in tray.discs())

    # ------------------------------------------------------------------
    # Drive-set locks
    # ------------------------------------------------------------------
    def acquire_set(self, roller_index: int, priority: int) -> Generator:
        with self.engine.trace.span(
            "mc.acquire_set", "mc",
            {"set_id": roller_index, "priority": priority},
        ):
            grant = yield Acquire(self._locks[roller_index], priority)
        return grant

    # ------------------------------------------------------------------
    # Whole-array reads (scrub, disc-scan recovery)
    # ------------------------------------------------------------------
    def scan_array(
        self,
        roller_index: int,
        address: TrayAddress,
        body: Callable[[list], Generator],
    ) -> Generator:
        """Load the array at ``address`` into a set at fetch priority, run
        the process ``body(loaded)`` over its ``(drive, image)`` pairs (one
        per disc that holds an image, in drive order), unload and release;
        returns the body's result.  On an error the set is released
        without an unload."""
        grant = yield from self.acquire_set(roller_index, PRIORITY_FETCH)
        try:
            yield from self.mech.swap_array(
                roller_index, address, PRIORITY_FETCH
            )
            loaded = [
                (drive, drive.disc.image())
                for drive in self.mech.drive_sets[roller_index].drives
                if drive.disc is not None and drive.disc.tracks
            ]
            result = yield from body(loaded)
            yield from self.mech.unload_array(roller_index, PRIORITY_FETCH)
            return result
        finally:
            grant.release()

    @staticmethod
    def read_image(drive: OpticalDrive, image: ImageOnDisc) -> Generator:
        """Stream a whole image off the disc in ``drive`` (mount, seek,
        its logical size); returns its bytes."""
        yield from drive.mount()
        yield from drive.seek()
        yield from drive.read_bytes(image.logical_size)
        return image.read()

    # ------------------------------------------------------------------
    # Fetch path (§4.8 read policies)
    # ------------------------------------------------------------------
    def ensure_disc_in_drive(self, disc_id: str) -> Generator:
        """Make ``disc_id`` readable in some drive at fetch priority;
        returns ``(drive, grant)`` with the set lock held by the caller.

        A disc in a roller is read through that roller's drive set.  Under
        the §4.8 interrupt policy the fetch first stops a burn on that set;
        otherwise lock priority puts it ahead of new burns."""
        with self.engine.trace.span(
            "mc.ensure_disc_in_drive", "mc", {"disc_id": disc_id}
        ) as span:
            # Already sitting in a drive set?
            for drive_set in self.mech.drive_sets:
                if drive_set.find_disc(disc_id) is not None:
                    grant = yield from self.acquire_set(
                        drive_set.set_id, PRIORITY_FETCH
                    )
                    drive = drive_set.find_disc(disc_id)
                    if drive is not None:
                        span.tag("already_in_drive", True)
                        return drive, grant
                    grant.release()  # moved away while we queued; fall through
                    break
            located = self.mech.locate_disc(disc_id)
            if located is None:
                raise MechanicsError(
                    f"disc {disc_id} is nowhere in the library"
                )
            roller_index, address = located
            if self.config.busy_drive_policy == "interrupt":
                task = self.burn_task_of_set.get(roller_index)
                if task is not None:
                    task.request_interrupt()  # a no-op unless it burns
            span.tag("set_id", roller_index)
            grant = yield from self.acquire_set(roller_index, PRIORITY_FETCH)
            try:
                drive_set = self.mech.drive_sets[roller_index]
                # The disc may have arrived while we waited.
                drive = drive_set.find_disc(disc_id)
                if drive is not None:
                    return drive, grant
                yield from self.mech.swap_array(
                    roller_index, address, priority=PRIORITY_FETCH
                )
                drive = drive_set.find_disc(disc_id)
                if drive is None:
                    raise MechanicsError(
                        f"disc {disc_id} missing after loading tray {address}"
                    )
                return drive, grant
            except BaseException:
                grant.release()
                raise

