"""Drive sets: 12 drives sharing an HBA, plus the burn-bandwidth throttle.

ROS groups optical drives into sets of 12 (§3.3) matching the 12-disc tray;
each set hangs off PCIe3.0 HBA lanes.  Two set-level effects matter to the
evaluation:

* **Aggregate read efficiency** — twelve concurrent readers reach ~97.5 %
  of 12x the single-drive rate (Table 2: 282.5 vs 12*24.1 = 289.2 MB/s),
  modelled as a small per-drive arbitration penalty.
* **Burn staging and ceiling** — drives in an array burn do not all start
  together: the controller stages one image stream at a time (~38 s for a
  25 GB image off the disk buffer), and the shared streaming path tops out
  around 380 MB/s (Figure 9's short-lived peak).  Modelled as a start
  stagger plus a :class:`BurnThrottle` that scales every active burn by
  ``min(1, cap / total_demand)``.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro import units
from repro.errors import DriveError, ROSError
from repro.drives.drive import (
    BUSY_STATES, BurnResult, DriveState, OpticalDrive, nap, wake,
)
from repro.media.disc import OpticalDisc
from repro.sim.engine import AllOf, Engine, Join

#: Drives per set, matching the 12-disc tray (§3.3).
DRIVES_PER_SET = 12

#: Aggregate-read arbitration efficiency (Table 2 calibration).
READ_EFFICIENCY = 0.975

#: Shared streaming ceiling for concurrent burns (Figure 9 peak).
BURN_CAP = 380 * units.MB

#: Image staging serialization between drive starts in an array burn.
BURN_STAGGER_SECONDS = 38.0


class BurnThrottle:
    """Scales concurrent burns by ``min(1, cap / total nominal demand)``.

    Demand is re-declared by each drive at every row of its burn table
    (only while the ceiling can bind: :meth:`DriveSet.burn_array` decides
    that once per array), so the factor tracks the CAV ramps: early rows
    are slow and uncontended, late rows would exceed the cap and get
    squeezed — reproducing the flat-topped aggregate curve of Figure 9.
    """

    def __init__(self):
        self.cap = float(BURN_CAP)
        self._demand: dict[object, float] = {}

    def update(self, owner: object, rate_bytes_per_s: float) -> None:
        self._demand[owner] = float(rate_bytes_per_s)

    def remove(self, owner: object) -> None:
        self._demand.pop(owner, None)

    @property
    def total_demand(self) -> float:
        return sum(self._demand.values())

    def factor(self) -> float:
        demand = self.total_demand
        if demand <= self.cap:
            return 1.0
        return self.cap / demand


class DriveSet:
    """Twelve drives addressed together by the arm and the burn scheduler."""

    def __init__(self, engine: Engine, set_id: int = 0):
        self.engine = engine
        self.set_id = set_id
        self.drives = [
            OpticalDrive(engine, f"set{set_id}-drive{index:02d}")
            for index in range(DRIVES_PER_SET)
        ]
        self.throttle = BurnThrottle()
        #: tray address currently checked out into this set, if any
        self.loaded_from: Optional[tuple[int, tuple[int, int]]] = None
        #: array-burn processes still sleeping out their start stagger
        self._staged: list = []

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        for drive in self.drives:
            if drive.disc is not None:
                return False
        return True

    @property
    def is_busy(self) -> bool:
        for drive in self.drives:
            if drive.state in BUSY_STATES:
                return True
        return False

    @property
    def is_burning(self) -> bool:
        return any(drive.state is DriveState.BURNING for drive in self.drives)

    def find_disc(self, disc_id: str) -> Optional[OpticalDrive]:
        for drive in self.drives:
            if drive.disc is not None and drive.disc.disc_id == disc_id:
                return drive
        return None

    def set_group_read_mode(self, concurrent_readers: int) -> None:
        """Apply the arbitration penalty when >1 drive reads concurrently."""
        efficiency = READ_EFFICIENCY if concurrent_readers > 1 else 1.0
        for drive in self.drives:
            drive.read_efficiency = efficiency

    # ------------------------------------------------------------------
    # The arm's tray steps: the edges OpticalDrive's open_tray /
    # insert_disc / close_tray take, one step per array or disc
    # ------------------------------------------------------------------
    def open_all_trays(self) -> None:
        """Open every tray for a load: each drive must be empty and idle."""
        for drive in self.drives:
            if drive.disc is not None or drive.state in BUSY_STATES:
                raise DriveError(
                    f"set {self.set_id}: drive {drive.drive_id} not free"
                )
            drive._transition(DriveState.TRAY_OPEN, "open_tray")

    def place_disc(self, index: int, disc: OpticalDisc) -> None:
        """Drop ``disc`` into drive ``index``'s open tray and close it."""
        drive = self.drives[index]
        if drive.state is not DriveState.TRAY_OPEN:
            raise DriveError(f"{drive.drive_id}: tray is not open")
        if drive.disc is not None:
            raise DriveError(f"{drive.drive_id}: already holds a disc")
        drive.disc = disc
        drive._transition(DriveState.SLEEPING, "close_tray")

    def take_disc(self, drive: OpticalDrive) -> OpticalDisc:
        """Open ``drive``'s tray, take its disc out and close it empty."""
        if drive.state in BUSY_STATES:
            raise DriveError(f"{drive.drive_id}: busy, cannot open tray")
        disc = drive.disc
        if disc is None:
            raise DriveError(f"{drive.drive_id}: no disc to remove")
        drive._transition(DriveState.TRAY_OPEN, "open_tray")
        drive.disc = None
        drive._transition(DriveState.EMPTY, "close_tray")
        return disc

    # ------------------------------------------------------------------
    # Array operations (simulation processes)
    # ------------------------------------------------------------------

    def request_interrupt(self) -> None:
        """Stop the array burn in flight now (§4.8): burning drives commit
        what they have written, staged ones wake to ``abort_check``."""
        for drive in self.drives:
            if drive.state is DriveState.BURNING:
                drive.request_interrupt()
        for process in self._staged:
            wake(process)

    def burn_array(
        self,
        images: list[tuple[bytes, Optional[int], str]],
        close: bool = True,
        stagger_seconds: Optional[float] = None,
        abort_check=None,
    ) -> Generator:
        """Burn one image per drive with staged starts; returns results.

        ``images`` is a list of ``(payload, logical_size, label)`` tuples,
        one per drive in order; a ``None`` entry skips that drive (its disc
        is already fully burned).  Returns ``list[BurnResult]`` aligned
        with the input (``None`` for skipped drives).

        When a burn fails, staged drives are woken and never start, and
        burning ones are waited for before the failure is re-raised: no
        process of this call outlives it.
        """
        if len(images) > len(self.drives):
            raise DriveError(
                f"{len(images)} images exceed {len(self.drives)} drives"
            )
        stagger = (
            BURN_STAGGER_SECONDS
            if stagger_seconds is None
            else stagger_seconds
        )

        # Set once a sibling burn has failed: a drive rising from its
        # stagger must not burn onto whatever disc the set holds by then
        # (the next array's).
        sibling_failed = False

        def aborted() -> bool:
            return sibling_failed or (
                abort_check is not None and abort_check()
            )

        def one(index: int, drive: OpticalDrive, image, curve) -> Generator:
            payload, logical_size, label = image
            # Staging delay: one sleep, cut short (Interrupt) the instant
            # a sibling fails or an interrupt-burn request (§4.8) arrives.
            due = self.engine.now + index * stagger
            staged = self.engine.current_process
            self._staged.append(staged)
            try:
                while self.engine.now < due and not aborted():
                    yield from nap(self.engine, due)
            finally:
                self._staged.remove(staged)
            if aborted():
                return None
            result = yield from drive.burn(
                payload,
                logical_size=logical_size,
                label=label,
                close=close,
                curve=curve,
                throttle=throttle,
            )
            return result

        # Can the set's ceiling bind at all?  Every image is known here,
        # so compare the drives' combined peak demand with the cap once;
        # a burn the throttle cannot touch is a single sleep.
        jobs = []
        peak_demand = 0.0
        for index, image in enumerate(images):
            if image is None:
                continue
            drive = self.drives[index]
            if drive.disc is None:
                raise DriveError(f"{drive.drive_id}: no disc for burn")
            curve = drive.recording_curve()
            payload, logical_size, _label = image
            size = len(payload) if logical_size is None else int(logical_size)
            table = curve.burn_table(
                size, drive.disc.used_bytes / drive.disc.capacity
            )
            # Rows are tuples led by their rate: the largest row's rate.
            peak_demand += max(table, default=(0.0,))[0]
            jobs.append((index, drive, image, curve))
        throttle = self.throttle if peak_demand > self.throttle.cap else None

        processes = [
            self.engine.spawn(one(*job), name=f"burn-{job[0]}")
            for job in jobs
        ]
        try:
            completed: list[Optional[BurnResult]] = yield AllOf(processes)
        except Exception:
            sibling_failed = True
            for process in self._staged:
                wake(process)
            for process in processes:
                try:
                    yield Join(process)
                except ROSError:
                    pass  # the first failure is the one re-raised
            raise
        results: list[Optional[BurnResult]] = [None] * len(images)
        for (index, *_), result in zip(jobs, completed):
            results[index] = result
        return results

    def read_all_tracks(self) -> Generator:
        """Read the first track of every loaded disc concurrently.

        Returns ``list[bytes]`` payloads in drive order.  Models Table 2's
        aggregate-read experiment.
        """
        loaded = [drive for drive in self.drives if drive.has_disc]
        self.set_group_read_mode(len(loaded))

        def one(drive: OpticalDrive) -> Generator:
            yield from drive.mount()
            yield from drive.seek()
            payload = yield from drive.read_track_payload(0)
            return payload

        processes = [
            self.engine.spawn(one(drive), name=drive.drive_id)
            for drive in loaded
        ]
        payloads = yield AllOf(processes)
        self.set_group_read_mode(1)
        return payloads

    def health(self) -> dict:
        """Aggregate snapshot: per-drive states plus set-level occupancy."""
        states: dict[str, int] = {}
        for drive in self.drives:
            states[drive.state.value] = states.get(drive.state.value, 0) + 1
        return {
            "set_id": self.set_id,
            "drives": len(self.drives),
            "loaded": sum(1 for d in self.drives if d.has_disc),
            "burning": sum(
                1 for d in self.drives if d.state is DriveState.BURNING
            ),
            "reading": sum(
                1 for d in self.drives if d.state is DriveState.READING
            ),
            "states": dict(sorted(states.items())),
            "loaded_from": (
                [self.loaded_from[0], list(self.loaded_from[1])]
                if self.loaded_from is not None
                else None
            ),
            "throttle_demand_mb_s": round(
                sum(drive.burn_demand() for drive in self.drives) / units.MB,
                3,
            ),
            "per_drive": [drive.health() for drive in self.drives],
        }
