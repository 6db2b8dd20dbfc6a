"""The optical drive state machine.

Models a Pioneer BDR-S09XLB-class half-height SATA drive (§5.1): tray
load/eject, spin-up from sleep (~2 s), mounting the disc's file system into
the local VFS (~220 ms), file seeks (~100 ms), streaming reads at the
media's sustained rate, and burning along a calibrated
:class:`~repro.drives.speed.RecordingCurve`.

Burns are *interruptible* at any instant: a burn sleeps through every
stretch in which nothing can change its rate and is woken the moment a fault
is armed for it or the interrupt-burn read policy (§4.8) asks it to stop;
the partial image, cut where the laser was, is committed as a
Pseudo-Over-Write track, and the remainder is appended later.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from repro import units
from repro.errors import DriveError
from repro.drives.speed import BurnRow, RecordingCurve, curve_for
from repro.media.disc import PARTIAL_SUFFIX, OpticalDisc, Track
from repro.sim.engine import Delay, Engine, Interrupt
from repro.sim.landing import delay_until

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.drives.drive_set import BurnThrottle

#: Spin-up delay when a sleeping drive mounts a disc (§5.4).
SPIN_UP_SECONDS = 2.0
#: Mounting the disc's file system into the local VFS (§5.4).
VFS_MOUNT_SECONDS = 0.220
#: Seeking a file on the disc (§5.4).
FILE_SEEK_SECONDS = 0.100
#: Peak drive power (§5.1), used by the power accounting.
DRIVE_PEAK_POWER_W = 8.0


def nap(engine: Engine, due: float) -> Generator:
    """Sleep until the clock reads ``due`` unless :func:`wake` cuts it
    short; the caller loops on ``engine.now < due``."""
    try:
        yield Delay(delay_until(engine.now, due))
    except Interrupt:
        pass


def wake(process) -> None:
    """Resume a napping process now; a runnable one is about to look."""
    if process is not None and process.waiting_on() is not None:
        process.interrupt()


def laser_position(rows: tuple[BurnRow, ...], seconds_in: float):
    """``(bytes burned, nominal rate)`` at ``seconds_in`` uncontended
    seconds into ``rows``: a row's rate is constant, so linear inside it."""
    burned = rate = 0.0
    for rate, seconds, nbytes, _end_progress in rows:
        if seconds_in < seconds:
            return burned + nbytes * (seconds_in / seconds), rate
        seconds_in -= seconds
        burned += nbytes
    return burned, rate


class DriveState(enum.Enum):
    EMPTY = "empty"
    TRAY_OPEN = "tray-open"
    SLEEPING = "sleeping"  # disc present, spindle stopped
    IDLE = "idle"  # disc present and spinning
    MOUNTED = "mounted"  # disc file system visible in local VFS
    BURNING = "burning"
    READING = "reading"


#: states in which the tray stays shut and the drive counts as busy
BUSY_STATES = (DriveState.BURNING, DriveState.READING)


@dataclass
class BurnResult:
    """Outcome of a burn: completion flag, bytes/seconds, and the track."""

    completed: bool
    burned_bytes: float
    elapsed_seconds: float
    track: Optional[Track]


class OpticalDrive:
    """One optical drive: a slot in a drive set, addressable by the arm."""

    def __init__(self, engine: Engine, drive_id: str):
        self.engine = engine
        self.drive_id = drive_id
        self.state = DriveState.EMPTY
        self.disc: Optional[OpticalDisc] = None
        #: multiplier (<= 1) on read throughput from HBA arbitration
        self.read_efficiency = 1.0
        self.busy_seconds = 0.0
        self._interrupt_requested = False
        #: the process inside :meth:`burn` (whom to wake) and the step it
        #: sleeps through, ``(rows, started, throttle factor)``
        self._burn_process = self._burn_step = None
        #: spindle power policy: after this many idle seconds the drive
        #: drops to SLEEPING and the next access pays the 2 s spin-up
        #: (§5.4: the spin-up and VFS mount "occur only when the drive is
        #: in the sleep state"); None = stay spinning
        self.idle_sleep_seconds = None
        self._last_active = engine.now
        # Right after a VFS mount the head sits on the freshly-read
        # metadata, so the first file access needs no separate seek —
        # matching Table 1's 0.223 s disc-in-drive row (220 ms mount + MV).
        self._just_mounted = False

    # ------------------------------------------------------------------
    # Tray + disc handling (instantaneous: the mechanical constants of the
    # arm's separate/collect phases already include drive-tray actuation).
    # The arm's loads and unloads take the same edges through
    # :class:`~repro.drives.drive_set.DriveSet`'s set-level steps.
    # ------------------------------------------------------------------
    def open_tray(self) -> None:
        if self.state in BUSY_STATES:
            raise DriveError(f"{self.drive_id}: busy, cannot open tray")
        self._transition(DriveState.TRAY_OPEN, "open_tray")

    def insert_disc(self, disc: OpticalDisc) -> None:
        if self.state is not DriveState.TRAY_OPEN:
            raise DriveError(f"{self.drive_id}: tray is not open")
        if self.disc is not None:
            raise DriveError(f"{self.drive_id}: already holds a disc")
        self.disc = disc

    def close_tray(self) -> None:
        if self.state is not DriveState.TRAY_OPEN:
            raise DriveError(f"{self.drive_id}: tray is not open")
        self._transition(
            DriveState.SLEEPING if self.disc else DriveState.EMPTY,
            "close_tray",
        )

    def _transition(self, state: DriveState, reason: str) -> None:
        """Change state, journalling the edge to the flight recorder."""
        if state is self.state:
            return
        if self.engine.recorder.enabled:
            self.engine.recorder.record(
                "drive.transition",
                drive_id=self.drive_id,
                reason=reason,
                **{"from": self.state.value, "to": state.value},
            )
        self.state = state

    def _check_op_fault(self) -> None:
        """Raise if the fault injector has an armed 'drive.op' fault."""
        fault = self.engine.faults.check("drive.op", self)
        if fault is not None:
            raise DriveError(
                f"{self.drive_id}: injected fault ({fault.kind})"
            )

    @property
    def has_disc(self) -> bool:
        return self.disc is not None

    @property
    def is_busy(self) -> bool:
        return self.state in BUSY_STATES

    # ------------------------------------------------------------------
    # Spin-up and mounting
    # ------------------------------------------------------------------
    def _apply_idle_policy(self) -> None:
        """Drop a long-idle drive to SLEEPING (lazy evaluation)."""
        if (
            self.idle_sleep_seconds is not None
            and self.state in (DriveState.IDLE, DriveState.MOUNTED)
            and self.engine.now - self._last_active >= self.idle_sleep_seconds
        ):
            self._transition(DriveState.SLEEPING, "idle_policy")
            self._just_mounted = False

    def ensure_spinning(self) -> Generator:
        """Spin up from sleep (2 s); no-op if already spinning."""
        self._require_disc()
        self._apply_idle_policy()
        if self.state is DriveState.SLEEPING:
            with self.engine.trace.span(
                "drive.spin_up", "drive", {"drive_id": self.drive_id}
            ):
                yield Delay(SPIN_UP_SECONDS)
            self.busy_seconds += SPIN_UP_SECONDS
            self._transition(DriveState.IDLE, "spin_up")
        self._last_active = self.engine.now

    def mount(self) -> Generator:
        """Make the disc's fs visible in the local VFS (220 ms)."""
        self._require_disc()
        self._check_op_fault()
        yield from self.ensure_spinning()
        if self.state is not DriveState.MOUNTED:
            with self.engine.trace.span(
                "drive.mount", "drive", {"drive_id": self.drive_id}
            ):
                yield Delay(VFS_MOUNT_SECONDS)
            self.busy_seconds += VFS_MOUNT_SECONDS
            self._transition(DriveState.MOUNTED, "mount")
            self._just_mounted = True
        self._last_active = self.engine.now

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_rate(self) -> float:
        """Sustained read rate in bytes/second for the loaded media."""
        self._require_disc()
        return self.disc.disc_type.read_speed_mbs * units.MB * self.read_efficiency

    def seek(self) -> Generator:
        """Position the optical head on a file (100 ms).

        Free immediately after a mount (head already on the metadata).
        """
        self._require_disc()
        self._check_op_fault()
        if self._just_mounted:
            self._just_mounted = False
            return
        with self.engine.trace.span(
            "drive.seek", "drive", {"drive_id": self.drive_id}
        ):
            yield Delay(FILE_SEEK_SECONDS)
        self.busy_seconds += FILE_SEEK_SECONDS
        self._last_active = self.engine.now

    def read_bytes(self, nbytes: float) -> Generator:
        """Stream ``nbytes`` from the mounted disc (state: READING)."""
        if self.state is not DriveState.MOUNTED:
            raise DriveError(f"{self.drive_id}: disc not mounted")
        self._check_op_fault()
        seconds = nbytes / self.read_rate()
        self._transition(DriveState.READING, "read")
        try:
            with self.engine.trace.span(
                "drive.read",
                "drive",
                {"drive_id": self.drive_id, "bytes": int(nbytes)},
            ):
                yield Delay(seconds)
        finally:
            self.busy_seconds += seconds
            self._transition(DriveState.MOUNTED, "read_done")
            self._last_active = self.engine.now

    def read_track_payload(self, track_index: int) -> Generator:
        """Read a full track: stream its logical size, return real payload."""
        self._require_disc()
        track = self.disc.tracks[track_index]
        yield from self.read_bytes(track.logical_size)
        return self.disc.read_track(track)

    # ------------------------------------------------------------------
    # Burning
    # ------------------------------------------------------------------
    def request_interrupt(self) -> None:
        """Stop a burning drive now: it commits what the laser has written."""
        if self.state is not DriveState.BURNING:
            raise DriveError(f"{self.drive_id}: not burning")
        self._interrupt_requested = True
        wake(self._burn_process)

    def recording_curve(self) -> RecordingCurve:
        """The loaded disc's calibrated curve (fail-safe dip placement is
        seeded stably from the disc's identity)."""
        seed = zlib.crc32(self.disc.disc_id.encode()) & 0xFFFF
        return curve_for(self.disc.disc_type, seed=seed)

    def burn_demand(self) -> float:
        """Nominal bytes/second the laser asks for right now, read off the
        burn's table at the elapsed time (0 when not burning)."""
        if self._burn_step is None:
            return 0.0
        rows, started, factor = self._burn_step
        return laser_position(rows, (self.engine.now - started) * factor)[1]

    def burn(
        self,
        payload: bytes,
        logical_size: Optional[int] = None,
        label: str = "",
        close: bool = True,
        curve: Optional[RecordingCurve] = None,
        throttle: Optional["BurnThrottle"] = None,
    ) -> Generator:
        """Burn one image as a track; yields until done or interrupted.

        Returns a :class:`BurnResult`.  When interrupted mid-burn, the
        burned prefix is committed as an open (POW) track labelled
        ``label + PARTIAL_SUFFIX`` and ``completed`` is False.

        The burn sleeps once per *step*, a stretch in which nothing can
        change its rate: the whole table without a ``throttle`` (the
        set's ceiling cannot bind), one row at a time with one.  It is
        woken the instant :meth:`request_interrupt` is called or a fault
        is armed for this drive, and reads the laser's position off
        elapsed time.  Faults are checked as the laser starts, at every
        wake and at every step's end, so a one-shot armed on an *idle*
        drive trips its next burn at the first instant, nothing written —
        once: the drive that trips it consumes it.  Delivery needs the
        injector installed before the laser starts; one installed mid-burn
        is still consulted at every wake and step end, as any is.
        """
        self._require_disc()
        if self.is_busy:
            raise DriveError(f"{self.drive_id}: drive is busy")
        self._check_op_fault()
        yield from self.ensure_spinning()
        size = len(payload) if logical_size is None else int(logical_size)
        curve = curve or self.recording_curve()
        start_progress = self.disc.used_bytes / self.disc.capacity
        table = curve.burn_table(size, start_progress)
        steps = [table] if throttle is None else [(row,) for row in table]
        self._transition(DriveState.BURNING, "burn")
        self._interrupt_requested = False
        faults = self.engine.faults
        self._burn_process = self.engine.current_process
        if faults.enabled:
            faults.subscribe(self, self._burn_process)
        started = self.engine.now
        seconds_in = 0.0  # uncontended table seconds behind the laser

        def trip_if_faulted() -> None:
            check = self.engine.faults.check
            fault = check("drive.burn", self) or check("drive.op", self)
            if fault is not None:
                written = laser_position(table, seconds_in)[0]
                raise DriveError(
                    f"{self.drive_id}: write error at "
                    f"{start_progress + written / curve.capacity:.0%} "
                    f"(injected {fault.kind})"
                )

        burn_span = self.engine.trace.span(
            "drive.burn",
            "drive",
            {"drive_id": self.drive_id, "bytes": size, "label": label},
        )
        burn_span.__enter__()
        try:
            trip_if_faulted()
            for rows in steps:
                if self._interrupt_requested:
                    break
                factor = 1.0
                if throttle is not None:
                    throttle.update(self, rows[0][0])
                    factor = throttle.factor()
                # Due when a clock advanced row after row would read so:
                # the burn ends at the instant its polled form did.
                step_from, step_started = seconds_in, self.engine.now
                due = step_started
                for row in rows:
                    due += row[1] / factor
                self._burn_step = (rows, step_started, factor)
                while self.engine.now < due and not self._interrupt_requested:
                    yield from nap(self.engine, due)
                    elapsed = self.engine.now - step_started
                    seconds_in = step_from + elapsed * factor
                    trip_if_faulted()
        finally:
            if throttle is not None:
                throttle.remove(self)
            if faults.enabled:
                faults.unsubscribe(self._burn_process)
            self._burn_process = self._burn_step = None
            self.busy_seconds += self.engine.now - started
            self._transition(DriveState.IDLE, "burn_done")
            self._last_active = self.engine.now
            if self._interrupt_requested:
                burn_span.tag("interrupted", True)
            burn_span.__exit__(None, None, None)
        interrupted = self._interrupt_requested
        self._interrupt_requested = False
        if interrupted:
            burned = min(laser_position(table, seconds_in)[0], float(size))
            fraction = burned / size if size else 1.0
            partial_payload = payload[: int(len(payload) * fraction)]
            track = self.disc.burn_track(
                partial_payload,
                logical_size=int(burned),
                label=label + PARTIAL_SUFFIX,
                close=False,
            )
            return BurnResult(False, burned, self.engine.now - started, track)
        track = self.disc.burn_track(
            payload, logical_size=size, label=label, close=close
        )
        return BurnResult(True, float(size), self.engine.now - started, track)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap read-only snapshot for the system monitor."""
        return {
            "drive_id": self.drive_id,
            "state": self.state.value,
            "disc": self.disc.disc_id if self.disc else None,
            "busy_seconds": round(self.busy_seconds, 6),
            "interrupt_requested": self._interrupt_requested,
        }

    def _require_disc(self) -> None:
        if self.disc is None:
            raise DriveError(f"{self.drive_id}: no disc loaded")
        if self.state is DriveState.TRAY_OPEN:
            raise DriveError(f"{self.drive_id}: tray is open")
