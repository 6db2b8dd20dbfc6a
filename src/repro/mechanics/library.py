"""The mechanical subsystem: rollers + arms + PLC + drive sets, composed.

This is the layer the OLFS Mechanical Controller talks to.  It exposes the
two composite operations the paper measures (Table 3):

* :meth:`MechanicalSubsystem.load_array` — bring a tray's 12 discs from the
  roller into a drive set (rotate, travel, hook, fan out, grab/lift,
  fan in, then separate discs one by one into opened drives).
* :meth:`MechanicalSubsystem.unload_array` — collect the 12 discs from the
  drives and return them to their tray.

Arm access is serialized per roller through a simulation resource, with
priorities so urgent fetches (cache-miss reads) can jump the queue ahead of
background burn staging.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.drives.drive_set import DriveSet
from repro.errors import MechanicsError
from repro.mechanics import geometry
from repro.mechanics.arm import PARK_LAYER, RoboticArm
from repro.mechanics.geometry import TrayAddress
from repro.mechanics.roller import Roller, home_of_disc
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.media.disc import OpticalDisc
from repro.media.tray import Tray
from repro.plc.controller import PLCController
from repro.plc.instructions import (
    FanIn,
    FanOut,
    GrabStack,
    HookTray,
    LowerStack,
    MoveArm,
    ReleaseTray,
    Rotate,
    SeparateDisc,
)
from repro.sim.engine import Acquire, Delay, Engine
from repro.sim.resources import Resource


class MechanicalSubsystem:
    """Rollers, arms, PLC and drive sets of one ROS rack.

    Each roller has its own arm and feeds its own 12-drive set (§3: two
    rollers, 24 drives), so one index names the roller, its arm and its
    drive set.
    """

    def __init__(
        self,
        engine: Engine,
        roller_count: int = 2,
        parallel_scheduling: bool = False,
    ):
        self.engine = engine
        self.geometry = geometry.DEFAULT_GEOMETRY
        self.timings = DEFAULT_TIMINGS
        self.parallel_scheduling = parallel_scheduling
        self.rollers = [Roller(index) for index in range(roller_count)]
        self.arms = [RoboticArm(index) for index in range(roller_count)]
        self.plc = PLCController(engine, self.rollers, self.arms)
        self.drive_sets = [
            DriveSet(engine, index) for index in range(roller_count)
        ]
        #: frozen instructions built once: separations, commands_for()'s
        self._separations = [SeparateDisc(arm) for arm in range(roller_count)]
        self._tray_commands: dict[tuple[int, TrayAddress], tuple] = {}
        self._arm_locks = [
            Resource(engine, 1, name=f"arm{index}")
            for index in range(roller_count)
        ]
        for roller in self.rollers:
            roller.populate_blank()

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def commands_for(self, roller: int, address: TrayAddress) -> tuple:
        """A tray's park, approach (rotate, travel, hook, fan out), grab,
        lower, release and fan-in instructions, built on first use."""
        commands = self._tray_commands.get((roller, address))
        if commands is None:
            layer, slot = address
            commands = self._tray_commands[roller, address] = (
                MoveArm(roller, PARK_LAYER),
                (Rotate(roller, slot), MoveArm(roller, layer),
                 HookTray(roller), FanOut(roller, layer, slot)),
                GrabStack(roller), LowerStack(roller),
                ReleaseTray(roller), FanIn(roller),
            )
        return commands

    def tray_at(self, roller_index: int, address: TrayAddress) -> Tray:
        return self.rollers[roller_index].tray_at(address)

    def locate_disc(
        self, disc_id: str
    ) -> Optional[tuple[int, TrayAddress]]:
        """Find which roller tray currently stores ``disc_id``, if any."""
        for roller in self.rollers:
            address = roller.find_disc(disc_id)
            if address is not None:
                return roller.roller_id, address
        return None

    def disc_by_id(self, disc_id: str) -> Optional[OpticalDisc]:
        """The disc ``disc_id`` itself, in a drive or in a roller tray."""
        for drive_set in self.drive_sets:
            drive = drive_set.find_disc(disc_id)
            if drive is not None:
                return drive.disc
        located = self.locate_disc(disc_id)
        if located is None:
            return None
        tray = self.tray_at(*located)
        return next(d for d in tray.discs() if d.disc_id == disc_id)

    def total_discs(self) -> int:
        in_rollers = sum(roller.disc_count() for roller in self.rollers)
        in_drives = sum(
            1
            for drive_set in self.drive_sets
            for drive in drive_set.drives
            if drive.has_disc
        )
        return in_rollers + in_drives

    def health(self) -> dict:
        """Aggregate snapshot of the whole mechanical subsystem."""
        return {
            "rollers": [roller.health() for roller in self.rollers],
            "arms": [arm.health() for arm in self.arms],
            "plc": self.plc.health(),
            "channel": self.plc.channel_health(),
            "arm_queues": [
                {
                    "roller": index,
                    "available": lock.available,
                    "queue_length": lock.queue_length,
                }
                for index, lock in enumerate(self._arm_locks)
            ],
            "drive_sets": [ds.health() for ds in self.drive_sets],
        }

    # ------------------------------------------------------------------
    # Composite operations (simulation processes)
    # ------------------------------------------------------------------
    def load_array(
        self,
        roller_index: int,
        address: TrayAddress,
        priority: int = 0,
    ) -> Generator:
        """Move a tray's discs from the roller into its drive set.

        Returns the list of discs now sitting in the drives (top drive
        first).  Table 3, "loading" rows.
        """
        with self.engine.trace.span(
            "mech.load_array",
            "mech",
            {"set_id": roller_index, "layer": address.layer,
             "slot": address.slot},
        ):
            drive_set = self.drive_sets[roller_index]
            if not drive_set.is_empty:
                raise MechanicsError(f"drive set {roller_index} is not empty")
            roller = self.rollers[roller_index]
            tray = roller.tray_at(address)
            if tray.checked_out or tray.is_empty:
                raise MechanicsError(f"tray {address} has no discs to load")
            grant = yield Acquire(self._arm_locks[roller_index], priority)
            try:
                send = self.plc.execute
                if self.parallel_scheduling:
                    discs = yield from self._load_positioning_parallel(
                        roller_index, address
                    )
                else:  # fully sequential
                    _, approach, grab, _, release, fan_in = (
                        self.commands_for(roller_index, address)
                    )
                    for command in approach:
                        yield from send(command)
                    discs = yield from send(grab)
                    yield from send(release)
                    yield from send(fan_in)
                drive_set.open_all_trays()
                separate = self._separations[roller_index]
                # The arm separates its stack bottom first, so drive i
                # gets discs[i].
                for index in range(len(discs)):
                    drive_set.place_disc(index, (yield from send(separate)))
                # Any drives beyond the disc count close empty.
                for drive in drive_set.drives[len(discs):]:
                    drive.close_tray()
                drive_set.loaded_from = (roller_index, address)
                return discs
            finally:
                grant.release()

    def _load_positioning_parallel(
        self, roller_index: int, address: TrayAddress
    ) -> Generator:
        """Overlapped positioning (§3.2 scheduling optimization).

        Roller rotation overlaps arm travel and the tray fan-in overlaps
        the first disc separations; modelled as the calibrated composite
        minus the separation phase.
        """
        timings = self.timings
        fraction = self.geometry.layer_fraction(address.layer)
        positioning = timings.load_total(fraction, parallel=True)
        positioning -= timings.separate_all
        yield Delay(positioning)
        roller = self.rollers[roller_index]
        arm = self.arms[roller_index]
        roller.facing_slot = address.slot
        roller.aligned = False
        discs = roller.tray_at(address).take_all()
        arm.holding = list(discs)
        arm.layer = PARK_LAYER
        return discs

    def unload_array(self, roller_index: int, priority: int = 0) -> Generator:
        """Return the discs in the roller's drive set to the tray they were
        loaded from.  Table 3, "unloading" rows.
        """
        with self.engine.trace.span(
            "mech.unload_array", "mech", {"set_id": roller_index}
        ):
            drive_set = self.drive_sets[roller_index]
            if drive_set.is_busy:
                raise MechanicsError(f"drive set {roller_index} has busy drives")
            if drive_set.loaded_from is None:
                raise MechanicsError(
                    f"drive set {roller_index} has no home tray recorded"
                )
            address = drive_set.loaded_from[1]
            roller = self.rollers[roller_index]
            tray = roller.tray_at(address)
            if not tray.checked_out:
                raise MechanicsError(f"tray {address} was not checked out")
            grant = yield Acquire(self._arm_locks[roller_index], priority)
            try:
                send = self.plc.execute
                arm = self.arms[roller_index]
                park, approach, _, lower, release, fan_in = (
                    self.commands_for(roller_index, address)
                )
                yield from send(park)
                # Collect discs from drive trays, top down, one by one.
                collect = self.plc.collect_into_arm
                for drive in drive_set.drives:
                    if drive.disc is not None:
                        yield from collect(
                            roller_index, drive_set.take_disc(drive)
                        )
                if self.parallel_scheduling:
                    fraction = self.geometry.layer_fraction(address.layer)
                    positioning = (
                        self.timings.unload_total(fraction, parallel=True)
                        - self.timings.collect_all
                    )
                    yield Delay(positioning)
                    roller.facing_slot = address.slot
                    roller.aligned = False
                    discs = list(arm.holding)
                    arm.holding = []
                    tray.put_back(discs)
                    arm.layer = address.layer
                else:
                    for command in approach:
                        yield from send(command)
                    yield from send(lower)
                    yield from send(release)
                    yield from send(fan_in)
                drive_set.loaded_from = None
                return address
            finally:
                grant.release()

    @staticmethod
    def _orphaned(drive_set: DriveSet) -> bool:
        """An idle drive set holding discs with no home tray recorded.

        The signature of a load aborted after disc separation began but
        before ``loaded_from`` was stamped; only
        :meth:`reset_after_fault` can return such a set's discs home.
        """
        return (
            not drive_set.is_busy
            and drive_set.loaded_from is None
            and any(drive.disc is not None for drive in drive_set.drives)
        )

    @staticmethod
    def _take_discs(drive_set: DriveSet) -> list[OpticalDisc]:
        """Pull every disc out of the set's drives, top drive first."""
        return [
            drive_set.take_disc(drive)
            for drive in drive_set.drives
            if drive.disc is not None
        ]

    def _home_or_spare(
        self, roller: Roller, home: Optional[TrayAddress]
    ) -> Optional[TrayAddress]:
        """``home``, else the first checked-out, empty tray: somewhere
        discs can go (None when there is nowhere)."""
        if home is not None:
            return home
        return next(
            (
                address
                for address in self.geometry.addresses()
                if roller.tray_at(address).checked_out
                and roller.tray_at(address).is_empty
            ),
            None,
        )

    @staticmethod
    def _put_back(tray: Tray, stack: list[OpticalDisc]) -> None:
        tray.checked_out = True
        tray.put_back(stack)

    def reset_after_fault(self, priority: int = 0) -> Generator:
        """Return the mechanics to a consistent state after an aborted
        load/unload (a PLC fault or arm jam mid-sequence).

        Models the PLC's automatic fault-recovery routine: any disc stack
        stranded on an arm goes back to its tray, fanned-out trays close,
        hooks release, and a partially loaded/unloaded drive set is fully
        emptied back home.  No-op when every pair is already consistent.
        """
        for roller_index, (roller, arm, drive_set) in enumerate(
            zip(self.rollers, self.arms, self.drive_sets)
        ):
            if not (
                roller.fanned_out is not None
                or arm.hooked
                or arm.holding
                or self._orphaned(drive_set)
            ):
                continue
            grant = yield Acquire(self._arm_locks[roller_index], priority)
            try:
                yield Delay(self.timings.fan_in)
                if arm.holding and roller.fanned_out is None:
                    # Aborted mid-unload (stack collected, tray not yet
                    # reached) or mid-separation: gather the rest of the
                    # faulted set's discs and send everything home.  The
                    # home tray is recovered from the held discs' ids
                    # (populate_blank encodes it) or the set's record.
                    stack = list(arm.holding)
                    arm.holding = []
                    home = home_of_disc(stack[0].disc_id)
                    loaded = drive_set.loaded_from
                    # an idle set loaded from another tray is healthy
                    if (
                        not drive_set.is_busy
                        and (loaded is None or loaded[1] == home)
                        and any(d.disc is not None for d in drive_set.drives)
                    ):
                        if home is None and loaded is not None:
                            home = loaded[1]
                        stack += self._take_discs(drive_set)
                        drive_set.loaded_from = None
                    home = self._home_or_spare(roller, home)
                    if home is not None:
                        self._put_back(roller.tray_at(home), stack)
                elif roller.fanned_out is not None:
                    tray = roller.tray_at(roller.fanned_out)
                    if arm.holding:
                        stack = list(arm.holding)
                        arm.holding = []
                        self._put_back(tray, stack)
                    roller._fanned_out = None
                    roller.aligned = False
                # A load aborted between the first disc separation and
                # the home-tray record leaves a set holding discs with
                # ``loaded_from`` unset (and, if the abort hit the last
                # separation, an empty arm — invisible to the checks
                # above).  Such a set can never be unloaded through the
                # normal path, so empty it back to its home tray here.
                if self._orphaned(drive_set):
                    held = next(
                        drive.disc
                        for drive in drive_set.drives
                        if drive.disc is not None
                    )
                    home = home_of_disc(held.disc_id)
                    if home is not None:
                        candidate = roller.tray_at(home)
                        if not candidate.checked_out and not candidate.is_empty:
                            home = None  # home tray re-occupied; fall back
                    home = self._home_or_spare(roller, home)
                    if home is not None:  # else nowhere safe for the discs
                        self._put_back(
                            roller.tray_at(home), self._take_discs(drive_set)
                        )
                arm.hooked = False
            finally:
                grant.release()

    def swap_array(
        self,
        roller_index: int,
        new_address: TrayAddress,
        priority: int = 0,
    ) -> Generator:
        """Unload the current array (if any) and load another (Table 1's
        'drives are not working' case: ~155 s)."""
        if not self.drive_sets[roller_index].is_empty:
            yield from self.unload_array(roller_index, priority=priority)
        discs = yield from self.load_array(roller_index, new_address, priority)
        return discs
