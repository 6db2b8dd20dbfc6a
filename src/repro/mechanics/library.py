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

from repro.drives.drive_set import DRIVES_PER_SET, DriveSet
from repro.errors import MechanicsError
from repro.mechanics.arm import PARK_LAYER, RoboticArm
from repro.mechanics.geometry import DEFAULT_GEOMETRY, RollerGeometry, TrayAddress
from repro.mechanics.roller import Roller, home_of_disc
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.media.disc import OpticalDisc
from repro.media.tray import Tray
from repro.plc.channel import ControlChannel
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
    """Rollers, arms, PLC and drive sets of one ROS rack."""

    def __init__(
        self,
        engine: Engine,
        roller_count: int = 2,
        drive_sets_per_roller: int = 1,
        geometry: RollerGeometry = DEFAULT_GEOMETRY,
        parallel_scheduling: bool = False,
    ):
        self.engine = engine
        self.geometry = geometry
        self.timings = DEFAULT_TIMINGS
        self.parallel_scheduling = parallel_scheduling
        self.rollers = [
            Roller(index, geometry)
            for index in range(roller_count)
        ]
        self.arms = [
            RoboticArm(index, geometry)
            for index in range(roller_count)
        ]
        self.plc = PLCController(engine, self.rollers, self.arms)
        self.channel = ControlChannel(engine, self.plc)
        self.drive_sets: list[DriveSet] = []
        self._set_roller: dict[int, int] = {}
        #: frozen instructions built once: separations, commands_for()'s
        self._separations: dict[int, tuple[SeparateDisc, ...]] = {}
        self._tray_commands: dict[tuple[int, TrayAddress], tuple] = {}
        for roller_index in range(roller_count):
            for _ in range(drive_sets_per_roller):
                set_id = len(self.drive_sets)
                self.drive_sets.append(DriveSet(engine, set_id))
                self._set_roller[set_id] = roller_index
                self._separations[set_id] = tuple(
                    SeparateDisc(roller_index, set_id, index)
                    for index in range(DRIVES_PER_SET)
                )
        self._arm_locks = [
            Resource(engine, 1, name=f"arm{index}")
            for index in range(roller_count)
        ]
        for roller in self.rollers:
            roller.populate_blank()

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def roller_of_set(self, set_id: int) -> int:
        return self._set_roller[set_id]

    def sets_of_roller(self, roller_index: int) -> list[DriveSet]:
        return [
            drive_set
            for drive_set in self.drive_sets
            if self._set_roller[drive_set.set_id] == roller_index
        ]

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
                GrabStack(roller, roller), LowerStack(roller, roller),
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
            "channel": self.channel.health(),
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
        set_id: int,
        address: TrayAddress,
        priority: int = 0,
    ) -> Generator:
        """Move a tray's discs from the roller into drive set ``set_id``.

        Returns the list of discs now sitting in the drives (top drive
        first).  Table 3, "loading" rows.
        """
        with self.engine.trace.span(
            "mech.load_array",
            "mech",
            {"set_id": set_id, "layer": address.layer, "slot": address.slot},
        ):
            roller_index = self.roller_of_set(set_id)
            drive_set = self.drive_sets[set_id]
            if not drive_set.is_empty:
                raise MechanicsError(f"drive set {set_id} is not empty")
            roller = self.rollers[roller_index]
            tray = roller.tray_at(address)
            if tray.checked_out or tray.is_empty:
                raise MechanicsError(f"tray {address} has no discs to load")
            grant = yield Acquire(self._arm_locks[roller_index], priority)
            try:
                send = self.channel.send
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
                placed = []
                separations = self._separations[set_id]
                for index in range(len(discs)):
                    disc = yield from send(separations[index])
                    drive = drive_set.drives[index]
                    drive.insert_disc(disc)
                    drive.close_tray()
                    placed.append(disc)
                # Any drives beyond the disc count close empty.
                for index in range(len(discs), len(drive_set.drives)):
                    drive_set.drives[index].close_tray()
                drive_set.loaded_from = (roller_index, address)
                return placed
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

    def unload_array(
        self,
        set_id: int,
        address: Optional[TrayAddress] = None,
        priority: int = 0,
    ) -> Generator:
        """Return the discs in drive set ``set_id`` to a roller tray.

        ``address`` defaults to the tray the array was loaded from.
        Table 3, "unloading" rows.
        """
        with self.engine.trace.span(
            "mech.unload_array", "mech", {"set_id": set_id}
        ):
            roller_index = self.roller_of_set(set_id)
            drive_set = self.drive_sets[set_id]
            if drive_set.is_busy:
                raise MechanicsError(f"drive set {set_id} has busy drives")
            if address is None:
                if drive_set.loaded_from is None:
                    raise MechanicsError(
                        f"drive set {set_id} has no home tray recorded"
                    )
                roller_index, address = drive_set.loaded_from
            roller = self.rollers[roller_index]
            tray = roller.tray_at(address)
            if not tray.checked_out and not tray.is_empty:
                raise MechanicsError(f"tray {address} already holds discs")
            grant = yield Acquire(self._arm_locks[roller_index], priority)
            try:
                send = self.channel.send
                arm = self.arms[roller_index]
                park, approach, _, lower, release, fan_in = (
                    self.commands_for(roller_index, address)
                )
                yield from send(park)
                # Collect discs from drive trays, top down, one by one.
                for drive in drive_set.drives:
                    if drive.disc is None:
                        continue
                    drive.open_tray()
                    disc = drive.remove_disc()
                    drive.close_tray()
                    yield from self.plc.collect_into_arm(roller_index, disc)
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
                    if not tray.checked_out:
                        tray.checked_out = True
                    tray.put_back(discs)
                    arm.layer = address.layer
                else:
                    for command in approach:
                        yield from send(command)
                    if not tray.checked_out:
                        # Returning to a different (empty) tray than the
                        # origin.
                        tray.checked_out = True
                    yield from send(lower)
                    yield from send(release)
                    yield from send(fan_in)
                drive_set.loaded_from = None
                return address
            finally:
                grant.release()

    def _orphaned_sets(self, roller_index: int) -> list:
        """Idle drive sets holding discs with no home tray recorded.

        The signature of a load aborted after disc separation began but
        before ``loaded_from`` was stamped; only
        :meth:`reset_after_fault` can return such a set's discs home.
        """
        return [
            drive_set
            for drive_set in self.sets_of_roller(roller_index)
            if not drive_set.is_busy
            and drive_set.loaded_from is None
            and any(drive.disc is not None for drive in drive_set.drives)
        ]

    def reset_after_fault(self, priority: int = 0) -> Generator:
        """Return the mechanics to a consistent state after an aborted
        load/unload (a PLC fault or arm jam mid-sequence).

        Models the PLC's automatic fault-recovery routine: any disc stack
        stranded on an arm goes back to its tray, fanned-out trays close,
        hooks release, and a partially loaded/unloaded drive set is fully
        emptied back home.  No-op when every pair is already consistent.
        """
        for roller_index, (roller, arm) in enumerate(
            zip(self.rollers, self.arms)
        ):
            orphaned = self._orphaned_sets(roller_index)
            if not (
                roller.fanned_out is not None
                or arm.hooked
                or arm.holding
                or orphaned
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
                    for drive_set in self.sets_of_roller(roller_index):
                        if drive_set.is_busy:
                            continue
                        loaded = drive_set.loaded_from
                        if loaded is not None and loaded[1] != home:
                            continue  # a healthy idle set; leave it be
                        if not any(
                            d.disc is not None for d in drive_set.drives
                        ):
                            continue
                        if home is None and loaded is not None:
                            home = loaded[1]
                        for drive in drive_set.drives:
                            if drive.disc is None:
                                continue
                            drive.open_tray()
                            stack.append(drive.remove_disc())
                            drive.close_tray()
                        drive_set.loaded_from = None
                    if home is None:
                        home = next(
                            (
                                address
                                for address in self.geometry.addresses()
                                if roller.tray_at(address).checked_out
                                and roller.tray_at(address).is_empty
                            ),
                            None,
                        )
                    if home is not None:
                        tray = roller.tray_at(home)
                        if not tray.checked_out:
                            tray.checked_out = True
                        tray.put_back(stack)
                elif roller.fanned_out is not None:
                    tray = roller.tray_at(roller.fanned_out)
                    if arm.holding:
                        stack = list(arm.holding)
                        arm.holding = []
                        if not tray.checked_out:
                            tray.checked_out = True
                        tray.put_back(stack)
                    roller._fanned_out = None
                    roller.aligned = False
                # A load aborted between the first disc separation and
                # the home-tray record leaves a set holding discs with
                # ``loaded_from`` unset (and, if the abort hit the last
                # separation, an empty arm — invisible to the checks
                # above).  Such a set can never be unloaded through the
                # normal path, so empty it back to its home tray here.
                for drive_set in self._orphaned_sets(roller_index):
                    held = [
                        drive.disc
                        for drive in drive_set.drives
                        if drive.disc is not None
                    ]
                    home = home_of_disc(held[0].disc_id)
                    if home is not None:
                        candidate = roller.tray_at(home)
                        if not candidate.checked_out and not candidate.is_empty:
                            home = None  # home tray re-occupied; fall back
                    if home is None:
                        home = next(
                            (
                                address
                                for address in self.geometry.addresses()
                                if roller.tray_at(address).checked_out
                                and roller.tray_at(address).is_empty
                            ),
                            None,
                        )
                    if home is None:
                        continue  # nowhere safe to put the discs back
                    stack = []
                    for drive in drive_set.drives:
                        if drive.disc is None:
                            continue
                        drive.open_tray()
                        stack.append(drive.remove_disc())
                        drive.close_tray()
                    tray = roller.tray_at(home)
                    if not tray.checked_out:
                        tray.checked_out = True
                    tray.put_back(stack)
                arm.hooked = False
            finally:
                grant.release()

    def swap_array(
        self,
        set_id: int,
        new_address: TrayAddress,
        priority: int = 0,
    ) -> Generator:
        """Unload the current array (if any) and load another (Table 1's
        'drives are not working' case: ~155 s)."""
        drive_set = self.drive_sets[set_id]
        if not drive_set.is_empty:
            yield from self.unload_array(set_id, priority=priority)
        discs = yield from self.load_array(set_id, new_address, priority)
        return discs
