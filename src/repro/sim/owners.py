"""What the engine spends, counted per owner (opt-in).

A process's *owner* is the package of the generator it was spawned with:
the directory of its ``gi_code.co_filename`` (``olfs``, ``serve``, ...).
While an :class:`OwnerCounter` counts, every
:class:`~repro.sim.engine.Engine` built rebinds ``_seq_next`` and
``_step`` on the instance to counting versions, so an engine built
outside one does no extra work per spawn or step.  The switch is a class
attribute because the engines worth counting are built deep inside the
campaign drivers.  Under its owner the counter files each sequence draw
(what ``events_issued`` counts) made while a process is stepped, its
joiners' wake-ups included; each step; and each generator frame a step
resumes (the stepped process's ``gi_yieldfrom`` chain), also by each
frame's own package.  A draw with no process stepping (an alarm callback,
the campaign's own code) goes under the package of the code that asked
for it; :meth:`gauges` reads each engine's heap and run queue, and each
:class:`~repro.sim.shard.ShardedEngine`'s windows, stalls and mailbox
depth.  Usage::

    with OwnerCounter() as counter:
        rig = build()       # engines built here are counted
        counter.clear()     # count only what follows
        run(rig)
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from types import GeneratorType

from repro.sim.engine import Engine


class OwnerCounter:
    """Sequence draws, steps and resumed frames per owning package."""

    def __init__(self):
        self.draws: Counter = Counter()
        self.steps: Counter = Counter()
        self.frames: Counter = Counter()
        self.code_frames: Counter = Counter()  # by each frame's package
        self._peaks: list[tuple[Engine, dict]] = []  # largest heap, runq
        self._sharded: list = []  # ShardedEngines built while counting
        self._owners: dict = {}  # code object -> its package
        self._stepping = None  # owner of the process being stepped

    def __enter__(self) -> "OwnerCounter":
        if Engine.owner_counter is not None:
            raise RuntimeError("an OwnerCounter is already counting")
        Engine.owner_counter = self
        return self

    def __exit__(self, *exc) -> bool:
        Engine.owner_counter = None
        return False

    def clear(self) -> None:
        """Forget what was counted so far (engines stay counted)."""
        for counts in (self.draws, self.steps, self.frames, self.code_frames):
            counts.clear()
        for engine, peaks in self._peaks:
            peaks.update(heap=0, runq=0)
            engine.compactions = 0
        for sharded in self._sharded:
            sharded.windows = sharded.stalls = sharded.max_mailbox = 0

    def gauges(self) -> list[dict]:
        """Since the last clear, per counted engine: the largest heap and
        run queue seen at a draw or a step's end, and heap compactions;
        then per counted sharded engine: the windows it ran, the shard
        advances that ran no occurrence (stalls) and the deepest mailbox
        at a window's start."""
        return [dict(peaks, compactions=engine.compactions)
                for engine, peaks in self._peaks] + [
            {"windows": sharded.windows, "stalls": sharded.stalls,
             "mailbox": sharded.max_mailbox}
            for sharded in self._sharded
        ]

    def _owner(self, code) -> str:
        owner = self._owners.get(code)
        if owner is None:
            owner = os.path.basename(os.path.dirname(code.co_filename))
            self._owners[code] = owner
        return owner

    def attach_sharded(self, sharded) -> None:
        """Report ``sharded``'s window counts (called by
        ``ShardedEngine.__init__`` while counting)."""
        self._sharded.append(sharded)

    def attach(self, engine: Engine) -> None:
        """Count ``engine`` (called by ``Engine.__init__`` while counting)."""
        draw, resume = engine._seq_next, engine._step
        owner_of, draws, steps, frames, code_frames = (
            self._owner, self.draws, self.steps, self.frames, self.code_frames
        )
        heap, runq = engine._heap, engine._runq
        peaks = {"heap": 0, "runq": 0}
        self._peaks.append((engine, peaks))

        def counting_draw() -> int:
            peaks["heap"] = max(peaks["heap"], len(heap))
            peaks["runq"] = max(peaks["runq"], len(runq))
            owner = self._stepping
            if owner is None:
                caller = sys._getframe(1)
                while caller.f_code.co_filename == _ENGINE_FILE:
                    caller = caller.f_back
                owner = owner_of(caller.f_code)
            draws[owner] += 1
            return draw()

        def counting_step(process, value, exception) -> None:
            generator = process._generator
            owner = owner_of(generator.gi_code)
            steps[owner] += 1
            while type(generator) is GeneratorType:
                frames[owner] += 1
                code_frames[owner_of(generator.gi_code)] += 1
                generator = generator.gi_yieldfrom
            outer, self._stepping = self._stepping, owner
            try:
                resume(process, value, exception)
            finally:
                self._stepping = outer
                peaks["heap"] = max(peaks["heap"], len(heap))
                peaks["runq"] = max(peaks["runq"], len(runq))

        engine._seq_next, engine._step = counting_draw, counting_step


#: the file whose frames a draw's caller is looked up past
_ENGINE_FILE = Engine._step.__code__.co_filename
