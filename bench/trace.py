"""Layer spans measured from outside the program.

``Tracer.install()`` replaces each layer's public entry points (the
``BOUNDARIES`` table) with timing wrappers; ``uninstall()`` puts the
originals back.  Nothing under ``src/`` knows it is being measured.

* A plain function is timed per call.  A call that returns a generator
  (every simulation process does) is timed **per resumption**: the
  wrapper hands back a real generator that forwards ``send``/``throw``/
  ``close`` and the return value, so the engine and ``yield from``
  callers cannot tell the difference.
* A span is ``(id, parent id, op id, layer, name, host t0, host t1,
  sim t0, sim t1)``.  Its parent is the span that was running when it
  was *created* — the span that caused it — and it inherits that span's
  op id; entry points in ``OP_ROOTS`` start a new op when their creator
  has none.
* Self time is a span's host time minus the host time of the spans that
  ran inside it.  The process is single-threaded, so the per-layer self
  times partition the root span exactly; what no layer covers is the
  root's own self time (``bench.self_wall_s``).
* Spans stay in memory: the full list for the first ``FULL_OPS`` ops,
  ``(layer, name, parent layer)`` aggregates for everything.

Known limit: a process a layer spawns from a *private* generator resumes
directly under ``Engine.run``; until it calls back into a public entry
point its time is charged to ``sim.engine``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import GeneratorType

#: ops whose every span is kept (the rest are only aggregated)
FULL_OPS = 200

#: (layer, module, class or None for module-level functions, names)
BOUNDARIES = [
    ("sim.engine", "repro.sim.engine", "Engine",
     ("run", "run_process", "run_below", "spawn", "call_at", "call_later")),
    ("sim.bandwidth", "repro.sim.bandwidth", "SharedBandwidth",
     ("transfer", "settle")),
    ("sim.shard", "repro.sim.shard", "ShardedEngine",
     ("run", "spawn", "send", "call")),
    ("olfs", "repro.olfs.filesystem", "OLFS",
     ("write", "read", "stat", "flush", "drain_background", "settle")),
    ("olfs", "repro.olfs.posix", "POSIXInterface",
     ("write_file", "read_file")),
    ("olfs", "repro.olfs.bucket", "WritingBucketManager", ("write_file",)),
    ("olfs", "repro.olfs.burning", "BurnController", ("schedule",)),
    ("olfs", "repro.olfs.burning", "BurnTask", ("run",)),
    ("olfs", "repro.olfs.images", "DiscImageManager", ("generate_parity",)),
    ("olfs", "repro.olfs.fetching", "FetchController", ("fetch_file",)),
    ("olfs", "repro.olfs.mechanical", "MechanicalController",
     ("find_blank_tray", "ensure_disc_in_drive")),
    ("olfs", "repro.olfs.cache", "ReadCache", ("get", "put")),
    ("olfs", "repro.olfs.metadata", "MetadataVolume",
     ("lookup_index", "write_index")),
    ("udf", "repro.udf.image", "DiscImage",
     ("serialize", "deserialize", "mount")),
    ("udf", "repro.udf.filesystem", "UDFFileSystem",
     ("write_file", "read_file")),
    ("storage", "repro.storage.raid", None,
     ("erasure_parity", "erasure_decode")),
    ("storage", "repro.storage.raid", "RAIDArray", ("write_stripe", "read")),
    ("storage", "repro.storage.volume", "Volume", ("read", "write")),
    ("drives", "repro.drives.drive", "OpticalDrive",
     ("burn", "read_bytes", "read_track_payload", "mount",
      "ensure_spinning")),
    ("drives", "repro.drives.drive_set", "DriveSet",
     ("burn_array", "read_all_tracks")),
    ("mechanics", "repro.mechanics.library", "MechanicalSubsystem",
     ("load_array", "unload_array", "swap_array")),
    ("plc", "repro.plc.controller", "PLCController",
     ("execute", "collect_into_arm")),
    ("serve.loadgen", "repro.serve.loadgen", "ClientPool", ("run",)),
    ("serve.loadgen", "repro.serve.loadgen", None, ("run_serve",)),
    ("serve.session", "repro.serve.session", "ClientSession", ("perform",)),
    ("serve.tenancy", "repro.serve.tenancy", "AdmissionController",
     ("admit", "close", "audit")),
    ("serve.network", "repro.serve.network", "NetworkLink",
     ("request", "respond")),
    ("serve.xl", "repro.serve.xl", None, ("run_serve_xl",)),
    ("fleet.rack", "repro.fleet.rack", "ShardRack",
     ("store", "fetch", "preload", "fail", "restore")),
    ("fleet.store", "repro.fleet.store", "FleetStore",
     ("put", "get", "fail_rack")),
    ("fleet.store", "repro.fleet.store", None,
     ("encode_object", "decode_object")),
    ("fleet.recovery", "repro.fleet.recovery", "RecoveryManager",
     ("run", "rebuild_all")),
    ("fleet.telemetry", "repro.fleet.telemetry", "CentralTelemetry",
     ("ingest",)),
    ("fleet.telemetry", "repro.fleet.telemetry", "TelemetryAgent",
     ("start",)),
    ("fleet.supervisor", "repro.fleet.supervisor", "FleetSupervisor",
     ("start", "evaluate")),
    ("tsdb", "repro.tsdb.store", "TimeSeriesStore",
     ("append", "flush", "latest", "rate", "staleness", "buckets")),
]

#: every layer with a boundary, in table order
LAYERS = list(dict.fromkeys(row[0] for row in BOUNDARIES))

#: the harness's own layer: the root span and whatever no boundary covers
ROOT_LAYER = "bench"

#: entry points that start an op when the span creating them has none
OP_ROOTS = {
    "ClientSession.perform",
    "ShardRack.store",
    "ShardRack.fetch",
    "OLFS.read",
}


# Probes: what a wrapper records beyond time, where the work happens.
# Each gets (tracer, call args, result) when the call — or, for a
# generator, the whole process — completes normally.
def _probe_read_source(tracer, args, result):
    tracer.counts[f"olfs.read.{result.source}"] += 1


def _probe_serialized(tracer, args, result):
    tracer.counts["udf.serialize_bytes"] += len(result)


def _probe_volume(tracer, args, result):
    tracer.counts["storage.volume_bytes"] += args[1]


# The last thing a campaign driver does to its rack is settle() it, and to
# its admission controller audit() it: remember the object so its public
# health() can be read once the run is over.
def _probe_rack(tracer, args, result):
    tracer.seen["OLFS.settle"] = args[0]


def _probe_audit(tracer, args, result):
    tracer.seen["AdmissionController.audit"] = args[0]
    tracer.counts["serve.tenancy.audit_ok"] = int(result[0])


PROBES = {
    "POSIXInterface.read_file": _probe_read_source,
    "DiscImage.serialize": _probe_serialized,
    "Volume.read": _probe_volume,
    "Volume.write": _probe_volume,
    "OLFS.settle": _probe_rack,
    "AdmissionController.audit": _probe_audit,
}


class Tracer:
    """Span stack, aggregates and the patching that feeds them."""

    def __init__(self):
        #: open frames, innermost last: [t0, child host time, span id,
        #: op id, layer]
        #: The bottom frame is permanent, so a wrapped call made outside
        #: any root span still has a parent to bill.
        self.stack: list[list] = [[0.0, 0.0, 0, None, ROOT_LAYER]]
        #: (layer, name, parent layer) -> [calls, self host seconds,
        #: calls that raised]
        self.aggregates: dict[tuple[str, str, str], list] = {}
        #: full span records of the first FULL_OPS ops
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: label -> the object a subject probe last saw
        self.seen: dict[str, object] = {}
        self.root_wall_s = 0.0
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count()
        self._engine = None
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, module_name, owner_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else None
            for name in names:
                label = f"{owner_name}.{name}" if owner_name else name
                # A missing entry point is an error, not a silent gap in
                # the ledger: the lookup raises.
                original = (owner or module).__dict__[name]
                binder = type(original) if isinstance(
                    original, (classmethod, staticmethod)
                ) else None
                wrapper = self.wrap(
                    original.__func__ if binder else original, layer, label,
                    label in OP_ROOTS, PROBES.get(label),
                )
                if binder:
                    wrapper = binder(wrapper)
                if owner is not None:
                    self._patch(owner, name, original, wrapper)
                else:
                    # `from m import f` copies the reference: patch every
                    # repro module that holds it.
                    for holder in list(sys.modules.values()):
                        if (
                            getattr(holder, "__name__", "").startswith("repro")
                            and holder.__dict__.get(name) is original
                        ):
                            self._patch(holder, name, original, wrapper)
        return self

    def _patch(self, holder, name, original, wrapper) -> None:
        self._patched.append((holder, name, original))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def reset(self) -> None:
        """Forget everything recorded so far (rig set-up, say).

        Aggregates are zeroed in place: live wrappers hold references.
        """
        for entry in self.aggregates.values():
            entry[:] = [0, 0.0, 0]
        self.spans.clear()
        self.counts.clear()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextmanager
    def root(self, name: str = "bench.workload"):
        """The root span: everything timed inside it is partitioned."""
        frame = [time.perf_counter(), 0.0, 0, None, ROOT_LAYER]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            wall = time.perf_counter() - frame[0]
            self.root_wall_s = wall
            entry = self.aggregates.setdefault(
                (ROOT_LAYER, name, ""), [0, 0.0, 0]
            )
            entry[0] += 1
            entry[1] += wall - frame[1]

    def _sim_now(self, args) -> float:
        subject = args[0] if args else None
        engine = subject if hasattr(subject, "run_process") \
            else getattr(subject, "engine", None)
        if hasattr(engine, "now"):
            self._engine = engine
        return self._engine.now if self._engine is not None else 0.0

    def wrap(self, fn, layer, label, op_root=False, probe=None):
        """Timing wrapper around one entry point (see module docstring)."""
        tracer = self
        stack = self.stack
        aggregates = self.aggregates
        perf = time.perf_counter
        entries: dict[str, list] = {}  # parent layer -> aggregate entry

        def leave(frame, entry):
            """Close one timed stretch: pop, book self time, bill parent."""
            now = perf()
            stack.pop()
            elapsed = now - frame[0]
            entry[1] += elapsed - frame[1]
            stack[-1][1] += elapsed
            return now

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            parent_layer = parent[4]
            entry = entries.get(parent_layer)
            if entry is None:
                entry = entries[parent_layer] = aggregates.setdefault(
                    (layer, label, parent_layer), [0, 0.0, 0]
                )
            entry[0] += 1
            op_id = parent[3]
            if op_id is None and op_root:
                op_id = next(tracer._op_ids)
            record = None
            if op_id is not None and op_id < FULL_OPS:
                record = [
                    next(tracer._span_ids), parent[2], op_id, layer, label,
                    0.0, 0.0, tracer._sim_now(args), 0.0,
                ]
            span_id = record[0] if record else parent[2]
            frame = [perf(), 0.0, span_id, op_id, layer]
            if record:
                record[5] = frame[0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                entry[2] += 1
                finish(record, leave(frame, entry), args)
                raise
            now = leave(frame, entry)
            if type(result) is GeneratorType:
                return drive(result, entry, span_id, op_id, record, args)
            finish(record, now, args)
            if probe is not None:
                probe(tracer, args, result)
            return result

        def finish(record, now, args):
            if record is not None:
                record[6] = now
                record[8] = tracer._sim_now(args)
                tracer.spans.append(tuple(record))

        def drive(inner, entry, span_id, op_id, record, args):
            def outer():
                value = None
                error = None
                while True:
                    frame = [perf(), 0.0, span_id, op_id, layer]
                    stack.append(frame)
                    try:
                        if error is None:
                            item = inner.send(value)
                        else:
                            item = inner.throw(error)
                    except StopIteration as stop:
                        finish(record, leave(frame, entry), args)
                        if probe is not None:
                            probe(tracer, args, stop.value)
                        return stop.value
                    except BaseException:
                        entry[2] += 1
                        finish(record, leave(frame, entry), args)
                        raise
                    leave(frame, entry)
                    try:
                        value = yield item
                        error = None
                    except GeneratorExit:
                        inner.close()
                        finish(record, perf(), args)
                        raise
                    except BaseException as thrown:
                        error = thrown

            generator = outer()
            generator.__name__ = inner.__name__
            generator.__qualname__ = inner.__qualname__
            return generator

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------------
    # Reading the ledger
    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """``{layer: {"calls": n, "self_wall_s": s}}`` over all layers."""
        totals = {
            layer: {"calls": 0, "self_wall_s": 0.0}
            for layer in LAYERS + [ROOT_LAYER]
        }
        for (layer, _name, _parent), entry in self.aggregates.items():
            total = totals.setdefault(
                layer, {"calls": 0, "self_wall_s": 0.0}
            )
            total["calls"] += entry[0]
            total["self_wall_s"] += entry[1]
        return totals

    def calls(self, *labels: str, errors: bool = False) -> int:
        """Boundary entries (or those that raised) of some entry points,
        e.g. ``calls("BurnTask.run")``."""
        return sum(
            entry[2 if errors else 0]
            for (_layer, name, _parent), entry in self.aggregates.items()
            if name in labels
        )

    def dump(self) -> dict:
        """JSON-safe form: aggregates, full spans, counters."""
        return {
            "root_wall_s": self.root_wall_s,
            "aggregates": [
                {
                    "layer": layer, "name": name, "parent_layer": parent,
                    "calls": calls, "self_wall_s": self_wall,
                    "errors": errors,
                }
                for (layer, name, parent), (calls, self_wall, errors)
                in sorted(self.aggregates.items())
            ],
            "span_fields": [
                "id", "parent_id", "op_id", "layer", "name",
                "host_t0", "host_t1", "sim_t0", "sim_t1",
            ],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }
