"""The per-layer ledger: one traced repetition -> named layer metrics.

Every name produced here is listed in ``BENCHMARK.json`` (``per_layer``)
with its unit and direction; ``run.py`` refuses a ledger whose names and
the file's disagree.  Numbers come from three places only: the tracer's
wrappers (calls, self time, probes), the public ``health()`` of objects
the wrappers saw, and fields of the campaign report.
"""

from __future__ import annotations

from bench.trace import Tracer

#: ``accuracy.*`` value for workloads the paper gives no reference for
UNVALIDATED = -1.0


def rack_counters(rack) -> dict[str, float]:
    """Monotonic counters of one OLFS rack, from its public health()."""
    health = rack.health()
    mech = health["mech"]
    return {
        "mechanics.rotations": sum(
            roller["rotation_count"] for roller in mech["rollers"]
        ),
        "mechanics.rotation_sim_s": sum(
            roller["rotation_seconds"] for roller in mech["rollers"]
        ),
        "mechanics.arm_travel_sim_s": sum(
            arm["travel_seconds"] for arm in mech["arms"]
        ),
        "plc.instructions": mech["plc"]["instructions_executed"],
        "plc.commands": mech["channel"]["commands_sent"],
        "drives.busy_sim_s": sum(
            drive["busy_seconds"]
            for drive_set in mech["drive_sets"]
            for drive in drive_set["per_drive"]
        ),
        "cache.hits": health["cache"]["hits"],
        "cache.misses": health["cache"]["misses"],
        "olfs.cache.evictions": health["cache"]["evictions"],
        "olfs.burn.images": health["btm"]["claimed_images"],
        "olfs.buckets_closed": health["wbm"]["closed"],
        "olfs.fetch.tasks": health["ftm"]["fetch_tasks"],
        "olfs.fetch.retries": health["ftm"]["fetch_retries"],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    tracer: Tracer,
    outcome: dict,
    rack_before: dict[str, float] | None,
    rack_after: dict[str, float] | None,
) -> dict[str, float]:
    """Layer metrics of one traced repetition (host times in seconds)."""
    metrics: dict[str, float] = {}
    for layer, totals in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = totals["calls"]
        metrics[f"{layer}.self_wall_s"] = totals["self_wall_s"]

    calls = tracer.calls
    counts = tracer.counts
    report = outcome["report"] if isinstance(outcome["report"], dict) else {}

    # -- sim ------------------------------------------------------------
    events = outcome["events"]
    metrics["sim.engine.events"] = events
    metrics["sim.engine.ns_per_event"] = _ratio(
        metrics["sim.engine.self_wall_s"] * 1e9, events
    )
    metrics["sim.shard.messages"] = calls("ShardedEngine.send")

    # -- the rack: OLFS, UDF, buffer storage, drives, robotics -----------
    rack: dict[str, float] = {}
    if rack_after is not None:
        before = rack_before or {}
        rack = {
            key: value - before.get(key, 0.0)
            for key, value in rack_after.items()
        }
    hits = rack.get("cache.hits", 0.0)
    metrics["olfs.cache.hit_rate"] = _ratio(
        hits, hits + rack.get("cache.misses", 0.0)
    )
    for key in (
        "olfs.cache.evictions", "olfs.burn.images", "olfs.buckets_closed",
        "olfs.fetch.tasks", "olfs.fetch.retries",
        "drives.busy_sim_s",
        "mechanics.rotations", "mechanics.rotation_sim_s",
        "mechanics.arm_travel_sim_s",
        "plc.instructions", "plc.commands",
    ):
        metrics[key] = rack.get(key, 0.0)
    metrics["olfs.burn.tasks"] = calls("BurnTask.run")
    metrics["olfs.blank_tray_scans"] = calls(
        "MechanicalController.find_blank_tray"
    )
    reads = sum(
        counts[f"olfs.read.{source}"]
        for source in ("roller", "drive", "buffer")
    )
    metrics["olfs.read.roller_frac"] = _ratio(
        counts["olfs.read.roller"], reads
    )
    metrics["olfs.read.buffer_frac"] = _ratio(
        counts["olfs.read.buffer"], reads
    )
    metrics["udf.serialize_calls"] = calls("DiscImage.serialize")
    metrics["udf.serialize_bytes"] = counts["udf.serialize_bytes"]
    metrics["storage.parity_calls"] = calls("erasure_parity")
    metrics["storage.decode_calls"] = calls("erasure_decode")
    metrics["storage.volume_bytes"] = counts["storage.volume_bytes"]
    metrics["drives.burn_calls"] = calls("OpticalDrive.burn")
    metrics["drives.read_calls"] = calls(
        "OpticalDrive.read_bytes", "OpticalDrive.read_track_payload"
    )
    metrics["mechanics.loads"] = calls("MechanicalSubsystem.load_array")
    metrics["mechanics.unloads"] = calls("MechanicalSubsystem.unload_array")

    # -- serving ---------------------------------------------------------
    metrics["serve.loadgen.ops_offered"] = calls("ClientSession.perform")
    admission = tracer.seen.get("AdmissionController.audit")
    tenants = admission.health()["per_tenant"].values() if admission else ()
    admitted = sum(stats["admitted"] for stats in tenants)
    metrics["serve.tenancy.admitted"] = admitted
    metrics["serve.tenancy.rejected"] = calls(
        "AdmissionController.admit", errors=True
    )
    metrics["serve.tenancy.mean_queue_sim_s"] = _ratio(
        sum(stats["queue_seconds"] for stats in tenants), admitted
    )
    metrics["serve.tenancy.audit_ok"] = counts["serve.tenancy.audit_ok"]
    link = report.get("link", {})
    metrics["serve.network.util_in"] = link.get("utilization_in", 0.0)
    metrics["serve.network.util_out"] = link.get("utilization_out", 0.0)
    metrics["serve.network.drops"] = link.get("drops", 0) + sum(
        entry["drops"] for entry in report.get("links", {}).values()
    )

    # -- fleet -----------------------------------------------------------
    store = report.get("store", {}).get("stats", {})
    for key in ("puts", "gets", "remote_gets", "failovers"):
        metrics[f"fleet.store.{key}"] = store.get(key, 0)
    recovery = report.get("recovery", {})
    for key in ("shards_rebuilt", "bytes_rebuilt"):
        metrics[f"fleet.recovery.{key}"] = recovery.get(key, 0)
    telemetry = report.get("telemetry", {})
    central = telemetry.get("central", {})
    agents = telemetry.get("agents", {}).values()
    metrics["fleet.telemetry.points_ingested"] = central.get(
        "points_ingested", 0
    )
    metrics["fleet.telemetry.batches_ingested"] = central.get(
        "batches_ingested", 0
    )
    metrics["fleet.telemetry.duplicate_batches"] = central.get(
        "duplicate_batches", 0
    )
    metrics["fleet.telemetry.retries"] = sum(a["retries"] for a in agents)
    metrics["fleet.telemetry.points_dropped"] = sum(
        a["points_dropped"] for a in agents
    )
    metrics["fleet.supervisor.remediations"] = report.get("remediations", 0)
    log = report.get("supervisor", {}).get("log", [])
    faults = report.get("fault_events", [])
    metrics["fleet.supervisor.detect_sim_s"] = (
        log[0]["t"] - faults[0]["t"]
        if log and isinstance(faults, list) and faults else 0.0
    )
    tsdb = telemetry.get("store", {})
    for key in ("points", "points_evicted", "buckets_finalized", "series"):
        metrics[f"tsdb.{key}"] = tsdb.get(key, 0)

    # -- accuracy against the paper ---------------------------------------
    metrics["accuracy.table1_occupied_rel_err"] = outcome["extra"].get(
        "table1_rel_err", UNVALIDATED
    )
    return metrics
