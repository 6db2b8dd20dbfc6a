"""Campaign invariants: what must hold after any fault schedule.

A chaos campaign (:mod:`repro.faults.campaign`) throws randomized faults
at a randomized workload and then asserts the four properties the paper's
design promises regardless of what broke along the way:

I1. **No acknowledged write is lost.**  Every write the POSIX interface
    acknowledged reads back byte-identical — possibly after a scrub +
    parity repair (§4.7), never silently corrupted or missing.
I2. **The engine drains.**  No process is deadlocked: once the campaign
    settles, the simulation heap is empty and nothing is runnable.
I3. **Trace spans are well-formed.**  Every span closed, every parent
    reference resolves, and children start within their parent's life.
I4. **Metadata matches the discs.**  Every record the DIM claims is
    burned has its disc, a track carrying its image, and a consistent
    DAindex entry (§4.2/§4.6).

Serving campaigns (``--serve``) add a fifth:

I5. **No admitted request lost.**  Every request the admission
    controller admitted released its grant (none stranded inflight),
    every submitted ticket is accounted admitted/rejected/timed-out,
    and nothing is left queued after the system drains.

Preservation campaigns (``python -m repro preserve``) add:

I7. **The audit converges.**  After the final anti-entropy round, every
    replica holder of every audited path serves byte-identical content
    (holders that cannot serve at all are availability events, not
    divergence — a surviving minority copy must still match the
    majority it was repaired from).

Fleet campaigns (``python -m repro fleet``, ``chaos`` with a bound
fleet store) add:

I8. **No durable image is unrecoverable while surviving shards ≥ k.**
    For every acked object in the fleet catalog: if at least ``k`` of
    its shards physically survive (racks may be down — bytes outlive an
    outage, not a destruction), the erasure decode of any ``k``
    survivors reproduces the original bytes exactly.  Objects below
    ``k`` survivors are *reported* as lost, never silently dropped.

Monitored fleet campaigns (``python -m repro fleet-monitor``) add:

I9. **Remediation converges.**  After the closed-loop supervisor has
    run its course, no acked write has been lost (every acked object
    decodes byte-identically — I8's check, zero lost bytes demanded
    outright) and the fleet has settled into a healthy steady state:
    no shard is still missing (the rebuilds the supervisor kicked have
    re-homed everything the chaos corpus destroyed).  Remediation may
    drain racks and move data, but it must never make durability
    *worse* than doing nothing.

Each check returns ``{"invariant": name, "ok": bool, "detail": {...}}``
with JSON-safe details, so reports serialize deterministically.
"""

from __future__ import annotations

from repro.errors import MediaError, ROSError
from repro.olfs.mechanical import ArrayState


def _result(name: str, ok: bool, detail: dict) -> dict:
    return {"invariant": name, "ok": ok, "detail": detail}


# ----------------------------------------------------------------------
# I1: no acknowledged write lost
# ----------------------------------------------------------------------
def _read_with_repair(ros, path: str) -> bytes:
    """Read ``path``; on a media error, scrub its array and retry once.

    Sector errors are an *expected* outcome of a campaign — the invariant
    is that the §4.7 parity path recovers the bytes, not that no sector
    ever failed.
    """
    try:
        return ros.read(path).data
    except MediaError:
        image_id = ros.stat(path)["locations"][0]
        record = ros.dim.record(image_id)
        if record.array_address is not None:
            roller, address = record.array_address
            ros.run(ros.mi.scrub_array(roller, address), "invariant-scrub")
            ros.settle()
        return ros.read(path).data


def check_no_data_loss(ros, acked: dict) -> dict:
    """I1: every acknowledged write reads back byte-identical."""
    failures = []
    for path in sorted(acked):
        try:
            data = _read_with_repair(ros, path)
        except ROSError as error:
            failures.append({"path": path, "error": type(error).__name__})
            continue
        if data != acked[path]:
            failures.append({"path": path, "error": "mismatch"})
    return _result(
        "no_acked_write_lost",
        not failures,
        {"checked": len(acked), "failures": failures},
    )


# ----------------------------------------------------------------------
# I2: the engine drains (no deadlock)
# ----------------------------------------------------------------------
def check_engine_drained(ros) -> dict:
    """I2: after settling, nothing is scheduled and nothing is runnable.

    Settles first so the background work the I1 read-backs spawned
    (cache fills, resumed burns) doesn't read as a false deadlock; a
    process parked on an event nobody will fire still shows up.
    """
    ros.settle()
    idle = ros.engine.is_idle
    return _result(
        "engine_drained",
        idle,
        {"final_time": round(ros.engine.now, 6)},
    )


# ----------------------------------------------------------------------
# I3: trace spans well-formed
# ----------------------------------------------------------------------
def check_spans(ros) -> dict:
    """I3: spans all closed, parents resolve, children nest in time."""
    tracer = ros.engine.trace
    if not tracer.enabled:
        return _result("spans_well_formed", True, {"checked": 0})
    by_id = {span.span_id: span for span in tracer.spans}
    problems = []
    for span in tracer.spans:
        if not span.finished:
            problems.append({"span": span.name, "problem": "unfinished"})
            continue
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(
                    {"span": span.name, "problem": "dangling parent"}
                )
            elif span.start < parent.start - 1e-9:
                problems.append(
                    {"span": span.name, "problem": "starts before parent"}
                )
    return _result(
        "spans_well_formed",
        not problems,
        {"checked": len(tracer.spans), "problems": problems[:10]},
    )


# ----------------------------------------------------------------------
# I4: metadata consistent with disc contents
# ----------------------------------------------------------------------
def check_metadata_consistency(ros) -> dict:
    """I4: DIM burned records, DAindex and the physical discs agree."""
    problems = []
    checked = 0
    for image_id in sorted(ros.dim.records):
        record = ros.dim.records[image_id]
        if record.state != "burned":
            continue
        checked += 1
        if record.disc_id is None or record.array_address is None:
            problems.append({"image_id": image_id, "problem": "no location"})
            continue
        disc = ros.mech.disc_by_id(record.disc_id)
        if disc is None:
            problems.append(
                {"image_id": image_id, "problem": "disc missing"}
            )
            continue
        if disc.image(image_id) is None:
            problems.append(
                {"image_id": image_id, "problem": "track missing"}
            )
        state = ros.mc.da_index.get(record.array_address)
        if state is not ArrayState.USED:
            problems.append(
                {
                    "image_id": image_id,
                    "problem": f"array state {state.value if state else None}",
                }
            )
        if image_id not in ros.mc.array_images.get(record.array_address, []):
            problems.append(
                {"image_id": image_id, "problem": "not in DAindex images"}
            )
    # Reverse direction: everything the DAindex claims exists in the DIM.
    for key in sorted(ros.mc.array_images):
        for image_id in ros.mc.array_images[key]:
            if image_id not in ros.dim.records:
                problems.append(
                    {"image_id": image_id, "problem": "unknown to DIM"}
                )
    return _result(
        "metadata_consistent",
        not problems,
        {"checked": checked, "problems": problems[:10]},
    )


# ----------------------------------------------------------------------
# I5: no admitted request lost (serving campaigns)
# ----------------------------------------------------------------------
def check_no_admitted_request_lost(admission) -> dict:
    """I5: admission accounting balances once the campaign settles."""
    ok, note = admission.audit()
    submitted = sum(
        int(stats["submitted"]) for stats in admission.stats.values()
    )
    return _result(
        "no_admitted_request_lost",
        ok,
        {"checked": submitted, "note": note},
    )


# ----------------------------------------------------------------------
# I7: anti-entropy audit converges (preservation campaigns)
# ----------------------------------------------------------------------
def check_audit_convergence(cluster, paths) -> dict:
    """I7: post-repair, every reachable holder serves identical bytes."""
    checked = 0
    problems = []
    for path in sorted(paths):
        holders = cluster._alive(cluster.placement(path))
        blobs = []
        for index in holders:
            try:
                blobs.append(cluster.racks[index].read(path).data)
            except ROSError:
                # Unreadable copies are loss/availability events counted
                # by the verdict, not divergence between live copies.
                continue
        checked += 1
        if len({blob for blob in blobs}) > 1:
            problems.append({"path": path, "problem": "holders diverge"})
    return _result(
        "audit_converges",
        not problems,
        {"checked": checked, "problems": problems[:10]},
    )


# ----------------------------------------------------------------------
# I8: fleet recoverability (fleet campaigns)
# ----------------------------------------------------------------------
def check_fleet_recoverable(store) -> dict:
    """I8: every catalog object with ≥ k surviving shards decodes back
    byte-identically; the rest are counted as lost, not hidden."""
    problems = []
    lost = []
    checked = 0
    for path in sorted(store.catalog):
        record = store.catalog[path]
        if not record.acked:
            continue
        checked += 1
        survivors = store.surviving_shards(path)
        if len(survivors) < record.k:
            lost.append(
                {
                    "path": path,
                    "survivors": len(survivors),
                    "k": record.k,
                    "bytes": record.size,
                }
            )
            continue
        try:
            store.decode_now(path)
        except ROSError as error:
            problems.append(
                {"path": path, "problem": type(error).__name__}
            )
    return _result(
        "fleet_recoverable",
        not problems,
        {
            "checked": checked,
            "problems": problems[:10],
            "lost_objects": len(lost),
            "lost_bytes": sum(entry["bytes"] for entry in lost),
        },
    )


# ----------------------------------------------------------------------
# I9: closed-loop remediation converges (monitored fleet campaigns)
# ----------------------------------------------------------------------
def check_remediation_converges(store, supervisor) -> dict:
    """I9: after remediation, acked objects decode AND the fleet is
    healthy — zero lost bytes, zero still-missing shards."""
    base = check_fleet_recoverable(store)
    lost_shards = store.lost_shards()
    drained = sorted(
        rack_id for rack_id, rack in store.racks.items() if rack.drained
    )
    ok = (
        base["ok"]
        and base["detail"]["lost_bytes"] == 0
        and not lost_shards
    )
    return _result(
        "remediation_converges",
        ok,
        {
            "checked": base["detail"]["checked"],
            "problems": base["detail"]["problems"],
            "lost_bytes": base["detail"]["lost_bytes"],
            "lost_shards": len(lost_shards),
            "actions": len(supervisor.log),
            "drained_racks": drained,
        },
    )


# ----------------------------------------------------------------------
def check_all(ros, acked: dict) -> list[dict]:
    """Run the four campaign invariants in their canonical order."""
    return [
        check_no_data_loss(ros, acked),
        check_engine_drained(ros),
        check_spans(ros),
        check_metadata_consistency(ros),
    ]
