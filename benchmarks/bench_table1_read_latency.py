"""Table 1: read latency from different file locations.

Paper values (§5.2):

    disk bucket                               0.001 s
    disc image (on the disk buffer)           0.002 s
    disc in optical drive                     0.223 s
    disc array in roller, free drives        70.553 s
    disc array in roller, drives occupied   155.037 s
    disc array in roller, all drives busy    minutes

Measured here end-to-end through the OLFS data path: MV index lookup,
bucket/image/disc access, and mechanical operations where needed.  The
sub-10 ms POSIX op overhead (Figure 7) is excluded, as in the paper's
table, by measuring the fetch path directly.
"""

import pytest

from benchmarks.conftest import print_table, record_result
from repro import units
from tests.conftest import make_ros

PAPER = {
    "disk bucket": 0.001,
    "disc image": 0.002,
    "disc in optical drive": 0.223,
    "roller, free drives": 70.553,
    "roller, drives occupied": 155.037,
}


def _subtree_sum(tracer, root, prefix):
    """Total seconds under ``root`` in spans named ``prefix``*, skipping
    the background cache-fill branch (it runs after the read returns)."""
    total = 0.0

    def visit(span):
        nonlocal total
        for child in tracer.children_of(span):
            if child.name == "ftm.cache_fill":
                continue
            if child.name.startswith(prefix):
                total += child.duration
            visit(child)

    visit(root)
    return total


def _fetch_latency(ros, path):
    """Data-path latency: resolve the index and fetch the bytes.

    The whole fetch runs under one ``table1.read`` span, so the span tree
    is the latency decomposition; returns (latency, source, phases).
    """
    ros.stat(path)
    start = ros.now
    ros.engine.trace.clear()

    # include the MV lookup the read path performs
    def timed():
        with ros.engine.trace.span("table1.read"):
            index = yield from ros.mv.lookup_index(path)
            result = yield from ros.ftm.fetch_file(
                index.current.locations[0], path
            )
        return result

    result = ros.run(timed())
    latency = ros.now - start
    root = ros.engine.trace.find(name="table1.read")[0]
    # The direct children partition the fetch end to end (Table 1's rows
    # have no dead time between phases).
    child_sum = sum(
        span.duration for span in ros.engine.trace.children_of(root)
    )
    assert root.duration == pytest.approx(latency, abs=1e-9)
    assert child_sum == pytest.approx(root.duration, abs=1e-6), (
        "span tree does not decompose the end-to-end latency"
    )
    phases = {
        "mv_ms": 1e3 * _subtree_sum(ros.engine.trace, root, "mv."),
        "mech_s": _subtree_sum(
            ros.engine.trace, root, "mc.ensure_disc_in_drive"
        ),
        "drive_s": _subtree_sum(ros.engine.trace, root, "drive."),
    }
    return latency, result.source, phases


def build_scenarios():
    """One ROS instance per Table 1 row, file planted at each location."""
    rows = []

    # Row 1: file still in an open disk bucket.
    ros = make_ros(tracing=True)
    ros.write("/t1/bucket.bin", b"b" * 1024)
    latency, source, phases = _fetch_latency(ros, "/t1/bucket.bin")
    rows.append(("disk bucket", latency, source, phases))

    # Row 2: file in a closed disc image on the disk buffer.
    ros = make_ros(tracing=True)
    ros.write("/t1/image.bin", b"i" * 1024)
    ros.wbm.close_nonempty_buckets()
    latency, source, phases = _fetch_latency(ros, "/t1/image.bin")
    rows.append(("disc image", latency, source, phases))

    # Row 3: disc already sitting in a drive (awake, image unmounted).
    ros = make_ros(tracing=True)
    ros.write("/t1/drive.bin", b"d" * 1024)
    ros.flush()
    image_id = ros.stat("/t1/drive.bin")["locations"][0]
    ros.cache.evict(image_id)
    ros.read("/t1/drive.bin")  # pulls the array into the drives
    ros.drain_background()
    ros.cache.evict(image_id)
    drive_set = ros.mech.drive_sets[0]
    drive = drive_set.find_disc(ros.dim.record(image_id).disc_id)
    # The VFS mount is dropped but the spindle stays up (§5.4).
    from repro.drives.drive import DriveState

    drive.state = DriveState.IDLE
    latency, source, phases = _fetch_latency(ros, "/t1/drive.bin")
    rows.append(("disc in optical drive", latency, source, phases))

    # Row 4: disc array in the roller, drives free.
    ros = make_ros(tracing=True)
    ros.write("/t1/roller.bin", b"r" * 1024)
    ros.flush()
    image_id = ros.stat("/t1/roller.bin")["locations"][0]
    ros.cache.evict(image_id)
    latency, source, phases = _fetch_latency(ros, "/t1/roller.bin")
    rows.append(("roller, free drives", latency, source, phases))

    # Row 5: target in the roller while the only drive set holds another
    # (idle) array: unload + load.
    ros = make_ros(tracing=True)
    ros.write("/t1/first.bin", b"f" * 1024)
    ros.flush()
    first_image = ros.stat("/t1/first.bin")["locations"][0]
    ros.write("/t1/second.bin", b"s" * 1024)
    ros.flush()
    second_image = ros.stat("/t1/second.bin")["locations"][0]
    ros.cache.evict(first_image)
    ros.cache.evict(second_image)
    # Load the second array into the drives, then ask for the first.
    ros.read("/t1/second.bin")
    ros.drain_background()
    ros.cache.evict(first_image)
    ros.cache.evict(second_image)
    latency, source, phases = _fetch_latency(ros, "/t1/first.bin")
    rows.append(("roller, drives occupied", latency, source, phases))

    return rows


def test_table1_read_latency(benchmark):
    rows = benchmark.pedantic(build_scenarios, rounds=1, iterations=1)
    table = []
    for name, measured, source, phases in rows:
        paper = PAPER[name]
        table.append(
            {
                "location": name,
                "paper_s": paper,
                "measured_s": round(measured, 4),
                "ratio": round(measured / paper, 3),
                "served_from": source,
                "mv_ms": round(phases["mv_ms"], 3),
                "mech_s": round(phases["mech_s"], 3),
                "drive_s": round(phases["drive_s"], 3),
            }
        )
    print_table("Table 1: read latency by file location", table)
    record_result("table1_read_latency", table)
    by_name = {row["location"]: row for row in table}
    # Shape checks: same orders of magnitude and the same ordering.
    assert by_name["disk bucket"]["measured_s"] == pytest.approx(0.001, rel=0.6)
    assert by_name["disc image"]["measured_s"] == pytest.approx(0.002, rel=0.6)
    assert by_name["disc in optical drive"]["measured_s"] == pytest.approx(
        0.223, rel=0.15
    )
    assert by_name["roller, free drives"]["measured_s"] == pytest.approx(
        70.553, rel=0.05
    )
    assert by_name["roller, drives occupied"]["measured_s"] == pytest.approx(
        155.037, rel=0.05
    )
    latencies = [row["measured_s"] for row in table]
    assert latencies == sorted(latencies)


def test_table1_busy_drives_minutes(benchmark):
    """Row 6: every drive burning -> the read waits minutes (wait policy)."""

    def scenario():
        from tests.conftest import make_ros as _make

        ros = _make(
            bucket_capacity=16 * 1024 * 1024,
            busy_drive_policy="wait",
            forepart_enabled=False,
        )
        for index in range(4):
            ros.write(f"/old/f{index}.bin", b"o" * 400_000)
        ros.flush()
        target_image = ros.stat("/old/f0.bin")["locations"][0]
        ros.cache.evict(target_image)
        for index in range(4):
            ros.write(
                f"/new/f{index}.bin",
                b"n" * 400_000,
                12 * 1024 * 1024,
            )
        ros.wbm.close_nonempty_buckets()
        ros.btm.flush_pending()
        while not any(ds.is_burning for ds in ros.mech.drive_sets):
            ros.engine.run(until=ros.now + 0.05)
        result = ros.read("/old/f0.bin")
        return result.total_seconds

    latency = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "Table 1 (row 6): all drives busy",
        [
            {
                "location": "roller, all drives busy",
                "paper_s": "minutes",
                "measured_s": round(latency, 1),
            }
        ],
    )
    record_result(
        "table1_busy_drives",
        [{"location": "all drives busy", "paper": "minutes", "measured_s": latency}],
    )
    assert latency > 120  # "minutes"
