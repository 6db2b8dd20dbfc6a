#!/usr/bin/env python3
"""Quickstart: a PB-class optical rack in five minutes of simulated time.

Builds a scaled-down ROS instance (tiny buckets so burns finish quickly),
writes a handful of files through the POSIX interface, seals and burns
them onto disc arrays, then reads one back cold — through the robotic
fetch — to show inline accessibility end to end.

Run:  python examples/quickstart.py
"""

from repro import ROS, OLFSConfig, units


def main() -> None:
    # A one-roller rack with 3+1 disc arrays and 64 KB buckets: the whole
    # write -> burn -> fetch cycle runs in simulated minutes.
    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    ros = ROS(config=config, roller_count=1,
              buffer_volume_capacity=200 * units.MB)

    print("== writing files through the POSIX interface ==")
    for index in range(9):
        path = f"/archive/2026/q3/report-{index:02d}.txt"
        payload = f"quarterly archive record {index}\n".encode() * 800
        trace = ros.write(path, payload)
        seconds = sum(op.seconds for op in trace.ops)
        print(f"  wrote {path}  ({seconds * 1e3:.1f} ms, "
              f"ops: {' '.join(op.name for op in trace.ops)})")

    print("\n== directory view (global namespace) ==")
    print(" ", ros.readdir("/archive/2026/q3"))

    print("\n== sealing buckets and burning disc arrays ==")
    started = ros.flush()
    print(f"  burn tasks completed: {started}, simulated clock now "
          f"{ros.now / 60:.1f} min")
    status = ros.status()
    print(f"  arrays used: {status['arrays']['Used']}, "
          f"images burned: {status['images'].get('burned', 0)}")

    # Pick a file whose burned image is still cached on the disk buffer.
    paths = [f"/archive/2026/q3/report-{i:02d}.txt" for i in range(9)]
    warm_path = next(
        p
        for p in paths
        if ros.dim.record(ros.stat(p)["locations"][0]).image is not None
    )
    print(f"\n== warm read of {warm_path} (hits the disk buffer) ==")
    result = ros.read(warm_path)
    print(f"  source={result.source}  latency={result.total_seconds * 1e3:.1f} ms")

    print("\n== cold read (disc fetched by the robotic arm) ==")
    path = "/archive/2026/q3/report-00.txt"
    image_id = ros.stat(path)["locations"][0]
    ros.cache.evict(image_id)  # simulate a long-idle file
    result = ros.read(path)
    mech = "mechanical fetch" if result.source == "roller" else result.source
    print(f"  source={result.source}  latency={result.total_seconds:.1f} s "
          f"({mech})")
    print(f"  first byte after {result.first_byte_seconds * 1e3:.1f} ms "
          f"(forepart-data-stored)")
    assert result.data.startswith(b"quarterly archive record 0")

    print("\n== second read of the same file (read cache) ==")
    ros.drain_background()  # let the image copy back to the disk buffer
    result = ros.read(path)
    print(f"  source={result.source}  latency={result.total_seconds * 1e3:.1f} ms")

    print("\nDone. Simulated elapsed:", f"{ros.now / 60:.1f} minutes")


if __name__ == "__main__":
    main()
