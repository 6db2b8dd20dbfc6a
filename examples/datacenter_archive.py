#!/usr/bin/env python3
"""Datacenter archive scenario: bulk ingest + analytics read-back.

Models the workload the paper's introduction motivates: a datacenter
continuously archives datasets (scientific records + IoT telemetry), and
big-data analytics later scan slices of the history *inline* — no backup
software, no restore jobs, just POSIX reads.

Demonstrates:
  * the ArchivalWorkloadGenerator driving realistic file populations,
  * background burning absorbing the ingest without blocking clients,
  * the locality the read cache extracts from image-granular caching,
  * the status/maintenance view an operator would watch.

Run:  python examples/datacenter_archive.py
"""

from repro import ROS, OLFSConfig, units
from repro.workloads import ArchivalWorkloadGenerator


def build_rack() -> ROS:
    config = OLFSConfig(
        data_discs_per_array=5,
        parity_discs_per_array=1,
        read_cache_images=4,
    ).scaled_for_tests(bucket_capacity=256 * 1024)
    return ROS(config=config, roller_count=1,
               buffer_volume_capacity=500 * units.MB)


def main() -> None:
    ros = build_rack()

    print("== phase 1: bulk ingest ==")
    ingested = {}
    for profile, count in (("scientific", 30), ("iot", 60)):
        generator = ArchivalWorkloadGenerator(
            profile, seed=7, max_file_bytes=48 * 1024
        )
        for spec in generator.files(count):
            ros.write(spec.path, spec.payload, spec.logical_size)
            ingested[spec.path] = spec.payload
    print(f"  {len(ingested)} files ingested; "
          f"open buckets: {len(ros.wbm.open_buckets())}, "
          f"images waiting for a burn: {len(ros.dim.ready)}")

    print("\n== phase 2: burn to optical (background) ==")
    ros.flush()
    status = ros.status()
    print(f"  arrays used: {status['arrays']['Used']}  "
          f"burned images: {status['images'].get('burned', 0)}  "
          f"sim clock: {ros.now / 60:.1f} min")

    print("\n== phase 3: analytics scan over one dataset slice ==")
    scientific = sorted(
        p for p in ingested if "/scientific/" in p
    )[:12]
    latencies = []
    sources = {}
    for path in scientific:
        result = ros.read(path)
        latencies.append(result.total_seconds)
        sources[result.source] = sources.get(result.source, 0) + 1
        assert result.data == ingested[path][: len(result.data)]
    print(f"  scanned {len(scientific)} files: "
          f"served from {sources}")
    print(f"  mean latency {sum(latencies) / len(latencies) * 1e3:.1f} ms, "
          f"max {max(latencies):.2f} s")

    print("\n== phase 4: cold scan after years of idleness ==")
    # Evict everything cached: all content must come back from discs.
    for image_id in list(ros.cache.cached_ids):
        ros.cache.evict(image_id)
    cold = scientific[0]
    result = ros.read(cold)
    how = {
        "roller": "robotic fetch + disc read",
        "drive": "disc still loaded in a drive (Table 1, row 3)",
        "buffer": "disk buffer",
    }.get(result.source, result.source)
    print(f"  first cold read: {result.total_seconds:.1f} s via "
          f"{result.source} ({how})")
    ros.drain_background()
    # Spatial locality: neighbours arrived with the same image.
    neighbours = scientific[1:4]
    for path in neighbours:
        result = ros.read(path)
        print(f"  neighbour {path.rsplit('/', 1)[1]}: "
              f"{result.total_seconds * 1e3:8.1f} ms via {result.source}")

    print("\n== operator status ==")
    status = ros.status()
    cache = status["cache"]
    print(f"  cache hit rate: {cache['hit_rate']:.0%}  "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    print(f"  MV footprint: {status['mv_bytes'] / 1024:.0f} KiB for "
          f"{status['mv_index_files']} index files")
    print(f"  PLC instructions executed: {status['plc_instructions']}")
    print(f"  simulated elapsed: {ros.now / 3600:.2f} h")


if __name__ == "__main__":
    main()
