#!/usr/bin/env python3
"""Capacity-planning report: TCO, redundancy schema and MV sizing.

Everything a storage architect would ask before adopting a ROS rack:
what 100-year preservation costs versus HDD/tape/SSD (§2.1), what the
11+1 vs 10+2 redundancy schemas buy (§4.7), how much SSD the metadata
volume needs (§4.2), and what the mechanics can sustain.

Run:  python examples/tco_and_reliability.py
"""

from repro import units
from repro.baselines import MagazineLibraryModel
from repro.mechanics.timing import DEFAULT_TIMINGS
from repro.reliability import (
    mv_capacity_bytes,
    raid5_array_error_rate,
    raid6_array_error_rate,
)
from repro.reliability.sizing import mv_fraction_of_capacity
from repro.reliability.tco import TCOInputs, compare_all


def section(title: str) -> None:
    print(f"\n{'=' * 8} {title} {'=' * 8}")


def main() -> None:
    section("TCO: 1 PB preserved for 100 years")
    comparison = compare_all(TCOInputs())
    print(f"{'media':10s} {'total':>10s} {'vs optical':>11s}   breakdown")
    for name in ("optical", "tape", "hdd", "ssd"):
        row = comparison[name]
        parts = ", ".join(
            f"{k} ${v / 1000:.0f}K" for k, v in row["breakdown"].items()
        )
        print(f"{name:10s} ${row['total'] / 1000:8.0f}K "
              f"{row['vs_optical']:10.2f}x   {parts}")

    section("TCO sensitivity: shorter horizons")
    for years in (5, 10, 25, 50, 100):
        c = compare_all(TCOInputs(horizon_years=years))
        winner = min(("optical", "hdd", "tape"), key=lambda m: c[m]["total"])
        print(f"  {years:3d} years: optical ${c['optical']['total'] / 1000:.0f}K, "
              f"hdd ${c['hdd']['total'] / 1000:.0f}K, "
              f"tape ${c['tape']['total'] / 1000:.0f}K  -> cheapest: {winner}")

    section("Redundancy schema (per disc array)")
    print(f"  11 data + 1 parity (RAID-5): loss probability "
          f"{raid5_array_error_rate():.2e}")
    print(f"  10 data + 2 parity (RAID-6): loss probability "
          f"{raid6_array_error_rate():.2e}")
    r5_capacity = 11 / 12
    r6_capacity = 10 / 12
    print(f"  usable capacity: {r5_capacity:.0%} vs {r6_capacity:.0%} "
          f"-> RAID-6 trades {r5_capacity - r6_capacity:.0%} capacity for "
          f"~15 extra orders of magnitude")

    section("Metadata volume sizing")
    for files in (10**6, 10**8, 10**9):
        bytes_needed = mv_capacity_bytes(files=files, directories=files)
        print(f"  {files:>13,} files + dirs -> "
              f"{bytes_needed / units.TB:7.3f} TB of SSD")
    print(f"  at 1 B + 1 B: {100 * mv_fraction_of_capacity():.2f}% of a 1 PB rack")

    section("Mechanics: sustainable fetch rate")
    pair = DEFAULT_TIMINGS.load_total(0.5) + DEFAULT_TIMINGS.unload_total(0.5)
    per_hour = 3600 / pair
    print(f"  one load+unload pair: {pair:.1f} s "
          f"-> {per_hour:.1f} array swaps/hour/drive-set")
    print(f"  with overlapped scheduling: "
          f"{3600 / (DEFAULT_TIMINGS.load_total(0.5, True) + DEFAULT_TIMINGS.unload_total(0.5, True)):.1f} swaps/hour")
    magazine = MagazineLibraryModel()
    swap = magazine.load_seconds() + magazine.unload_seconds()
    print(f"  magazine-library baseline: "
          f"{3600 / swap:.1f} swaps/hour, "
          f"{magazine.discs_per_rack} discs/rack "
          f"(ROS: 12240)")

    section("Verdict")
    print("  A 2-roller ROS rack: 12,240 x 100 GB = 1.22 PB raw,")
    print(f"  {11 / 12:.0%} usable under 11+1 parity = "
          f"{1.22 * 11 / 12:.2f} PB, at ~$250K/PB/century TCO.")


if __name__ == "__main__":
    main()
