"""Figure 9: aggregate throughput of 12 drives burning 25 GB discs.

Paper: the drives do not start simultaneously; the aggregate peaks around
380 MB/s "for only a short period of time", averages 268 MB/s, and the
whole array takes 1146 seconds (vs 675 s for one disc alone).

The model reproduces this with the controller's serialized image staging
(start stagger) and the shared streaming ceiling (BurnThrottle): late in
the run the CAV ramps of many drives together would exceed the HBA path,
so the throttle flat-tops the aggregate curve.
"""

import pytest

from benchmarks.conftest import print_table, record_result
from repro import units
from repro.drives import DriveSet
from repro.media.disc import BD25, OpticalDisc
from repro.sim import Delay, Engine


def run_fig9(sample_every=20.0):
    engine = Engine()
    drive_set = DriveSet(engine, 0)
    for index, drive in enumerate(drive_set.drives):
        drive.open_tray()
        drive.insert_disc(OpticalDisc(f"d{index}", BD25))
        drive.close_tray()
    size = 24_990 * units.MB
    images = [(b"x", size, f"img-{i}") for i in range(12)]
    samples = []

    def sampler():
        while True:
            yield Delay(sample_every)
            demand = drive_set.throttle.total_demand
            factor = drive_set.throttle.factor()
            samples.append((engine.now, demand * factor / units.MB))
            if not any(d.is_busy for d in drive_set.drives) and engine.now > 100:
                return

    def main():
        engine.spawn(sampler())
        results = yield from drive_set.burn_array(images)
        return results

    results = engine.run_process(main())
    total_seconds = engine.now
    total_bytes = 12 * size
    average = total_bytes / total_seconds / units.MB
    peak = max(rate for _, rate in samples)
    return samples, total_seconds, average, peak, results


def test_fig9_aggregate_burn(benchmark):
    samples, seconds, average, peak, results = benchmark.pedantic(
        run_fig9, rounds=1, iterations=1
    )
    assert all(result.completed for result in results)
    series = [
        {"t_s": round(t, 0), "aggregate_mb_s": round(rate, 1)}
        for t, rate in samples[:: max(1, len(samples) // 16)]
    ]
    print_table("Figure 9: aggregate burn throughput over time", series)
    summary = [
        {"metric": "array total time (s)", "paper": 1146, "measured": round(seconds, 0)},
        {"metric": "average throughput (MB/s)", "paper": 268, "measured": round(average, 1)},
        {"metric": "peak throughput (MB/s)", "paper": "~380", "measured": round(peak, 1)},
    ]
    print_table("Figure 9: summary", summary)
    record_result("fig9_aggregate_25gb", {"series": series, "summary": summary})
    # Shape: total well above single-disc 675 s; peak at the ceiling,
    # held only for part of the run; average in the paper's ballpark.
    assert seconds == pytest.approx(1146.0, rel=0.10)
    assert average == pytest.approx(268.0, rel=0.10)
    assert peak == pytest.approx(380.0, rel=0.05)
    at_peak = sum(1 for _, rate in samples if rate > 0.97 * peak)
    assert at_peak < len(samples) / 2  # "maintained for only a short period"
