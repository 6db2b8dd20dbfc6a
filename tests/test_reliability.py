"""Reliability, sizing and TCO model tests (§2.1, §4.2, §4.7)."""

import pytest

from repro import units
from repro.reliability import (
    MEDIA_PROFILES,
    TCOInputs,
    TCOModel,
    array_error_rate,
    mv_capacity_bytes,
    raid5_array_error_rate,
    raid6_array_error_rate,
)
from repro.reliability.model import stripe_error_rate
from repro.reliability.sizing import mv_fraction_of_capacity
from repro.reliability.tco import compare_all


# ----------------------------------------------------------------------
# Array error rates (§4.7)
# ----------------------------------------------------------------------
def test_raid5_schema_error_rate_order_of_magnitude():
    """Paper: 11+1 array error rate ~1e-23."""
    rate = raid5_array_error_rate()
    assert 1e-24 < rate < 1e-22


def test_raid6_schema_error_rate_much_lower():
    """Paper quotes ~1e-40 for 10+2; the combinatorial model gives ~1e-38
    — either way, ~15 orders of magnitude below RAID-5."""
    rate = raid6_array_error_rate()
    assert rate < 1e-37
    assert rate < raid5_array_error_rate() * 1e-10


def test_error_rate_scales_with_sector_rate():
    low = array_error_rate(sector_error_rate=1e-16)
    high = array_error_rate(sector_error_rate=1e-15)
    assert high == pytest.approx(low * 100)


def test_more_parity_never_hurts():
    for parity in (0, 1):
        assert array_error_rate(parity=parity + 1) < array_error_rate(
            parity=parity
        )


def test_stripe_rate_rejects_bad_parity():
    with pytest.raises(ValueError):
        stripe_error_rate(1e-16, discs=4, parity=4)


# ----------------------------------------------------------------------
# MV sizing (§4.2)
# ----------------------------------------------------------------------
def test_mv_sizing_matches_paper():
    """1 B files + 1 B dirs -> ~2.3 TB, 0.23 % of 1 PB."""
    total = mv_capacity_bytes()
    assert total == pytest.approx(2.3 * units.TB, rel=0.05)
    assert mv_fraction_of_capacity() == pytest.approx(0.0023, rel=0.05)


def test_mv_sizing_scales_linearly():
    assert mv_capacity_bytes(files=2_000_000_000) > mv_capacity_bytes()


def test_mv_block_holds_the_papers_15_versions():
    """§4.2: a 1 KB MV block offers 'about 15 historic entries' — 15
    versions still fit one block; more spills into a second."""
    from repro.reliability.sizing import mv_entry_footprint

    assert mv_entry_footprint(15) == mv_entry_footprint(1)
    assert mv_entry_footprint(30) > mv_entry_footprint(1)


# ----------------------------------------------------------------------
# TCO (§2.1)
# ----------------------------------------------------------------------
def test_tco_optical_around_250k_per_pb():
    comparison = compare_all()
    assert comparison["optical"]["per_pb"] == pytest.approx(250_000, rel=0.1)


def test_tco_hdd_about_three_times_optical():
    comparison = compare_all()
    assert comparison["hdd"]["vs_optical"] == pytest.approx(3.0, rel=0.15)


def test_tco_tape_about_twice_optical():
    comparison = compare_all()
    assert comparison["tape"]["vs_optical"] == pytest.approx(2.0, rel=0.15)


def test_tco_ssd_most_expensive():
    comparison = compare_all()
    assert comparison["ssd"]["total"] > comparison["hdd"]["total"]


def test_tco_breakdown_sums_to_total():
    model = TCOModel(MEDIA_PROFILES["optical"])
    assert sum(model.breakdown().values()) == pytest.approx(model.total())


def test_tco_migrations_follow_lifetime():
    optical = TCOModel(MEDIA_PROFILES["optical"])
    hdd = TCOModel(MEDIA_PROFILES["hdd"])
    assert optical.migrations() == 1  # one migration in 100 y at 50-y life
    assert hdd.migrations() == 19  # every 5 years


def test_tco_scales_with_capacity():
    small = TCOModel(MEDIA_PROFILES["optical"], TCOInputs(capacity_pb=1))
    big = TCOModel(MEDIA_PROFILES["optical"], TCOInputs(capacity_pb=10))
    assert big.total() == pytest.approx(10 * small.total())


def test_tco_shorter_horizon_cheaper():
    century = TCOModel(MEDIA_PROFILES["tape"], TCOInputs(horizon_years=100))
    decade = TCOModel(MEDIA_PROFILES["tape"], TCOInputs(horizon_years=10))
    assert decade.total() < century.total()


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_magazine_library_slower_and_denser_comparison():
    from repro.baselines import MagazineLibraryModel
    from repro.mechanics.timing import DEFAULT_TIMINGS

    magazine = MagazineLibraryModel()
    assert magazine.load_seconds() > DEFAULT_TIMINGS.load_total(0.5)
    assert magazine.unload_seconds() > DEFAULT_TIMINGS.unload_total(0.5)
    assert magazine.motion_axes == 3


def test_archival_system_minutes_level_restore():
    from repro.baselines import ConventionalArchivalSystem

    archival = ConventionalArchivalSystem()
    latency = archival.restore_latency(1 * units.MB)
    assert latency > 120  # minutes-level (§2.2)


def test_ltfs_seek_dominated_reads():
    from repro.baselines import LTFSTapeModel

    ltfs = LTFSTapeModel()
    near = ltfs.read_latency(1 * units.MB, position_fraction=0.0, mounted=True)
    far = ltfs.read_latency(1 * units.MB, position_fraction=1.0, mounted=True)
    assert far - near == pytest.approx(ltfs.full_wind_seconds, rel=0.01)


def test_ltfs_position_validation():
    from repro.baselines import LTFSTapeModel

    with pytest.raises(ValueError):
        LTFSTapeModel().seek_seconds(1.5)


# ----------------------------------------------------------------------
# Workload generator
# ----------------------------------------------------------------------
def test_workload_generator_deterministic():
    from repro.workloads import ArchivalWorkloadGenerator

    first = list(ArchivalWorkloadGenerator("iot", seed=9).files(5))
    second = list(ArchivalWorkloadGenerator("iot", seed=9).files(5))
    assert [f.path for f in first] == [f.path for f in second]
    assert [f.payload for f in first] == [f.payload for f in second]


def test_workload_profiles_have_different_scales():
    from repro.workloads import ArchivalWorkloadGenerator

    iot, media = (
        sum(spec.declared_size
            for spec in ArchivalWorkloadGenerator(profile, seed=1).files(200))
        for profile in ("iot", "media")
    )
    assert media > iot * 10


def test_workload_large_files_use_declared_sizes(monkeypatch):
    from repro.workloads import ArchivalWorkloadGenerator
    from repro.workloads import generator as workload_generator

    monkeypatch.setattr(workload_generator, "PAYLOAD_CAP", 4096)
    generator = ArchivalWorkloadGenerator("media", seed=3)
    specs = list(generator.files(50))
    large = [s for s in specs if s.size > 4096]
    assert large
    for spec in large:
        assert len(spec.payload) == 4096
        assert spec.declared_size == spec.size


def test_workload_unknown_profile_rejected():
    from repro.workloads import ArchivalWorkloadGenerator

    with pytest.raises(ValueError):
        ArchivalWorkloadGenerator("databases")
