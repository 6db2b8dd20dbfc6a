"""Tests for recording-speed curves: calibration against Figures 8 and 10."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.drives.speed import FailSafeCurve, ZonedCAVCurve, curve_for
from repro.media.disc import BD25, BD100, BD25_RW


def seconds_from(curve, nbytes, start_progress):
    """Uncontended time to burn ``nbytes`` starting at ``start_progress``,
    integrated over as many segments as ``burn_seconds`` uses."""
    return sum(
        segment.seconds
        for segment in curve.segments(nbytes, start_progress, count=600)
    )


# ----------------------------------------------------------------------
# 25 GB zoned-CAV curve (Figure 8)
# ----------------------------------------------------------------------
def test_cav_curve_starts_near_4x():
    curve = ZonedCAVCurve()
    assert curve.speed_multiple(0.0) == pytest.approx(4.5, abs=0.01)


def test_cav_curve_ends_at_12x():
    curve = ZonedCAVCurve()
    assert curve.speed_multiple(1.0) == pytest.approx(12.0)


def test_cav_curve_monotonically_increasing():
    curve = ZonedCAVCurve()
    speeds = [curve.speed_multiple(p / 100) for p in range(101)]
    assert speeds == sorted(speeds)


def test_cav_average_speed_matches_paper():
    """Paper: average recording speed 8.2X for 25 GB discs."""
    curve = ZonedCAVCurve()
    average = curve.average_multiple(BD25.capacity)
    assert average == pytest.approx(8.25, abs=0.15)


def test_cav_full_disc_burn_time_matches_paper():
    """Paper: a single 25 GB disc records in 675 seconds."""
    curve = ZonedCAVCurve()
    seconds = curve.burn_seconds(BD25.capacity)
    assert seconds == pytest.approx(675.0, rel=0.02)


def test_cav_progress_out_of_range_rejected():
    with pytest.raises(ValueError):
        ZonedCAVCurve().speed_multiple(1.5)


# ----------------------------------------------------------------------
# 100 GB fail-safe curve (Figure 10)
# ----------------------------------------------------------------------
def test_failsafe_nominal_speed_6x():
    curve = FailSafeCurve(seed=3)
    # Most of the disc burns at 6X.
    at_6x = sum(
        1 for p in range(1000) if curve.speed_multiple(p / 1000) == 6.0
    )
    assert at_6x > 900


def test_failsafe_has_dips_to_4x():
    curve = FailSafeCurve(seed=3)
    dipped = any(
        curve.speed_multiple(p / 2000) == 4.0 for p in range(2000)
    )
    assert dipped


def test_failsafe_average_speed_matches_paper():
    """Paper: average recording speed 5.9X for 100 GB discs."""
    curve = FailSafeCurve(seed=5)
    average = curve.average_multiple(BD100.capacity)
    assert average == pytest.approx(5.9, abs=0.05)


def test_failsafe_full_disc_burn_time_matches_paper():
    """Paper: 3757 s for a single 100 GB disc; model gives ~3775 s."""
    curve = FailSafeCurve(seed=5)
    seconds = curve.burn_seconds(BD100.capacity)
    assert seconds == pytest.approx(3757.0, rel=0.02)


def test_failsafe_deterministic_per_seed():
    a = FailSafeCurve(seed=11)
    b = FailSafeCurve(seed=11)
    assert a.dips == b.dips


def test_failsafe_different_seed_different_dips():
    assert FailSafeCurve(seed=1).dips != FailSafeCurve(seed=2).dips


# ----------------------------------------------------------------------
# curve_for dispatch
# ----------------------------------------------------------------------
def test_curve_for_bd25_is_cav():
    assert isinstance(curve_for(BD25), ZonedCAVCurve)


def test_curve_for_bd100_is_failsafe():
    assert isinstance(curve_for(BD100), FailSafeCurve)


def test_curve_for_rw_is_constant_2x():
    curve = curve_for(BD25_RW)
    assert curve.speed_multiple(0.0) == 2.0
    assert curve.speed_multiple(0.9) == 2.0


# ----------------------------------------------------------------------
# Segment machinery
# ----------------------------------------------------------------------
def test_segments_cover_requested_bytes():
    curve = ZonedCAVCurve()
    segments = list(curve.segments(10 * units.GB, count=50))
    assert len(segments) == 50
    assert sum(s.nbytes for s in segments) == pytest.approx(10 * units.GB)


def test_segments_empty_for_zero_bytes():
    assert list(ZonedCAVCurve().segments(0)) == []


def test_partial_burn_from_midway_is_faster_per_byte():
    """Burning the outer half of the disc is faster than the inner half."""
    curve = ZonedCAVCurve()
    half = BD25.capacity // 2
    inner = seconds_from(curve, half, 0.0)
    outer = seconds_from(curve, half, 0.5)
    assert inner == curve.burn_seconds(half)
    assert outer < inner


@settings(max_examples=30, deadline=None)
@given(
    nbytes=st.integers(min_value=1 * units.MB, max_value=25 * units.GB),
    start=st.floats(min_value=0.0, max_value=0.5),
)
def test_property_burn_time_bounded_by_speed_extremes(nbytes, start):
    """Burn time always lies between the all-max and all-min speed bounds."""
    curve = ZonedCAVCurve()
    seconds = seconds_from(curve, nbytes, start)
    fastest = nbytes / units.bd_speed(12.0)
    slowest = nbytes / units.bd_speed(4.5)
    assert fastest - 1e-6 <= seconds <= slowest + 1e-6
