"""Tests for the power/energy model (§5.1 corner points)."""

import pytest

from repro.power import IDLE_POWER_W, PEAK_POWER_W, ROLLER_MOTOR_W, PowerModel
from tests.conftest import make_ros


def test_idle_power_matches_paper():
    assert PowerModel.idle_power_w() == 185.0


def test_peak_power_composes_to_paper_value():
    """§5.1: peak power 652 W."""
    assert PowerModel.peak_power_w() == pytest.approx(PEAK_POWER_W)
    assert PEAK_POWER_W == 652.0


def test_fresh_system_draws_idle_only():
    ros = make_ros()
    report = PowerModel(ros).report()
    assert report.total_j == 0.0  # no simulated time has passed
    assert report.average_power_w == IDLE_POWER_W


def test_energy_grows_with_activity():
    ros = make_ros()
    model = PowerModel(ros)
    for index in range(8):
        ros.write(f"/p/f{index}.bin", b"e" * 20000)
    light = model.report()
    ros.flush()  # mechanical + burn activity
    heavy = model.report()
    assert heavy.total_j > light.total_j
    assert heavy.drives_j > 0
    assert heavy.mechanics_j > 0


def test_average_power_between_idle_and_peak():
    ros = make_ros()
    for index in range(8):
        ros.write(f"/p/f{index}.bin", b"e" * 20000)
    ros.flush()
    report = PowerModel(ros).report()
    assert IDLE_POWER_W <= report.average_power_w <= PEAK_POWER_W


def test_breakdown_sums_to_total():
    ros = make_ros()
    for index in range(8):
        ros.write(f"/p/f{index}.bin", b"e" * 20000)
    ros.flush()
    report = PowerModel(ros).report()
    assert sum(report.breakdown().values()) == pytest.approx(report.total_j)


def test_mechanics_energy_tracks_roller_accounting():
    ros = make_ros()
    for index in range(8):
        ros.write(f"/p/f{index}.bin", b"e" * 20000)
    ros.flush()
    report = PowerModel(ros).report()
    rotation = sum(roller.rotation_seconds for roller in ros.mech.rollers)
    assert rotation > 0
    assert report.mechanics_j >= ROLLER_MOTOR_W * rotation


def test_kwh_conversion():
    ros = make_ros()
    ros.write("/p/a.bin", b"x" * 1000)
    ros.flush()
    report = PowerModel(ros).report()
    assert report.total_kwh == pytest.approx(report.total_j / 3.6e6)
