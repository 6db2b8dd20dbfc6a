"""Tests for shared units helpers and the error hierarchy."""

import pytest

from repro import units
from repro import errors


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def test_decimal_units():
    assert units.GB == 10**9
    assert units.PB == 10**15
    assert units.KIB == 1024
    assert units.GIB == 2**30


def test_bd_speed():
    assert units.bd_speed(1) == pytest.approx(4.49e6)
    assert units.bd_speed(12) == pytest.approx(53.88e6)


def test_year_constant():
    assert units.YEAR == pytest.approx(365.25 * 86400)


# ----------------------------------------------------------------------
# Error hierarchy
# ----------------------------------------------------------------------
def test_every_error_is_ros_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            if obj is not errors.ROSError:
                assert issubclass(obj, errors.ROSError), name


def test_filesystem_errors_carry_errno_names():
    assert errors.FileNotFoundOLFSError.errno_name == "ENOENT"
    assert errors.FileExistsOLFSError.errno_name == "EEXIST"
    assert errors.NoSpaceOLFSError.errno_name == "ENOSPC"
    assert errors.ReadOnlyOLFSError.errno_name == "EROFS"
    assert errors.TimeoutOLFSError.errno_name == "ETIMEDOUT"


def test_sector_error_carries_location():
    error = errors.SectorError("disc-9", 1234)
    assert error.disc_id == "disc-9"
    assert error.sector == 1234
    assert "1234" in str(error)


def test_media_errors_are_media_errors():
    assert issubclass(errors.WormViolationError, errors.MediaError)
    assert issubclass(errors.DiscFullError, errors.MediaError)
    assert issubclass(errors.SectorError, errors.MediaError)


def test_plc_fault_is_mechanics_error():
    assert issubclass(errors.PLCFaultError, errors.MechanicsError)
