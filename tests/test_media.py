"""Unit + property tests for optical media (discs, trays, error model)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import (
    DiscFullError,
    MechanicsError,
    MediaError,
    SectorError,
    WormViolationError,
)
from repro.media import DiscStatus, OpticalDisc, SectorErrorModel, Tray
from repro.media.disc import (
    BD25,
    BD100,
    POW_METADATA_OVERHEAD,
    SECTOR_SIZE,
    sectors_for,
)
from repro.sim.rng import DeterministicRNG


# ----------------------------------------------------------------------
# Disc types
# ----------------------------------------------------------------------
def test_bd25_capacity_and_speeds():
    assert BD25.capacity == 25 * units.GB
    assert BD25.worm
    assert BD25.max_write_speed == 12.0


def test_bd100_reference_speed():
    assert BD100.capacity == 100 * units.GB
    assert BD100.reference_write_speed == 4.0


def test_sectors_for_rounds_up():
    assert sectors_for(1) == 1
    assert sectors_for(SECTOR_SIZE) == 1
    assert sectors_for(SECTOR_SIZE + 1) == 2
    assert sectors_for(0) == 0


# ----------------------------------------------------------------------
# Burning semantics
# ----------------------------------------------------------------------
def test_blank_disc_state():
    disc = OpticalDisc("d0")
    assert disc.is_blank
    assert disc.used_bytes == 0


def test_burn_track_write_all_once_closes_disc():
    disc = OpticalDisc("d0")
    track = disc.burn_track(b"hello world", label="image-1")
    assert disc.status is DiscStatus.CLOSED
    assert track.payload == b"hello world"
    assert track.sector_count == 1


def test_burn_on_closed_disc_rejected():
    disc = OpticalDisc("d0")
    disc.burn_track(b"data")
    with pytest.raises(WormViolationError):
        disc.burn_track(b"more")


def test_pow_append_tracks():
    disc = OpticalDisc("d0")
    disc.burn_track(b"part-1", label="a", close=False)
    assert disc.status is DiscStatus.OPEN
    disc.burn_track(b"part-2", label="b", close=True)
    assert disc.status is DiscStatus.CLOSED
    assert disc.find_track("a").payload == b"part-1"
    assert disc.find_track("b").payload == b"part-2"


def test_pow_charges_metadata_overhead():
    disc = OpticalDisc("d0")
    disc.burn_track(b"x", close=False)
    overhead_sectors = sectors_for(POW_METADATA_OVERHEAD)
    assert disc.used_sectors == 1 + overhead_sectors


def test_declared_logical_size_counts_against_capacity():
    disc = OpticalDisc("d0")
    disc.burn_track(b"tiny", logical_size=10 * units.GB, close=False)
    assert disc.used_bytes >= 10 * units.GB


def test_logical_size_smaller_than_payload_rejected():
    disc = OpticalDisc("d0")
    with pytest.raises(MediaError):
        disc.burn_track(b"0123456789", logical_size=5)


def test_disc_full_rejected():
    disc = OpticalDisc("d0")
    with pytest.raises(DiscFullError):
        disc.burn_track(b"x", logical_size=26 * units.GB)


def test_read_track_roundtrip():
    disc = OpticalDisc("d0")
    disc.burn_track(b"payload bytes", label="img")
    assert disc.read_track(disc.tracks[0]) == b"payload bytes"


def test_read_bad_sector_raises():
    disc = OpticalDisc("d0")
    disc.burn_track(b"x" * SECTOR_SIZE * 3)
    disc.bad_sectors.add(1)
    with pytest.raises(SectorError):
        disc.read_track(disc.tracks[0])


def test_bad_sector_beyond_payload_is_harmless():
    disc = OpticalDisc("d0")
    disc.burn_track(b"abc", logical_size=SECTOR_SIZE * 100)
    disc.bad_sectors.add(50)  # inside declared zone, beyond real payload
    assert disc.read_track(disc.tracks[0]) == b"abc"


@settings(max_examples=50, deadline=None)
@given(payloads=st.lists(st.binary(min_size=1, max_size=4096), min_size=1, max_size=6))
def test_property_track_accounting(payloads):
    """Used sectors always equals the sum of per-track sector counts."""
    disc = OpticalDisc("p", BD25)
    for index, payload in enumerate(payloads):
        disc.burn_track(payload, label=str(index), close=False)
    expected = sum(sectors_for(len(p)) for p in payloads)
    expected += len(payloads) * sectors_for(POW_METADATA_OVERHEAD)
    assert disc.used_sectors == expected
    for index, payload in enumerate(payloads):
        assert disc.read_track(disc.tracks[index]) == payload


# ----------------------------------------------------------------------
# Trays
# ----------------------------------------------------------------------
def make_discs(n):
    return [OpticalDisc(f"d{i}") for i in range(n)]


def test_tray_fill_and_count():
    tray = Tray(0, 0)
    tray.fill(make_discs(12))
    assert tray.is_full
    assert tray.disc_count == 12


def test_tray_take_all_and_put_back():
    tray = Tray(3, 2)
    discs = make_discs(12)
    tray.fill(discs)
    taken = tray.take_all()
    assert taken == discs
    assert tray.checked_out
    assert tray.is_empty
    tray.put_back(taken)
    assert not tray.checked_out
    assert tray.disc_count == 12


def test_tray_double_checkout_rejected():
    tray = Tray(0, 0)
    tray.fill(make_discs(2))
    tray.take_all()
    with pytest.raises(MechanicsError):
        tray.take_all()


def test_tray_put_back_without_checkout_rejected():
    tray = Tray(0, 0)
    with pytest.raises(MechanicsError):
        tray.put_back(make_discs(1))


def test_tray_overfill_rejected():
    tray = Tray(0, 0)
    with pytest.raises(MechanicsError):
        tray.fill(make_discs(13))


# ----------------------------------------------------------------------
# Error model
# ----------------------------------------------------------------------
def test_error_model_paper_rate_produces_no_errors():
    disc = OpticalDisc("d0")
    disc.burn_track(b"x", logical_size=24 * units.GB)
    model = SectorErrorModel(DeterministicRNG(1))
    assert model.age_disc(disc) == 0


def test_error_model_elevated_rate_marks_sectors():
    disc = OpticalDisc("d0")
    disc.burn_track(b"x", logical_size=24 * units.GB)
    model = SectorErrorModel(DeterministicRNG(1), sector_error_rate=1e-6)
    new_bad = model.age_disc(disc)
    # 11.7M sectors at 1e-6 -> expect ~12 failures
    assert 2 <= new_bad <= 40


def test_error_model_deterministic():
    def run():
        disc = OpticalDisc("d0")
        disc.burn_track(b"x", logical_size=24 * units.GB)
        model = SectorErrorModel(DeterministicRNG(7), sector_error_rate=1e-6)
        model.age_disc(disc)
        return sorted(disc.bad_sectors)

    assert run() == run()


def test_error_model_invalid_rate_rejected():
    with pytest.raises(ValueError):
        SectorErrorModel(DeterministicRNG(0), sector_error_rate=2.0)


def test_corrupt_exact():
    disc = OpticalDisc("d0")
    disc.burn_track(b"x" * SECTOR_SIZE * 10)
    model = SectorErrorModel(DeterministicRNG(0))
    model.corrupt_exact(disc, [3, 7])
    assert disc.bad_sectors == {3, 7}
