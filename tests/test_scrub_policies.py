"""Scrub policy coverage: repair, degraded-parity migration, double loss."""

import pytest

from repro.media.errors_model import SectorErrorModel
from repro.olfs.mechanical import ArrayState
from repro.sim.rng import DeterministicRNG
from tests.conftest import fill_and_burn, make_ros


def burned_vault(parity_discs=1):
    ros = make_ros(parity_discs=parity_discs)
    payloads = {}
    for index in range(8):
        path = f"/scrub/f{index}.bin"
        payloads[path] = bytes([index + 9]) * 15000
        ros.write(path, payloads[path])
    ros.flush()
    (roller, address) = next(iter(ros.mc.array_images))
    return ros, payloads, roller, address


def corrupt(ros, roller, address, image_id):
    disc_id = ros.dim.record(image_id).disc_id
    tray = ros.mech.rollers[roller].tray_at(address)
    disc = next(d for d in tray.discs() if d.disc_id == disc_id)
    model = SectorErrorModel(DeterministicRNG(0), sector_error_rate=0.0)
    model.corrupt_exact(disc, [disc.tracks[0].start_sector])
    return disc


def corrupt_parity(ros, roller, address):
    images = ros.mc.array_images[(roller, address)]
    parity_id = next(i for i in images if i.startswith("par-"))
    tray = ros.mech.rollers[roller].tray_at(address)
    for disc in tray.discs():
        if disc.tracks and disc.tracks[0].label == parity_id:
            model = SectorErrorModel(DeterministicRNG(0), 0.0)
            model.corrupt_exact(disc, [disc.tracks[0].start_sector])
            return disc
    raise AssertionError("parity disc not found")


def data_images_of(ros, roller, address):
    return [
        i
        for i in ros.mc.array_images[(roller, address)]
        if not i.startswith("par-")
    ]


@pytest.mark.parametrize("parity_discs", [1, 2])
def test_single_data_failure_repaired(parity_discs):
    """Under 10+2 the repair decodes from P, not from the last parity
    disc read (which is Q)."""
    ros, payloads, roller, address = burned_vault(parity_discs)
    victim = data_images_of(ros, roller, address)[0]
    corrupt(ros, roller, address, victim)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["repaired"] == [victim]
    assert report["lost"] == []
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_scrub_repairs_from_the_committed_parity_not_a_foreign_disc():
    """Array membership is the DAindex's, not the disc labels': a parity
    disc a straggler burn left in a spare slot of the tray (chaos seed 42)
    must not replace the committed parity in the XOR."""
    ros = make_ros(data_discs=2, parity_discs=1)
    payloads = fill_and_burn(ros, files=16, size=15000, prefix="/scrub")
    (roller, address), other = sorted(ros.mc.array_images)[:2]
    foreign_id = next(
        i for i in ros.mc.array_images[other] if i.startswith("par-")
    )
    foreign = next(
        disc.tracks[0]
        for disc in ros.mech.rollers[other[0]].tray_at(other[1]).discs()
        if disc.tracks and disc.tracks[0].label == foreign_id
    )
    spare = list(ros.mech.rollers[roller].tray_at(address).discs())[3]
    assert not spare.tracks
    spare.burn_track(
        foreign.payload, logical_size=foreign.logical_size, label=foreign_id
    )
    victim = data_images_of(ros, roller, address)[0]
    corrupt(ros, roller, address, victim)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["repaired"] == [victim]
    assert report["lost"] == []
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_parity_failure_triggers_proactive_migration():
    ros, payloads, roller, address = burned_vault()
    corrupt_parity(ros, roller, address)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["repaired"] == []
    assert report["lost"] == []
    assert set(report["migrated"]) == set(data_images_of(ros, roller, address))
    # The degraded tray is retired.
    assert ros.mc.state_of(roller, address) is ArrayState.FAILED
    # Migrated data re-burns and everything stays readable.
    ros.flush()
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


@pytest.mark.parametrize("parity_discs", [1, 2])
def test_double_data_failure_salvages_survivors(parity_discs):
    """Two lost data discs are beyond 11+1 but decode from P and Q."""
    ros, payloads, roller, address = burned_vault(parity_discs)
    data = data_images_of(ros, roller, address)
    if len(data) < 2:
        pytest.skip("array holds fewer than two data images")
    corrupt(ros, roller, address, data[0])
    corrupt(ros, roller, address, data[1])
    report = ros.run(ros.mi.scrub_array(roller, address))
    if parity_discs == 2:
        assert sorted(report["repaired"]) == sorted(data[:2])
        assert report["lost"] == []
        assert ros.mc.state_of(roller, address) is ArrayState.USED
        for path, payload in payloads.items():
            assert ros.read(path).data == payload
        return
    assert sorted(report["lost"]) == sorted(data[:2])
    assert ros.mc.state_of(roller, address) is ArrayState.FAILED
    # Lost images read as errors; survivors stay intact.
    for image_id in data[:2]:
        assert ros.dim.record(image_id).state == "lost"
    survivor_images = set(data[2:])
    for path, payload in payloads.items():
        locations = set(ros.mv.peek_index(path).current.locations)
        if locations & set(data[:2]):
            continue  # casualty
        assert ros.read(path).data == payload


@pytest.mark.parametrize("parity_discs", [1, 2])
def test_data_plus_parity_failure_is_loss(parity_discs):
    """A data disc plus P is a loss under 11+1; under 10+2 the data
    decodes from Q, then the under-protected tray is migrated and
    retired."""
    ros, payloads, roller, address = burned_vault(parity_discs)
    data = data_images_of(ros, roller, address)
    victim = data[0]
    corrupt(ros, roller, address, victim)
    corrupt_parity(ros, roller, address)
    report = ros.run(ros.mi.scrub_array(roller, address))
    if parity_discs == 2:
        assert report["repaired"] == [victim]
        assert report["lost"] == []
        assert set(report["migrated"]) == set(data[1:])
        assert ros.mc.state_of(roller, address) is ArrayState.FAILED
        ros.flush()
        for path, payload in payloads.items():
            assert ros.read(path).data == payload
        return
    assert report["lost"] == [victim]
    assert ros.dim.record(victim).state == "lost"


def test_raid6_survives_double_data_failure_analytically():
    """With the 10+2 schema the §4.7 model says double failures are
    survivable: the analytic bound behind the scrub's two-loss repair."""
    from repro.reliability.model import array_error_rate

    single = array_error_rate(parity=1)
    double = array_error_rate(parity=2)
    assert double < single * 1e-10


def test_scrub_status_counters():
    ros, payloads, roller, address = burned_vault()
    victim = data_images_of(ros, roller, address)[0]
    corrupt(ros, roller, address, victim)
    ros.run(ros.mi.scrub_array(roller, address))
    status = ros.status()
    assert status["scrubs"] == 1
    assert status["images_repaired"] == 1
