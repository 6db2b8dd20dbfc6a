"""Tests for block devices, RAID parity/reconstruction and volumes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import (
    DeviceFailedError,
    NoSpaceOLFSError,
    RaidDegradedError,
    StorageError,
)
from repro.sim import Engine
from repro.storage import (
    RAID0,
    RAID1,
    RAID5,
    RAID6,
    IOStreamScheduler,
    StreamKind,
    Volume,
    make_hdd,
    make_ssd,
)
from repro.storage.block import CHUNK_SIZE, BlockDevice


def chunk(byte: int) -> bytes:
    return bytes([byte]) * CHUNK_SIZE


def small_devices(engine, n, capacity=64 * units.MB):
    return [
        BlockDevice(engine, f"dev{i}", capacity, 150 * units.MB, 0.001)
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Block devices
# ----------------------------------------------------------------------
def test_device_write_read_chunk():
    engine = Engine()
    device = small_devices(engine, 1)[0]
    engine.run_process(device.write_chunk(0, chunk(7)))
    data = engine.run_process(device.read_chunk(0))
    assert data == chunk(7)


def test_device_missing_chunk_reads_zero():
    engine = Engine()
    device = small_devices(engine, 1)[0]
    assert engine.run_process(device.read_chunk(5)) == b"\x00" * CHUNK_SIZE


def test_device_transfer_timing():
    engine = Engine()
    device = BlockDevice(engine, "d", units.GB, 100 * units.MB, 0.01)
    engine.run_process(device.transfer(200 * units.MB))
    assert engine.now == pytest.approx(2.01)


def test_failed_device_rejects_io():
    engine = Engine()
    device = small_devices(engine, 1)[0]
    device.fail()
    with pytest.raises(DeviceFailedError):
        engine.run_process(device.read_chunk(0))


def test_chunk_beyond_capacity_rejected():
    engine = Engine()
    device = BlockDevice(engine, "d", CHUNK_SIZE, 1e6, 0)
    with pytest.raises(StorageError):
        engine.run_process(device.write_chunk(1, chunk(0)))


def test_oversized_chunk_rejected():
    engine = Engine()
    device = small_devices(engine, 1)[0]
    with pytest.raises(StorageError):
        engine.run_process(device.write_chunk(0, b"x" * (CHUNK_SIZE + 1)))


def test_hdd_ssd_factories():
    engine = Engine()
    hdd = make_hdd(engine, "h")
    ssd = make_ssd(engine, "s")
    assert hdd.capacity == 4 * units.TB
    assert ssd.throughput > hdd.throughput


# ----------------------------------------------------------------------
# RAID-1
# ----------------------------------------------------------------------
def test_raid1_mirrors_to_all_members():
    engine = Engine()
    devices = small_devices(engine, 2)
    array = RAID1(engine, devices)
    engine.run_process(array.write_stripe(0, [chunk(9)]))
    assert devices[0].peek_chunk(0) == chunk(9)
    assert devices[1].peek_chunk(0) == chunk(9)


def test_raid1_survives_single_failure():
    engine = Engine()
    devices = small_devices(engine, 2)
    array = RAID1(engine, devices)
    engine.run_process(array.write_stripe(0, [chunk(3)]))
    devices[0].fail()
    assert engine.run_process(array.read(0)) == chunk(3)


def test_raid1_all_failed_degraded():
    engine = Engine()
    devices = small_devices(engine, 2)
    array = RAID1(engine, devices)
    engine.run_process(array.write_stripe(0, [chunk(3)]))
    devices[0].fail()
    devices[1].fail()
    with pytest.raises(RaidDegradedError):
        engine.run_process(array.read(0))


def test_raid1_rebuild():
    engine = Engine()
    devices = small_devices(engine, 2)
    array = RAID1(engine, devices)
    engine.run_process(array.write_stripe(0, [chunk(4)]))
    devices[0].fail()
    devices[0].replace()
    engine.run_process(array.rebuild(0))
    assert devices[0].peek_chunk(0) == chunk(4)


# ----------------------------------------------------------------------
# RAID-5
# ----------------------------------------------------------------------
def make_raid5(engine, members=4):
    return RAID5(engine, small_devices(engine, members))


def test_raid5_roundtrip():
    engine = Engine()
    array = make_raid5(engine)
    data = [chunk(1), chunk(2), chunk(3)]
    engine.run_process(array.write_stripe(0, data))
    for index in range(3):
        assert engine.run_process(array.read(index)) == data[index]


def test_raid5_parity_is_xor():
    engine = Engine()
    array = make_raid5(engine)
    data = [chunk(0x0F), chunk(0xF0), chunk(0xFF)]
    engine.run_process(array.write_stripe(0, data))
    parity_device = array.devices[array.parity_devices(0)[0]]
    assert parity_device.peek_chunk(0) == chunk(0x0F ^ 0xF0 ^ 0xFF)


def test_raid5_degraded_read_reconstructs():
    engine = Engine()
    array = make_raid5(engine)
    data = [chunk(11), chunk(22), chunk(33)]
    engine.run_process(array.write_stripe(0, data))
    # Fail the device holding data chunk 1.
    _, device_index, _ = array.locate(1)
    array.devices[device_index].fail()
    assert engine.run_process(array.read(1)) == chunk(22)


def test_raid5_two_failures_degraded():
    engine = Engine()
    array = make_raid5(engine)
    engine.run_process(array.write_stripe(0, [chunk(1)] * 3))
    array.devices[0].fail()
    array.devices[1].fail()
    with pytest.raises(RaidDegradedError):
        engine.run_process(array.read(0))


def test_raid5_rebuild_restores_contents():
    engine = Engine()
    array = make_raid5(engine)
    for stripe in range(4):
        data = [chunk(stripe * 3 + i) for i in range(3)]
        engine.run_process(array.write_stripe(stripe, data))
    victim = array.devices[2]
    before = dict(victim._chunks)
    victim.fail()
    victim.replace()
    engine.run_process(array.rebuild(2))
    assert victim._chunks == before


def test_raid5_parity_rotates():
    engine = Engine()
    array = make_raid5(engine)
    positions = {tuple(array.parity_devices(s)) for s in range(4)}
    assert len(positions) == 4


def test_raid5_minimum_members():
    engine = Engine()
    with pytest.raises(StorageError):
        RAID5(engine, small_devices(engine, 1))


# ----------------------------------------------------------------------
# RAID-6
# ----------------------------------------------------------------------
def make_raid6(engine, members=6):
    return RAID6(engine, small_devices(engine, members))


def test_raid6_roundtrip():
    engine = Engine()
    array = make_raid6(engine)
    data = [chunk(10 + i) for i in range(array.data_per_stripe)]
    engine.run_process(array.write_stripe(0, data))
    for index in range(array.data_per_stripe):
        assert engine.run_process(array.read(index)) == data[index]


def test_raid6_single_data_failure():
    engine = Engine()
    array = make_raid6(engine)
    data = [chunk(40 + i) for i in range(array.data_per_stripe)]
    engine.run_process(array.write_stripe(0, data))
    _, device_index, _ = array.locate(2)
    array.devices[device_index].fail()
    assert engine.run_process(array.read(2)) == data[2]


def test_raid6_double_data_failure():
    engine = Engine()
    array = make_raid6(engine)
    data = [chunk(70 + i) for i in range(array.data_per_stripe)]
    engine.run_process(array.write_stripe(0, data))
    order = array.stripe_device_order(0)
    array.devices[order[0]].fail()
    array.devices[order[3]].fail()
    assert engine.run_process(array.read(0)) == data[0]
    assert engine.run_process(array.read(3)) == data[3]


def test_raid6_data_plus_p_failure_uses_q():
    engine = Engine()
    array = make_raid6(engine)
    data = [chunk(90 + i) for i in range(array.data_per_stripe)]
    engine.run_process(array.write_stripe(0, data))
    p_dev, _q_dev = array.parity_devices(0)
    order = array.stripe_device_order(0)
    array.devices[p_dev].fail()
    array.devices[order[1]].fail()
    assert engine.run_process(array.read(1)) == data[1]


def test_raid6_triple_failure_degraded():
    engine = Engine()
    array = make_raid6(engine)
    engine.run_process(
        array.write_stripe(0, [chunk(1)] * array.data_per_stripe)
    )
    for index in range(3):
        array.devices[index].fail()
    with pytest.raises(RaidDegradedError):
        engine.run_process(array.read(0))


def test_raid6_rebuild_after_double_failure():
    engine = Engine()
    array = make_raid6(engine)
    for stripe in range(3):
        data = [
            chunk((stripe * 7 + i) % 256)
            for i in range(array.data_per_stripe)
        ]
        engine.run_process(array.write_stripe(stripe, data))
    victims = [array.devices[1], array.devices[4]]
    snapshots = [dict(v._chunks) for v in victims]
    for victim in victims:
        victim.fail()
    # Rebuild one device at a time, as a real array would: the second
    # victim stays marked failed while the first is reconstructed.
    victims[0].replace()
    engine.run_process(array.rebuild(1))
    victims[1].replace()
    engine.run_process(array.rebuild(4))
    assert victims[0]._chunks == snapshots[0]
    assert victims[1]._chunks == snapshots[1]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    fail_a=st.integers(min_value=0, max_value=5),
    fail_b=st.integers(min_value=0, max_value=5),
)
def test_property_raid6_any_two_failures_recoverable(seed, fail_a, fail_b):
    """Any pair of member failures leaves every data chunk readable."""
    import numpy as np

    engine = Engine()
    array = make_raid6(engine)
    rng = np.random.default_rng(seed)
    data = [
        rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes()
        for _ in range(array.data_per_stripe)
    ]
    engine.run_process(array.write_stripe(0, data))
    array.devices[fail_a].fail()
    array.devices[fail_b].fail()
    for index in range(array.data_per_stripe):
        assert engine.run_process(array.read(index)) == data[index]


# ----------------------------------------------------------------------
# GF(256)
# ----------------------------------------------------------------------
def test_gf256_field_axioms():
    from repro.storage.gf256 import gf_div, gf_mul, gf_pow

    assert gf_mul(1, 57) == 57
    assert gf_mul(0, 57) == 0
    for a in (1, 2, 37, 255):
        for b in (1, 3, 100, 254):
            assert gf_div(gf_mul(a, b), b) == a
    assert gf_pow(2, 0) == 1
    assert gf_pow(2, 1) == 2


def carryless_product(a: int, b: int) -> int:
    """GF(256) multiply by shift-and-add, reducing by 0x11d: no tables."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


def test_gf256_product_table_holds_all_65536_products():
    from repro.storage.gf256 import gf_mul, gf_mul_bytes

    every = np.arange(256, dtype=np.uint8)
    for coefficient in range(256):
        products = gf_mul_bytes(every, coefficient)
        assert products.dtype == np.uint8
        expected = [gf_mul(a, coefficient) for a in range(256)]
        assert products.tolist() == expected
        assert expected == [
            carryless_product(a, coefficient) for a in range(256)
        ]


# ----------------------------------------------------------------------
# Volumes
# ----------------------------------------------------------------------
def test_volume_from_array_capacity():
    engine = Engine()
    array = make_raid5(engine)
    volume = Volume(engine, "buffer", array)
    assert volume.capacity == array.data_capacity


def test_volume_allocation_and_nospace():
    engine = Engine()
    volume = Volume(
        engine,
        "v",
        read_throughput=1e9,
        write_throughput=1e9,
        capacity=100,
        access_latency=0.0,
    )
    volume.allocate(60)
    volume.allocate(40)
    with pytest.raises(NoSpaceOLFSError):
        volume.allocate(1)
    volume.release(50)
    volume.allocate(10)


def test_volume_read_write_rates():
    engine = Engine()
    volume = Volume(
        engine,
        "v",
        read_throughput=1.2 * units.GB,
        write_throughput=1.0 * units.GB,
        capacity=units.TB,
        access_latency=0.0,
    )
    engine.run_process(volume.read(1.2 * units.GB))
    assert engine.now == pytest.approx(1.0, rel=1e-6)
    start = engine.now
    engine.run_process(volume.write(2.0 * units.GB))
    assert engine.now - start == pytest.approx(2.0, rel=1e-6)


def test_volume_streams_interfere():
    """Two concurrent streams on one volume each run at half rate (§4.7)."""
    engine = Engine()
    volume = Volume(
        engine,
        "v",
        read_throughput=100 * units.MB,
        write_throughput=100 * units.MB,
        capacity=units.TB,
        access_latency=0.0,
    )
    from repro.sim import AllOf

    ends = {}

    def stream(label):
        yield from volume.read(100 * units.MB)
        ends[label] = engine.now

    def main():
        a = engine.spawn(stream("a"))
        b = engine.spawn(stream("b"))
        yield AllOf([a, b])

    engine.run_process(main())
    assert ends["a"] == pytest.approx(2.0, rel=1e-6)
    assert ends["b"] == pytest.approx(2.0, rel=1e-6)


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def make_volumes(engine, count):
    return [
        Volume(
            engine,
            f"vol{i}",
            read_throughput=1e9,
            write_throughput=1e9,
            capacity=units.TB,
            access_latency=0.0,
        )
        for i in range(count)
    ]


def test_scheduler_shared_policy_uses_one_volume():
    engine = Engine()
    scheduler = IOStreamScheduler(make_volumes(engine, 3), policy="shared")
    names = set(scheduler.health()["assignment"].values())
    assert names == {"vol0"}


def test_scheduler_partitioned_spreads_streams():
    engine = Engine()
    scheduler = IOStreamScheduler(make_volumes(engine, 3), policy="partitioned")
    names = set(scheduler.health()["assignment"].values())
    assert len(names) == 3


def test_scheduler_unknown_policy_rejected():
    engine = Engine()
    with pytest.raises(StorageError):
        IOStreamScheduler(make_volumes(engine, 1), policy="weird")


def test_scheduler_needs_volumes():
    with pytest.raises(StorageError):
        IOStreamScheduler([])
