"""Shared fixtures: scaled-down OLFS instances that run the full data path."""

import pytest

from repro import ROS, OLFSConfig, units
from repro.faults import FaultInjector
from repro.obs import FlightRecorder, SystemMonitor
from repro.sim.tracing import Tracer


def make_ros(
    data_discs=3,
    parity_discs=1,
    bucket_capacity=64 * 1024,
    roller_count=1,
    busy_drive_policy="wait",
    forepart_enabled=True,
    read_cache_images=2,
    auto_burn=True,
    update_in_place=True,
    cache_granularity="image",
    prefetch_siblings=0,
    buffer_volume_capacity=200 * units.MB,
    tracing=False,
    trace_seed=0x7ACE,
    fault_plan=None,
    fault_seed=0xFA17,
    monitoring=False,
    monitor_period=5.0,
):
    """A small ROS rack: tiny buckets so burns complete in simulated minutes.

    The observer keywords attach to the rack's engine the way every
    campaign does, in this order: ``tracing`` installs a
    :class:`~repro.sim.tracing.Tracer` (``ros.engine.trace``);
    ``fault_plan`` (even an empty ``FaultPlan()``, for imperative
    injection) a seeded :class:`repro.faults.FaultInjector` bound to the
    rack (``ros.engine.faults``); ``monitoring`` a
    :class:`~repro.obs.FlightRecorder` (``ros.engine.recorder``) and a
    :class:`~repro.obs.SystemMonitor` (``ros.monitor``).
    """
    config = OLFSConfig(
        data_discs_per_array=data_discs,
        parity_discs_per_array=parity_discs,
        read_cache_images=read_cache_images,
        busy_drive_policy=busy_drive_policy,
        forepart_enabled=forepart_enabled,
        auto_burn=auto_burn,
        update_in_place=update_in_place,
        cache_granularity=cache_granularity,
        prefetch_siblings=prefetch_siblings,
    ).scaled_for_tests(bucket_capacity=bucket_capacity)
    ros = ROS(
        config=config,
        roller_count=roller_count,
        buffer_volume_capacity=buffer_volume_capacity,
    )
    if tracing:
        Tracer(ros.engine, seed=trace_seed).install()
    if fault_plan is not None:
        injector = FaultInjector(ros.engine, fault_plan, seed=fault_seed)
        injector.bind(ros).install().start()
    if monitoring:
        FlightRecorder(ros.engine).install()
        SystemMonitor(ros, period=monitor_period).start()
    return ros


def write_batch(ros, count=8, size=20000, prefix="/inj"):
    """Write ``count`` distinct files; returns ``{path: payload}``."""
    payloads = {}
    for index in range(count):
        path = f"{prefix}/f{index:02d}.bin"
        payloads[path] = bytes([(index + 1) % 251]) * size
        ros.write(path, payloads[path])
    return payloads


def fill_and_burn(ros, files=12, size=30000, prefix="/data"):
    """Write enough data to close buckets and trigger array burns."""
    payloads = write_batch(ros, count=files, size=size, prefix=prefix)
    ros.flush()
    return payloads


def populated(files=12, size=20000, prefix="/archive/y2026", **kwargs):
    """A freshly built rack with ``files`` burned files on it."""
    ros = make_ros(**kwargs)
    payloads = write_batch(ros, count=files, size=size, prefix=prefix)
    ros.flush()
    return ros, payloads


@pytest.fixture
def ros():
    return make_ros()
