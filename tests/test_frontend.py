"""Frontend stack composition tests (Figure 6 / Figure 7 calibration)."""

import pytest

from repro import units
from repro.frontend import CONFIGURATIONS, make_stack
from repro.sim import Engine
from repro.workloads import SinglestreamWorkload


def test_all_five_paper_configurations_exist():
    for name in ("ext4", "ext4+FUSE", "ext4+OLFS", "samba", "samba+FUSE", "samba+OLFS"):
        assert name in CONFIGURATIONS


def test_unknown_configuration_rejected():
    with pytest.raises(KeyError):
        make_stack("zfs")


# ----------------------------------------------------------------------
# Figure 6: normalized throughput
# ----------------------------------------------------------------------
PAPER_NORMALIZED = {
    # §5.3 text-derived (read, write) normalized to ext4
    "ext4+FUSE": (0.759, 0.482),
    "ext4+OLFS": (0.539, 0.433),
    "samba": (0.311, 0.320),
    "samba+OLFS": (0.197, 0.324),
}


@pytest.mark.parametrize("name,expected", sorted(PAPER_NORMALIZED.items()))
def test_figure6_normalized_throughput(name, expected):
    base = make_stack("ext4")
    read, write = make_stack(name).normalized(base)
    assert read == pytest.approx(expected[0], rel=0.05)
    assert write == pytest.approx(expected[1], rel=0.05)


def test_samba_olfs_absolute_throughput_matches_paper():
    """§5.3: samba+OLFS provides 236.1 MB/s read, 323.6 MB/s write."""
    stack = make_stack("samba+OLFS")
    assert stack.read_throughput() / units.MB == pytest.approx(236.1, rel=0.05)
    assert stack.write_throughput() / units.MB == pytest.approx(323.6, rel=0.05)


def test_ext4_baseline_rates():
    stack = make_stack("ext4")
    assert stack.read_throughput() == pytest.approx(1.2 * units.GB)
    assert stack.write_throughput() == pytest.approx(1.0 * units.GB)


def test_read_ordering_monotone():
    """Each added layer slows reads: ext4 > +FUSE > +OLFS > +samba."""
    rates = [
        make_stack(name).read_throughput()
        for name in ("ext4", "ext4+FUSE", "ext4+OLFS", "samba+FUSE", "samba+OLFS")
    ]
    assert rates == sorted(rates, reverse=True)


def test_samba_fuse_between_samba_and_samba_olfs():
    samba = make_stack("samba").read_throughput()
    samba_fuse = make_stack("samba+FUSE").read_throughput()
    samba_olfs = make_stack("samba+OLFS").read_throughput()
    assert samba_olfs < samba_fuse < samba


def test_write_path_is_bottleneck_composed():
    """Write throughput = min of layer caps (pipelined path)."""
    assert make_stack("samba+OLFS").write_throughput() == make_stack(
        "samba"
    ).write_throughput()


def test_big_writes_ablation():
    """§4.8: 4 KB FUSE flushes are far slower than 128 KB big_writes."""
    big = make_stack("ext4+FUSE")
    small = make_stack("ext4+FUSE-4k")
    assert small.write_throughput() < big.write_throughput() / 3
    assert small.read_throughput() < big.read_throughput()


def test_samba_adds_extra_write_stats():
    assert make_stack("samba+OLFS").extra_write_stats() == 7
    assert make_stack("ext4+OLFS").extra_write_stats() == 0


# ----------------------------------------------------------------------
# Simulated singlestream (the workload integration)
# ----------------------------------------------------------------------
def test_singlestream_read_throughput_matches_model():
    engine = Engine()
    stack = make_stack("ext4+OLFS")
    workload = SinglestreamWorkload("read", total_bytes=1 * units.GB)
    result = engine.run_process(workload.run_on_stack(engine, stack))
    assert result.throughput_mb_s == pytest.approx(
        stack.read_throughput() / units.MB, rel=0.02
    )


def test_singlestream_write_throughput_matches_model():
    engine = Engine()
    stack = make_stack("samba+OLFS")
    workload = SinglestreamWorkload("write", total_bytes=1 * units.GB)
    result = engine.run_process(workload.run_on_stack(engine, stack))
    # the open/close metadata overhead shaves a sliver off the ceiling
    assert result.throughput_mb_s == pytest.approx(320.0, rel=0.02)
    assert result.throughput_mb_s < 320.0


def test_singlestream_rejects_bad_direction():
    with pytest.raises(ValueError):
        SinglestreamWorkload("append")


# ----------------------------------------------------------------------
# Figure 7 via the posix layer with a samba stack attached
# ----------------------------------------------------------------------
def test_figure7_samba_write_sequence():
    from tests.conftest import make_ros

    ros = make_ros()
    make_stack("samba+OLFS").attach(ros.pi)
    trace = ros.write("/smb/file.bin", b"x" * 1024)
    names = [op.name for op in trace.ops]
    # stat; 7 extra stats; mknod; stat; write; close  (Figure 7, bottom)
    assert names.count("stat") == 9
    assert names[0] == "stat"
    assert "mknod" in names
    seconds = sum(op.seconds for op in trace.ops)
    assert seconds == pytest.approx(0.053, rel=0.25)


def test_figure7_samba_read_latency():
    from tests.conftest import make_ros

    ros = make_ros()
    make_stack("samba+OLFS").attach(ros.pi)
    ros.write("/smb/file.bin", b"x" * 1024)
    result = ros.read("/smb/file.bin")
    assert result.total_seconds == pytest.approx(0.015, rel=0.3)
