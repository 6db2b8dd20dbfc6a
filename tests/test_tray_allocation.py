"""Tests for blank-tray allocation: sequential, top-down, never a failed tray."""

from repro.mechanics.geometry import TrayAddress
from repro.olfs.mechanical import ArrayState
from tests.conftest import make_ros


def burn_one_array(ros):
    for index in range(4):
        ros.write(f"/alloc/{ros.now:.0f}-{index}.bin", b"a" * 20000)
    ros.flush()


def test_sequential_fills_top_down():
    ros = make_ros()
    burn_one_array(ros)
    used = [
        address
        for (roller, address), state in ros.mc.da_index.items()
        if state is ArrayState.USED
    ]
    assert all(address.layer == 0 for address in used)


def test_sequential_cursor_advances():
    ros = make_ros()
    for _ in range(3):
        burn_one_array(ros)
    used = sorted(
        address
        for (roller, address), state in ros.mc.da_index.items()
        if state is ArrayState.USED
    )
    # Consecutive slots of the top layers, no reuse.
    assert len(used) == len(set(used)) >= 3


def test_failed_trays_never_allocated():
    ros = make_ros()
    ros.mc.set_state(0, TrayAddress(0, 0), ArrayState.FAILED)
    roller_id, address = ros.mc.find_blank_tray(0)
    assert address != TrayAddress(0, 0)

