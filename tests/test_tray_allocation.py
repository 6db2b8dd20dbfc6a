"""Tests for blank-tray allocation: sequential, top-down, never a failed tray."""

from repro.mechanics import geometry
from repro.mechanics.geometry import RollerGeometry, TrayAddress
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



def test_burns_move_on_to_the_next_roller_once_the_first_is_full(
    monkeypatch,
):
    """Two rollers of two trays each: once roller 0's trays are Used the
    next arrays burn on roller 1, and a cold read of one of them goes
    through roller 1's drive set."""
    monkeypatch.setattr(
        geometry, "DEFAULT_GEOMETRY",
        RollerGeometry(layers=1, slots_per_layer=2),
    )
    ros = make_ros(roller_count=2, bucket_capacity=230 * 1024)
    payloads = {}
    for index in range(60):
        path = f"/two/f{index:02d}.bin"
        payloads[path] = bytes([index + 1]) * 40_000
        ros.write(path, payloads[path])
    ros.flush()
    assert [state for _, state in sorted(ros.mc.da_index.items())] == [
        ArrayState.USED
    ] * 4
    assert ros.btm.health()["failed"] == 0
    images = {
        path: ros.run(ros.mv.lookup_index(path)).current.locations[0]
        for path in payloads
    }
    on_roller_1 = [
        path
        for path, image_id in images.items()
        if ros.dim.records[image_id].array_address[0] == 1
        and image_id not in ros.cache
    ]
    assert on_roller_1
    path = on_roller_1[0]
    result = ros.read(path)
    assert result.data == payloads[path]
    assert result.source == "roller"
    assert ros.mech.drive_sets[1].loaded_from[0] == 1
    assert ros.mech.drive_sets[0].is_empty
