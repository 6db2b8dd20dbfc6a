"""Property tests: UDF image round-trips and RAID loss/recovery.

Hypothesis-driven checks of the two data-integrity pillars the rack rests
on (§4.1/§4.7): any file tree survives disc-image serialization, and any
RAID-5 single loss / RAID-6 double loss leaves every data chunk readable
and rebuildable.  These complement the targeted examples in
``test_udf.py``/``test_storage.py`` with randomized trees, payloads,
stripe counts and failure positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.sim import Engine
from repro.storage import RAID5, RAID6
from repro.storage.block import CHUNK_SIZE, BlockDevice
from repro.udf.constants import BLOCK_SIZE
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage

# ----------------------------------------------------------------------
# UDF image: serialize -> deserialize -> mount -> read
# ----------------------------------------------------------------------
_name = st.text(alphabet="abcdefgh", min_size=1, max_size=6)

# Entries: (nested path parts, payload, optional declared logical size).
_tree = st.lists(
    st.tuples(
        st.lists(_name, min_size=1, max_size=3),
        st.binary(min_size=0, max_size=3 * BLOCK_SIZE),
        st.booleans(),  # over-declare the logical size (forepart truncation)
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(entries=_tree, mtime=st.floats(min_value=0, max_value=1e9))
def test_property_udf_tree_roundtrip(entries, mtime):
    """Nested trees, sizes and mtimes survive serialize -> mount -> read."""
    fs = UDFFileSystem(10_000 * BLOCK_SIZE, label="prop")
    written = {}
    for index, (parts, data, oversize) in enumerate(entries):
        path = "/" + "/".join(parts) + f"/f{index}"
        logical = len(data) + (4 * BLOCK_SIZE if oversize else 0)
        fs.write_file(path, data, logical_size=logical, mtime=mtime)
        written[path] = (data, logical)

    restored = DiscImage.deserialize(
        DiscImage("prop-image", filesystem=fs).serialize()
    )
    assert restored.image_id == "prop-image"
    mounted = restored.mount()
    assert mounted.label == fs.label
    assert mounted.capacity == fs.capacity
    assert mounted.used_blocks == fs.used_blocks
    assert sorted(mounted.file_paths()) == sorted(written)
    for path, (data, logical) in written.items():
        assert mounted.read_file(path) == data
        entry = mounted.file_entry(path)
        assert entry.size == logical
        assert entry.mtime == mtime


@settings(max_examples=25, deadline=None)
@given(entries=_tree)
def test_property_udf_serialization_is_deterministic(entries):
    """The byte layout is a pure function of the tree."""
    blobs = []
    for _ in range(2):
        fs = UDFFileSystem(10_000 * BLOCK_SIZE)
        for index, (parts, data, _) in enumerate(entries):
            fs.write_file("/" + "/".join(parts) + f"/f{index}", data)
        blobs.append(DiscImage("x", filesystem=fs).serialize())
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------------------
# RAID: random payloads, random losses
# ----------------------------------------------------------------------
def _devices(engine, count):
    return [
        BlockDevice(engine, f"dev{i}", 64 * units.MB, 150 * units.MB, 0.001)
        for i in range(count)
    ]


def _random_stripes(seed, array, stripe_count):
    rng = np.random.default_rng(seed)
    chunks = []
    for stripe in range(stripe_count):
        data = [
            rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes()
            for _ in range(array.data_per_stripe)
        ]
        array.engine.run_process(array.write_stripe(stripe, data))
        chunks.extend(data)
    return chunks


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    members=st.integers(min_value=3, max_value=6),
    stripes=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_property_raid5_single_loss_recoverable(seed, members, stripes, data):
    """Any single member loss: every data chunk reads back, rebuild
    restores the member bit-for-bit."""
    engine = Engine()
    array = RAID5(engine, _devices(engine, members))
    chunks = _random_stripes(seed, array, stripes)
    victim_index = data.draw(
        st.integers(min_value=0, max_value=members - 1), label="victim"
    )
    victim = array.devices[victim_index]
    snapshot = dict(victim._chunks)

    victim.fail()
    for index, expected in enumerate(chunks):
        assert engine.run_process(array.read(index)) == expected

    victim.replace()
    engine.run_process(array.rebuild(victim_index))
    assert victim._chunks == snapshot
    for index, expected in enumerate(chunks):
        assert engine.run_process(array.read(index)) == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    stripes=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_property_raid6_double_loss_recoverable(seed, stripes, data):
    """Any one or two distinct member losses: reads and rebuilds survive."""
    members = 6
    engine = Engine()
    array = RAID6(engine, _devices(engine, members))
    chunks = _random_stripes(seed, array, stripes)
    victims = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=members - 1),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        label="victims",
    )
    snapshots = {i: dict(array.devices[i]._chunks) for i in victims}
    for index in victims:
        array.devices[index].fail()

    for index, expected in enumerate(chunks):
        assert engine.run_process(array.read(index)) == expected

    # Rebuild one member at a time, as a real array would.
    for index in victims:
        array.devices[index].replace()
        engine.run_process(array.rebuild(index))
        assert array.devices[index]._chunks == snapshots[index]
    assert array.failed_members() == []
    for index, expected in enumerate(chunks):
        assert engine.run_process(array.read(index)) == expected
