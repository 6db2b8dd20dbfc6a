"""A burned parity disc keeps a recipe, not its bytes (§4.7).

Parity is derived: at its array's commit a parity track burned whole, as
one track, gives up its payload for a :class:`ParityRecipe` over the
data blobs the same round burned, and every read rebuilds the burned
bytes through :func:`parity_shard`, the encoder that made them.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.drives.drive import DriveState
from repro.olfs.images import BURNED, ParityRecipe, pad_blobs, parity_shard
from repro.storage.raid import erasure_parity
from tests.conftest import make_ros
from tests.test_scrub_policies import (
    burned_vault,
    corrupt,
    corrupt_parity,
    data_images_of,
)


def parity_tracks(ros):
    """``(record, disc, track)`` of every burned parity image."""
    for record in ros.dim.records.values():
        if record.kind != "parity" or record.state != BURNED:
            continue
        roller, address = record.array_address
        tray = ros.mech.rollers[roller].tray_at(address)
        [disc] = [d for d in tray.discs() if d.disc_id == record.disc_id]
        yield record, disc, disc.find_track(record.image_id)


def sha(blob):
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("data_discs,parity_discs,files", [
    (3, 1, 12),
    (10, 2, 30),
])
def test_committed_parity_tracks_are_recipes_of_the_hashed_bytes(
    data_discs, parity_discs, files
):
    ros = make_ros(data_discs=data_discs, parity_discs=parity_discs)
    payloads = {}
    for index in range(files):
        path = f"/recipe/f{index:02d}.bin"
        # unequal sizes, so the data blobs of an array differ in length
        payloads[path] = bytes([index + 1]) * (9000 + 1700 * index)
        ros.write(path, payloads[path])
    ros.flush()
    positions = set()
    found = 0
    for record, disc, track in parity_tracks(ros):
        members = ros.mc.array_images[record.array_address]
        data = [i for i in members if not i.startswith("par-")]
        if len(data) == data_discs:
            positions.add(track.payload.position)
        assert isinstance(track.payload, ParityRecipe)
        rebuilt = bytes(track.payload)
        # the bytes mark_burned fingerprinted at the commit
        assert sha(rebuilt) == record.checksum
        assert len(track.payload) == len(rebuilt)
        assert sha(disc.image(record.image_id).read()) == record.checksum
        found += 1
    assert found
    # a full array was burned, with P (and Q at 10+2)
    assert positions == set(range(parity_discs))
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_an_interrupted_parity_burn_keeps_its_pieces_as_bytes():
    ros = make_ros(
        bucket_capacity=16 * 1024 * 1024,
        busy_drive_policy="interrupt",
        forepart_enabled=False,
        auto_burn=False,
    )
    images = {}
    encode_parity = ros.dim.encode_parity

    def encode_spy(records, blobs):
        encoded = encode_parity(records, blobs)
        images.update((parity.image_id, parity) for parity in encoded)
        return encoded

    ros.dim.encode_parity = encode_spy
    for index in range(4):
        ros.write(f"/old/f{index}.bin", b"o" * 300_000)
    ros.flush()
    ros.cache.evict(ros.stat("/old/f0.bin")["locations"][0])
    for index in range(4):
        ros.write(f"/new/f{index}.bin", b"n" * 300_000, 12 * 1024 * 1024)
    ros.wbm.close_nonempty_buckets()
    tasks = ros.btm.flush_pending()

    def parity_burning():
        return any(
            drive.state is DriveState.BURNING
            for task in tasks if task.state == "burning"
            for drive in ros.mech.drive_sets[task.roller].drives[
                len(task.data_images) : len(task.payloads)
            ]
        )

    # the read interrupts an array whose parity disc is mid-burn
    while not parity_burning():
        assert ros.now < 3600, "no parity disc ever started burning"
        ros.engine.run(until=ros.now + 0.05)
    assert ros.read("/old/f0.bin").data == b"o" * 300_000
    ros.settle()
    assert any(task.interruptions for task in tasks)

    whole = pieces = 0
    for record, disc, track in parity_tracks(ros):
        blob = images[record.image_id].serialize()
        assert sha(blob) == record.checksum
        assert disc.image(record.image_id).read() == blob
        if track is None:
            partial = disc.find_track(f"{record.image_id}.partial")
            rest = disc.find_track(f"{record.image_id}.rest")
            assert type(partial.payload) is bytes
            assert type(rest.payload) is bytes
            pieces += 1
        else:
            assert isinstance(track.payload, ParityRecipe)
            whole += 1
    assert whole and pieces


@pytest.mark.parametrize("parity_discs", [1, 2])
def test_a_data_sector_error_is_repaired_from_a_recipe(parity_discs):
    ros, payloads, roller, address = burned_vault(parity_discs)
    recipes = [
        track for record, _, track in parity_tracks(ros)
        if record.array_address == (roller, address)
    ]
    assert len(recipes) == parity_discs
    assert all(isinstance(t.payload, ParityRecipe) for t in recipes)
    victim = data_images_of(ros, roller, address)[0]
    corrupt(ros, roller, address, victim)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["errors"] == 1
    assert report["repaired"] == [victim]
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_a_data_checksum_mismatch_is_repaired_from_a_recipe():
    ros, payloads, roller, address = burned_vault()
    victim = data_images_of(ros, roller, address)[0]
    disc_id = ros.dim.record(victim).disc_id
    [disc] = [
        d for d in ros.mech.rollers[roller].tray_at(address).discs()
        if d.disc_id == disc_id
    ]
    track = disc.tracks[0]
    track.payload = track.payload[:-1] + bytes([track.payload[-1] ^ 0xFF])
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["checksum_mismatches"] == 1
    assert report["repaired"] == [victim]
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_a_scrub_finds_a_sector_error_on_a_recipe_track():
    ros, payloads, roller, address = burned_vault()
    disc = corrupt_parity(ros, roller, address)
    assert isinstance(disc.tracks[0].payload, ParityRecipe)
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["errors"] == 1
    assert report["checksum_mismatches"] == 0
    assert report["migrated"] == data_images_of(ros, roller, address)
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


def test_a_scrub_finds_a_checksum_mismatch_on_a_recipe_track():
    ros, payloads, roller, address = burned_vault()
    [(record, disc, track)] = [
        found for found in parity_tracks(ros)
        if found[0].array_address == (roller, address)
    ]
    recipe = track.payload
    # one flipped bit in what the recipe rebuilds: its first data blob
    first = recipe.blobs[0]
    recipe.blobs = [bytes([first[0] ^ 1]) + first[1:], *recipe.blobs[1:]]
    assert sha(bytes(recipe)) != record.checksum
    report = ros.run(ros.mi.scrub_array(roller, address))
    assert report["errors"] == 1
    assert report["checksum_mismatches"] == 1
    assert report["migrated"] == data_images_of(ros, roller, address)
    for path, payload in payloads.items():
        assert ros.read(path).data == payload


@settings(max_examples=60, deadline=None)
@example(lengths=[0, 0], equal=True, seed=0)
@example(lengths=[7, 0, 300, 5], equal=False, seed=1)
@given(
    lengths=st.lists(st.integers(0, 300), min_size=1, max_size=12),
    equal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_shard_equals_the_padded_erasure_code(lengths, equal, seed):
    if equal:
        lengths = [lengths[0]] * len(lengths)
    rng = np.random.default_rng(seed)
    blobs = [rng.integers(0, 256, n, dtype=np.uint8).tobytes()
             for n in lengths]
    reference = erasure_parity(pad_blobs(blobs), 2)
    for position in (0, 1):
        shard = parity_shard(blobs, position)
        assert shard.tobytes() == reference[position].tobytes()
        head = b"header"
        recipe = ParityRecipe(head + shard.tobytes(), blobs, position)
        assert recipe.head == head
        assert len(recipe) == len(head) + max(lengths)
        assert bytes(recipe) == head + reference[position].tobytes()
