"""The header-only image parse against the eager one it replaced.

``DiscImage.deserialize`` decodes only a volume's header: a file is
sliced out of the image's bytes on demand (``file_entry``) and the tree
is built the first time something walks it (``mount``).  ``eager`` below
is the parse it replaced, kept as the reference: it built the whole
``UDFFileSystem`` up front, copying every payload out of the blob.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileNotFoundOLFSError, SectorError
from repro.media.disc import BD25, PARTIAL_SUFFIX, REST_SUFFIX, OpticalDisc
from repro.udf.constants import BLOCK_SIZE
from repro.udf.entry import DirectoryEntry
from repro.udf.filesystem import UDFFileSystem
from repro.udf.image import DiscImage, _decode_header
from tests.conftest import make_ros


def eager(blob: bytes):
    """The reference parse: ``(image_id, kind, logical_size, fs)``."""
    header, cursor = _decode_header(blob)
    fs = UDFFileSystem(header["capacity"], label=header["label"])
    for entry in header["entries"]:
        if entry["type"] == "dir":
            fs.makedirs(entry["path"], mtime=entry["mtime"])
        else:
            start = cursor + entry["offset"]
            fs.write_file(
                entry["path"],
                blob[start : start + entry["length"]],
                logical_size=entry["size"],
                mtime=entry["mtime"],
            )
    fs.close()
    return header["image_id"], header["kind"], header["logical_size"], fs


def tree_of(fs):
    """Every entry of ``fs``, comparable across two volumes."""
    return [
        (path, "dir", entry.mtime)
        if isinstance(entry, DirectoryEntry)
        else (path, entry.data, entry.logical_size, entry.mtime)
        for path, entry in fs.walk()
    ]


_name = st.text(alphabet="abcdef", min_size=1, max_size=4)

#: (nested dirs, payload or None for an empty directory, declared extra
#: bytes, mtime)
_entries = st.lists(
    st.tuples(
        st.lists(_name, min_size=0, max_size=3),
        st.one_of(st.none(), st.binary(min_size=0, max_size=2 * BLOCK_SIZE)),
        st.sampled_from([0, 1, 3 * BLOCK_SIZE]),
        st.floats(0.0, 1e9),
    ),
    min_size=0,
    max_size=10,
)


def build(entries, kind, label):
    fs = UDFFileSystem(10_000 * BLOCK_SIZE, label=label)
    for index, (parts, payload, extra, mtime) in enumerate(entries):
        directory = "/" + "/".join(parts) if parts else ""
        if payload is None:
            if directory:
                fs.makedirs(directory, mtime=mtime)
            continue
        fs.write_file(
            f"{directory}/f{index}",
            payload,
            logical_size=len(payload) + extra,
            mtime=mtime,
        )
    fs.close()
    return DiscImage(f"{kind}-x", kind=kind, filesystem=fs), fs


@settings(max_examples=60, deadline=None)
@given(
    entries=_entries,
    kind=st.sampled_from(["data", "metadata"]),
    label=st.text(alphabet="xyz-", max_size=6),
)
def test_light_parse_matches_the_eager_reference(entries, kind, label):
    written, _ = build(entries, kind, label)
    blob = written.serialize()
    image_id, ref_kind, ref_size, reference = eager(blob)

    parsed = DiscImage.deserialize(blob)
    assert (parsed.image_id, parsed.kind) == (image_id, ref_kind)
    assert parsed.logical_size == ref_size
    assert parsed.filesystem is None  # nothing walked yet
    for path in reference.file_paths():
        light, full = parsed.file_entry(path), reference.file_entry(path)
        assert (light.name, light.data, light.logical_size, light.mtime) \
            == (full.name, full.data, full.logical_size, full.mtime)
    with pytest.raises(FileNotFoundOLFSError):
        parsed.file_entry("/no/such/file")
    assert parsed.filesystem is None  # reading files builds no tree

    mounted = parsed.mount()
    assert tree_of(mounted) == tree_of(reference)
    assert mounted.used_bytes == reference.used_bytes
    assert (mounted.label, mounted.capacity) \
        == (reference.label, reference.capacity)
    assert mounted.read_only
    assert parsed.mount() is mounted
    assert parsed.serialize() == blob


def test_a_split_image_parses_like_the_whole():
    written, fs = build(
        [(["a"], b"x" * 5000, 0, 1.0), (["a", "b"], b"", 7, 2.0),
         ([], b"y" * 300, 4096, 3.0)],
        "data", "split",
    )
    blob = written.serialize()
    disc = OpticalDisc("d", BD25)
    cut = len(blob) // 2
    disc.burn_track(blob[:cut], label="data-x" + PARTIAL_SUFFIX, close=False)
    disc.burn_track(blob[cut:], label="data-x" + REST_SUFFIX)
    joined = disc.image("data-x").read()
    assert joined == blob
    parsed = DiscImage.deserialize(joined)
    for path in fs.file_paths():
        assert parsed.file_entry(path).data == fs.file_entry(path).data
    assert tree_of(parsed.mount()) == tree_of(eager(blob)[3])


def test_a_one_track_image_reads_as_its_track_payload():
    written, _ = build([([], b"z" * 100, 0, 0.0)], "data", "one")
    disc = OpticalDisc("d", BD25)
    track = disc.burn_track(written.serialize(), label="data-x")
    assert disc.image("data-x").read() is track.payload


def test_parity_images_still_round_trip():
    parity = DiscImage("par-x", kind="parity", raw=b"\x5a" * 999)
    blob = parity.serialize()
    parsed = DiscImage.deserialize(blob)
    assert parsed.kind == "parity"
    assert parsed.raw == b"\x5a" * 999
    assert parsed.serialize() is blob


def test_a_memoised_track_still_raises_its_sector_error():
    """The fetch memo is keyed by the bytes the disc read returns, so
    every fetch still reads the track and meets its bad sectors."""
    ros = make_ros(read_cache_images=1)
    for index in range(6):
        ros.write(f"/f{index}.bin", bytes([index]) * 20_000)
    ros.flush()
    ros.drain_background()
    image_id = ros.stat("/f0.bin")["locations"][0]
    ros.cache.evict(image_id)
    assert ros.read("/f0.bin").data == bytes([0]) * 20_000
    record = ros.dim.record(image_id)
    disc = ros.mech.disc_by_id(record.disc_id)
    blob = disc.image(image_id).read()
    assert blob in ros.ftm._parsed  # the cold read memoised the parse

    ros.cache.evict(image_id)
    disc.bad_sectors.add(disc.image(image_id).tracks[0].start_sector)
    with pytest.raises(SectorError):
        ros.run(ros.ftm.fetch_file(image_id, "/f0.bin"))
