"""Tests for file-grain caching and sequential prefetch (§4.1 extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olfs.prefetch import FileGrainCache, SequentialPrefetcher
from tests.conftest import make_ros


# ----------------------------------------------------------------------
# FileGrainCache unit tests
# ----------------------------------------------------------------------
def test_file_cache_put_get():
    cache = FileGrainCache(1024)
    cache.put("img-1", "/a", b"data")
    assert cache.get("img-1", "/a") == b"data"
    assert cache.get("img-1", "/b") is None


def test_file_cache_byte_budget_eviction():
    cache = FileGrainCache(100)
    cache.put("i", "/a", b"x" * 60)
    cache.put("i", "/b", b"y" * 60)  # evicts /a
    assert cache.get("i", "/a") is None
    assert cache.get("i", "/b") == b"y" * 60
    assert cache.used_bytes == 60


def test_file_cache_lru_order():
    cache = FileGrainCache(100)
    cache.put("i", "/a", b"x" * 40)
    cache.put("i", "/b", b"y" * 40)
    cache.get("i", "/a")  # refresh /a
    cache.put("i", "/c", b"z" * 40)  # evicts /b, not /a
    assert cache.get("i", "/a") is not None
    assert cache.get("i", "/b") is None


def test_file_cache_oversized_entry_ignored():
    cache = FileGrainCache(10)
    cache.put("i", "/big", b"x" * 100)
    assert not cache.entries


def test_file_cache_replace_updates_budget():
    cache = FileGrainCache(100)
    cache.put("i", "/a", b"x" * 50)
    cache.put("i", "/a", b"y" * 30)
    assert cache.used_bytes == 30
    assert cache.get("i", "/a") == b"y" * 30


def test_file_cache_stats():
    cache = FileGrainCache(100)
    cache.put("i", "/a", b"1234")
    cache.get("i", "/a")
    cache.get("i", "/nope")
    assert cache.hits == 1 and cache.misses == 1


@settings(max_examples=40, deadline=None)
@given(
    puts=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_file_cache_never_exceeds_budget(puts):
    cache = FileGrainCache(100)
    for name, size in puts:
        cache.put("img", f"/{name}", b"z" * size)
    assert cache.used_bytes <= 100
    assert cache.used_bytes == sum(
        len(v) for v in cache.entries.values()
    )


# ----------------------------------------------------------------------
# SequentialPrefetcher unit tests
# ----------------------------------------------------------------------
def _image_with_files(names):
    from repro.udf.filesystem import UDFFileSystem
    from repro.udf.image import DiscImage

    fs = UDFFileSystem(1024 * 2048, label="img")
    for name in names:
        fs.write_file(f"/d/{name}", name.encode())
    fs.close()
    return DiscImage("img", filesystem=fs)


def test_prefetcher_picks_successors_in_name_order():
    image = _image_with_files(["f1", "f2", "f3", "f4"])
    prefetcher = SequentialPrefetcher(2)
    assert prefetcher.candidates(image, "/d/f1") == ["/d/f2", "/d/f3"]


def test_prefetcher_at_end_of_directory():
    image = _image_with_files(["f1", "f2"])
    prefetcher = SequentialPrefetcher(3)
    assert prefetcher.candidates(image, "/d/f2") == []


def test_prefetcher_depth_zero_disabled():
    image = _image_with_files(["f1", "f2"])
    assert SequentialPrefetcher(0).candidates(image, "/d/f1") == []


def test_prefetcher_swallows_only_a_missing_directory(monkeypatch):
    """A directory the image lacks means "no candidates"; any other
    error out of the mounted filesystem propagates."""
    from repro.udf.filesystem import UDFFileSystem

    image = _image_with_files(["f1", "f2"])
    prefetcher = SequentialPrefetcher(2)
    assert prefetcher.candidates(image, "/elsewhere/f1") == []

    def broken_listdir(self, path="/"):
        raise RuntimeError("corrupt image")

    monkeypatch.setattr(UDFFileSystem, "listdir", broken_listdir)
    with pytest.raises(RuntimeError):
        prefetcher.candidates(image, "/d/f1")


# ----------------------------------------------------------------------
# Integrated: file-grain mode end to end
# ----------------------------------------------------------------------
def _burned_rack(**kwargs):
    ros = make_ros(**kwargs)
    payloads = {}
    for index in range(8):
        path = f"/seq/f{index:02d}.bin"
        payloads[path] = bytes([index + 1]) * 12000
        ros.write(path, payloads[path])
    ros.flush()
    for image_id in list(ros.cache.cached_ids):
        ros.cache.evict(image_id)
    # In file mode images were never admitted; drop pinned content too.
    for record in ros.dim.records.values():
        if record.state == "burned" and record.image is not None:
            ros.dim.evict_content(record.image_id)
    return ros, payloads


def test_file_grain_cold_read_then_file_cache_hit():
    ros, payloads = _burned_rack(cache_granularity="file")
    path = "/seq/f00.bin"
    first = ros.read(path)
    assert first.source in ("roller", "drive")
    assert first.data == payloads[path]
    ros.drain_background()
    second = ros.read(path)
    assert second.source == "file-cache"
    assert second.data == payloads[path]
    assert second.total_seconds < 0.1


def test_file_grain_does_not_admit_whole_images():
    ros, payloads = _burned_rack(cache_granularity="file")
    ros.read("/seq/f00.bin")
    ros.drain_background()
    # No image content re-admitted to the buffer cache.
    assert ros.cache.cached_ids == []
    assert ros.ftm.file_cache.entries


def test_prefetch_warms_siblings():
    ros, payloads = _burned_rack(
        cache_granularity="file", prefetch_siblings=3
    )
    path = "/seq/f00.bin"
    ros.read(path)
    ros.drain_background()
    assert ros.ftm.prefetcher.prefetched >= 1
    # A sibling that shared the image is now a file-cache hit.
    image_id = ros.stat(path)["locations"][0]
    siblings = [
        p
        for p in payloads
        if p != path and ros.stat(p)["locations"][0] == image_id
    ]
    if not siblings:
        pytest.skip("no sibling shared the image at this bucket size")
    result = ros.read(sorted(siblings)[0])
    assert result.source == "file-cache"


def test_image_grain_still_default():
    ros, _ = _burned_rack()
    assert ros.ftm.file_cache is None
    assert ros.ftm.prefetcher is None


def test_invalid_granularity_rejected():
    from repro.olfs.config import OLFSConfig

    with pytest.raises(ValueError):
        OLFSConfig(cache_granularity="block")
