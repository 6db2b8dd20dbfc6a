"""FirstOf races and the §4.8 client read-timeout semantics."""

import pytest

from repro.errors import TimeoutOLFSError
from repro.sim import Delay, Engine, FirstOf
from tests.conftest import make_ros


# ----------------------------------------------------------------------
# FirstOf engine primitive
# ----------------------------------------------------------------------
def test_firstof_returns_winner():
    engine = Engine()

    def runner(delay, value):
        yield Delay(delay)
        return value

    def main():
        fast = engine.spawn(runner(1.0, "fast"))
        slow = engine.spawn(runner(5.0, "slow"))
        index, value = yield FirstOf([slow, fast])
        return index, value, engine.now

    index, value, now = engine.run_process(main())
    assert (index, value) == (1, "fast")
    assert now == 1.0


def test_firstof_loser_keeps_running():
    engine = Engine()
    log = []

    def runner(delay, label):
        yield Delay(delay)
        log.append((label, engine.now))

    def main():
        a = engine.spawn(runner(1.0, "a"))
        b = engine.spawn(runner(3.0, "b"))
        yield FirstOf([a, b])
        return engine.now

    assert engine.run_process(main()) == 1.0
    engine.run()
    assert ("b", 3.0) in log


def test_firstof_propagates_winner_failure():
    engine = Engine()

    def failer():
        yield Delay(1.0)
        raise ValueError("early death")

    def slow():
        yield Delay(10.0)

    def main():
        a = engine.spawn(failer())
        b = engine.spawn(slow())
        yield FirstOf([a, b])

    with pytest.raises(ValueError, match="early death"):
        engine.run_process(main())


def test_firstof_with_already_finished_process():
    engine = Engine()

    def instant():
        yield Delay(0)
        return 7

    def main():
        done = engine.spawn(instant())
        yield Delay(2)
        other = engine.spawn(instant())
        index, value = yield FirstOf([done, other])
        return index, value

    index, value = engine.run_process(main())
    assert value == 7


def test_firstof_empty_rejected():
    with pytest.raises(ValueError):
        FirstOf([])


def test_firstof_simultaneous_completions_pick_one():
    engine = Engine()

    def runner(value):
        yield Delay(2.0)
        return value

    def main():
        a = engine.spawn(runner("a"))
        b = engine.spawn(runner("b"))
        index, value = yield FirstOf([a, b])
        return index, value

    index, value = engine.run_process(main())
    assert value in ("a", "b")  # exactly one winner, no double resume


# ----------------------------------------------------------------------
# Client read timeout (§4.8)
# ----------------------------------------------------------------------
def _cold_rack(**kwargs):
    ros = make_ros(**kwargs)
    ros.write("/slow/file.bin", b"t" * 20000)
    ros.flush()
    image_id = ros.stat("/slow/file.bin")["locations"][0]
    ros.cache.evict(image_id)
    return ros


def test_cold_read_times_out_without_forepart():
    from repro.olfs.config import OLFSConfig

    ros = _cold_rack(forepart_enabled=False)
    ros.config.client_read_timeout = 30.0
    start = ros.now
    with pytest.raises(TimeoutOLFSError):
        ros.read("/slow/file.bin")
    # The client gave up at ~30 s, not after the 70 s fetch.
    assert ros.now - start == pytest.approx(30.0, abs=1.0)


def test_background_fetch_still_warms_cache_after_timeout():
    ros = _cold_rack(forepart_enabled=False)
    ros.config.client_read_timeout = 30.0
    with pytest.raises(TimeoutOLFSError):
        ros.read("/slow/file.bin")
    ros.drain_background()
    ros.config.client_read_timeout = None
    result = ros.read("/slow/file.bin")
    assert result.data == b"t" * 20000
    assert result.total_seconds < 1.0  # served from the warmed cache


def test_forepart_prevents_client_timeout():
    """The whole point of §4.8: with the forepart trickling, the client
    never observes a timeout even though the fetch takes ~70 s."""
    ros = _cold_rack(forepart_enabled=True)
    ros.config.client_read_timeout = 30.0
    result = ros.read("/slow/file.bin")
    assert result.used_forepart
    assert result.data == b"t" * 20000
    assert result.total_seconds > 60


def test_warm_read_never_times_out():
    ros = make_ros(forepart_enabled=False)
    ros.config.client_read_timeout = 0.5
    ros.write("/fast/file.bin", b"quick")
    assert ros.read("/fast/file.bin").data == b"quick"
