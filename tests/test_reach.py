"""The reach ledger's comparison, on a toy package.

``benchmarks/perf/reach.py`` runs the gates (minutes) and compares the
functions none of them called with ``reach_ledger.txt``; that slow run
is CI's.  Here the same collector and comparison run over a toy module
and a toy ledger.
"""

import importlib
import sys
import textwrap

import pytest

from benchmarks.perf import reach

TOY = '''
import functools


def used():
    return helper()


def helper():
    return 1


def unused():
    return 2


class Box:
    def open(self):
        return True

    @functools.lru_cache(maxsize=None)
    def close(self):
        return False
'''

#: what a toy run that calls ``used()`` and ``Box().open()`` leaves
UNREACHED = {"toy.mod:unused", "toy.mod:Box.close"}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("toy.mod")
    yield tmp_path, module
    for name in ("toy.mod", "toy"):
        sys.modules.pop(name, None)


@pytest.fixture
def missed(toy):
    src, module = toy
    defs = reach.defined(src, "toy")
    with reach.Reach() as collector:
        module.used()
        module.Box().open()
    return reach.unreached(defs, collector.reached()), set(defs.values())


def ledger_file(tmp_path, lines):
    path = tmp_path / "ledger.txt"
    path.write_text("# toy ledger\n\n" + "\n".join(lines) + "\n")
    return reach.read_ledger(path)


MATCHING = [
    "toy.mod:unused  [reach]: nothing calls it",
    "toy.mod:Box.close  [paper-promises]: a decorated method",
]


def test_the_collector_sees_calls_and_decorated_definitions(missed):
    unreached, names = missed
    assert unreached == UNREACHED
    assert names == UNREACHED | {"toy.mod:used", "toy.mod:helper",
                                 "toy.mod:Box.open"}


def test_a_matching_ledger_passes(missed, tmp_path):
    unreached, names = missed
    assert reach.compare(unreached, names, ledger_file(tmp_path, MATCHING)) == []


def test_an_unreached_function_missing_from_the_ledger_fails(missed, tmp_path):
    unreached, names = missed
    ledger = ledger_file(tmp_path, MATCHING[:1])
    assert reach.compare(unreached, names, ledger) == [
        "unreached, not in the ledger: toy.mod:Box.close"
    ]


def test_a_ledger_line_for_a_reached_function_fails(missed, tmp_path):
    unreached, names = missed
    ledger = ledger_file(tmp_path, MATCHING + ["toy.mod:helper  [reach]: x"])
    assert reach.compare(unreached, names, ledger) == [
        "reached now, drop its line: toy.mod:helper"
    ]


def test_a_ledger_line_for_a_deleted_function_fails(missed, tmp_path):
    unreached, names = missed
    ledger = ledger_file(tmp_path, MATCHING + ["toy.mod:gone  [reach]: x"])
    assert reach.compare(unreached, names, ledger) == [
        "no such function, drop its line: toy.mod:gone"
    ]


def test_a_ledger_reason_names_a_roadmap_tag(missed, tmp_path):
    unreached, names = missed
    ledger = ledger_file(
        tmp_path, [MATCHING[0], "toy.mod:Box.close  a decorated method"]
    )
    assert reach.compare(unreached, names, ledger) == [
        "no [tag] in its reason: toy.mod:Box.close"
    ]
