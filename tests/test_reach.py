"""The reach ledger's comparison, on a toy package.

``benchmarks/perf/reach.py`` runs the gates (minutes) and compares the
functions none of them called with ``reach_ledger.txt``; that slow run
is CI's.  Here the same collector and comparison run over a toy module
and a toy ledger.
"""

import importlib
import pathlib
import re
import shlex
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


# ----------------------------------------------------------------------
# The committed roots and ledger against the files they mirror
# ----------------------------------------------------------------------
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: options whose values are file names or labels, which may differ
MASKED = ("--out", "--flight-out", "--label")

#: how a per-seed job names its seed
SEED = "${{ matrix.seed }}"


def ci_steps(text: str) -> list[dict]:
    """The list items of a workflow file, each as ``{key: value}`` with a
    block scalar (``run: >`` folded, ``run: |`` literal) read in full."""
    steps, lines = [], text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        item = re.match(r"(\s*)- ([\w-]+):\s*(.*)$", line)
        keyed = re.match(r"(\s*)([\w-]+):\s*(.*)$", line)
        if item:
            steps.append({})
            indent, key, value = len(item[1]) + 2, item[2], item[3]
        elif keyed and steps:
            indent, key, value = len(keyed[1]), keyed[2], keyed[3]
        else:
            continue
        if value in (">", "|"):
            block = []
            while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > indent
            ):
                block.append(lines[index].strip())
                index += 1
            value = (" " if value == ">" else "\n").join(block)
        steps[-1][key] = value
    return steps


def ci_repro_commands(text: str) -> list[list[str]]:
    """Every literal ``python -m repro`` argv the workflow runs outside an
    ``if: failure()`` step, one per seed where it names the matrix seed."""
    commands = []
    for step in ci_steps(text):
        if "run" not in step or step.get("if") == "failure()":
            continue
        script = step["run"].replace("\\\n", " ")
        for line in script.splitlines():
            _, found, rest = line.partition("python -m repro ")
            if not found:
                continue
            argv = []
            for token in shlex.split(rest.replace(SEED, "{seed}")):
                if token in ("|", ">", "&&", ";"):
                    break
                argv.append(token)
            if argv[0].startswith("$"):
                continue  # the every-subcommand --help loop
            for seed in reach.SEEDS if SEED in rest else [None]:
                commands.append([
                    token.replace("{seed}", str(seed)) for token in argv
                ])
    return commands


def masked(argv: list[str]) -> list[str]:
    return [
        "*" if index and argv[index - 1] in MASKED else token
        for index, token in enumerate(argv)
    ]


def test_reach_runs_the_commands_ci_runs():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    ci = sorted(map(masked, ci_repro_commands(workflow)))
    roots = sorted(map(masked, reach.ci_commands(pathlib.Path("out"))))
    assert ci == roots


def test_a_ci_leg_without_a_root_is_caught():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    extra = workflow + textwrap.dedent("""\
      extra:
        steps:
          - name: A new leg
            run: >
              PYTHONPATH=src python -m repro chaos
              --seed 99 --ops 10
          - name: Only when something failed
            if: failure()
            run: PYTHONPATH=src python -m repro chaos --seed 98
    """)
    commands = ci_repro_commands(extra)
    assert ["chaos", "--seed", "99", "--ops", "10"] in commands
    assert ["chaos", "--seed", "98"] not in commands
    assert len(commands) == len(ci_repro_commands(workflow)) + 1
    roots = sorted(map(masked, reach.ci_commands(pathlib.Path("out"))))
    assert sorted(map(masked, commands)) != roots


def open_item_tags(roadmap: str) -> set[str]:
    """The ``[tag]`` of every numbered item under ``## Open items``."""
    section = roadmap.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\d+\. \*\*(\[[a-z0-9-]+\])", section, re.M))


def test_ledger_reasons_name_open_items_and_real_probes():
    tags = open_item_tags((ROOT / "ROADMAP.md").read_text())
    assert "[reach]" in tags
    ledger = reach.read_ledger(reach.LEDGER)
    for name, reason in ledger.items():
        for tag in reach.TAG.findall(reason):
            assert tag in tags, f"{name}: {tag} is not an open ROADMAP item"
        probe = re.search(r"test probe: (tests/\S+\.py)", reason)
        if probe:
            path = ROOT / probe[1]
            function = name.rpartition(".")[2].rpartition(":")[2]
            assert path.is_file(), f"{name}: no {probe[1]}"
            assert function in path.read_text(), (
                f"{name}: {probe[1]} never names {function}"
            )
