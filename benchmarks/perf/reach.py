"""Which functions in ``src/repro`` no gate runs.

    PYTHONPATH=src:. python benchmarks/perf/reach.py           # list them
    PYTHONPATH=src:. python benchmarks/perf/reach.py --check   # vs the ledger

Runs the roots below in this process under a stdlib ``sys.setprofile``
collector, then lists every ``def`` in ``src/repro`` that none of them
called, as ``module:qualname``.  The roots are what the gates run:

* every campaign command CI runs, at CI's arguments, and every
  subcommand's ``--help``;
* every ``repro`` subcommand's default path;
* ``pytest benchmarks/`` (the paper tables and the perf budgets);
* the four ``bench/workloads.py`` workloads at scale 0.05, imported
  read-only as ``event_ledger.py`` imports them, each once plain and
  once traced as ``bench/run.py --trace 1`` runs it.

``tests/`` and ``examples/`` are not roots: a function only they run is
unreached.  ``--check`` compares the list with ``reach_ledger.txt`` (one
``module:qualname  reason`` line per function, the reason naming the
ROADMAP tag that decides its fate) and fails on an unreached function
missing from the ledger, and on a ledger line whose function is reached
now or no longer exists — so, like the source ceiling, the ledger only
shrinks.  A run takes four to six minutes in one process on a 2-core
x86-64 container (4 min 12 s measured with the traced roots).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER = pathlib.Path(__file__).with_name("reach_ledger.txt")

#: the corpus seeds every per-seed CI job runs
SEEDS = (7, 11, 23, 42, 1337)

#: subcommands that need an argument to get past argparse
REQUIRED = {"trace": ["cold-read"], "profile": ["delay_chain"]}

#: a ledger reason names the ROADMAP tag that decides the function's fate
TAG = re.compile(r"\[[a-z0-9-]+\]")


def defined(src: pathlib.Path, package: str) -> dict[tuple[str, int], str]:
    """``(file, first line)`` of every ``def`` under ``src/package`` ->
    its ``module:qualname``.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line for a decorated function.
    """
    found = {}
    for path in sorted((src.resolve() / package).rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    found[(str(path), first)] = f"{module}:{qualname}"
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


class Reach:
    """Collects the code object of every Python call while entered."""

    def __init__(self):
        # keyed by id: hashing a code object hashes its bytecode and
        # constants on every call
        self.codes: dict[int, object] = {}

    def _collect(self, frame, event, _arg):
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code

    def __enter__(self) -> "Reach":
        sys.setprofile(self._collect)
        return self

    def resume(self) -> None:
        """Re-install the collector (``cProfile`` replaces it)."""
        sys.setprofile(self._collect)

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)

    def reached(self) -> set[tuple[str, int]]:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.codes.values()
        }


def unreached(defs: dict[tuple[str, int], str], reached) -> set[str]:
    """Qualified names of the ``defs`` no ``reached`` location covers.

    A name defined twice (a property's getter and setter) counts as
    reached when any of its definitions ran.
    """
    ran = {name for key, name in defs.items() if key in reached}
    return set(defs.values()) - ran


def read_ledger(path: pathlib.Path) -> dict[str, str]:
    """``module:qualname`` -> reason; ``#`` lines and blanks are skipped."""
    ledger = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            ledger[name] = reason.strip()
    return ledger


def compare(
    missed: set[str], names: set[str], ledger: dict[str, str]
) -> list[str]:
    """What is wrong with ``ledger`` for these unreached ``missed``
    functions out of all defined ``names``; empty when it matches."""
    problems = [
        f"unreached, not in the ledger: {name}"
        for name in sorted(missed - set(ledger))
    ]
    for name, reason in sorted(ledger.items()):
        if name not in names:
            problems.append(f"no such function, drop its line: {name}")
        elif name not in missed:
            problems.append(f"reached now, drop its line: {name}")
        elif not TAG.search(reason):
            problems.append(f"no [tag] in its reason: {name}")
    return problems


# ----------------------------------------------------------------------
# The roots
# ----------------------------------------------------------------------
def ci_commands(out: pathlib.Path) -> list[list[str]]:
    """Every ``python -m repro`` command of ``.github/workflows/ci.yml``
    but the ``--help`` loop, files into ``out``.  ``tests/test_reach.py``
    checks the two list the same commands."""
    commands = []
    for seed in map(str, SEEDS):
        commands += [
            ["chaos", "--seed", seed, "--ops", "200", "--monitor",
             "--out", f"{out}/chaos-{seed}.json",
             "--flight-out", f"{out}/chaos-flight-{seed}.jsonl"],
            ["preserve", "--seed", seed, "--compare",
             "--out", f"{out}/preserve-{seed}.json"],
            ["fleet", "--seed", seed, "--runs", "2",
             "--out", f"{out}/fleet-{seed}.json"],
            ["chaos", "--seed", seed, "--ops", "40", "--fleet"],
            ["fleet-monitor", "--seed", seed, "--runs", "2",
             "--out", f"{out}/fleet-monitor-{seed}.json",
             "--flight-out", f"{out}/fleet-monitor-flight-{seed}.jsonl"],
        ]
    return commands + [
        ["monitor", "--scenario", "cold-read", "--out", f"{out}/run.json",
         "--flight-out", f"{out}/run-flight.jsonl"],
        ["trace", "cold-read", "--out", f"{out}/trace-chrome.json",
         "--format", "chrome"],
        ["trace", "cold-read", "--out", f"{out}/trace-flat.json",
         "--format", "flat"],
        ["trace", "cold-read", "--out", f"{out}/trace.prom",
         "--format", "prom"],
        ["serve", "--seed", "42", "--duration", "20", "--runs", "2",
         "--out", f"{out}/serve.json"],
        ["serve", "--seed", "1337", "--duration", "12", "--runs", "2",
         "--faults", "--out", f"{out}/serve-faults.json"],
        ["serve", "--backend", "cluster", "--faults", "--duration", "400",
         "--seed", "42", "--runs", "2", "--out", f"{out}/serve-cluster.json"],
        ["chaos", "--seed", "23", "--ops", "40", "--serve"],
        ["serve", "--xl", "--shards", "4", "--duration", "100", "--runs", "2",
         "--out", f"{out}/serve-xl.json"],
        ["bench", "--label", "reach", "--check", "--tolerance", "0.30",
         "--out", f"{out}/BENCH_engine.json"],
    ]


def subcommands() -> list[str]:
    from repro.cli import build_parser

    [sub] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return list(sub.choices)


def default_commands() -> list[list[str]]:
    """Every subcommand with no flags but ``bench``, whose default path
    appends to the committed trajectory; CI's ``bench`` leg runs it."""
    return [
        [name] + REQUIRED.get(name, [])
        for name in subcommands() if name != "bench"
    ]


def run_cli(argv: list[str]) -> int:
    from repro.cli import main

    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code or 0


def run_roots(reach: Reach, log) -> list[str]:
    """Run every root under ``reach``; returns the ones that failed."""
    import pytest

    from bench.workloads import WORKLOADS  # read-only, as event_ledger.py

    failed = []

    def root(label: str, run, timed: bool = False) -> None:
        print(f"reach: {label}", file=log, flush=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = run()
        reach.resume()
        # a timed gate's verdict under the collector's overhead is not
        # CI's; only its reach is
        if code and not timed:
            failed.append(f"{label} (exit {code})")

    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch)
        for name in subcommands():
            root(f"{name} --help", lambda name=name: run_cli([name, "--help"]))
        for argv in ci_commands(out) + default_commands():
            root(" ".join(argv), lambda argv=argv: run_cli(argv),
                 timed=argv[0] == "bench")
    # the timed floor check fails under the collector's overhead; the
    # bench --check root above reaches the same gate code
    root("pytest benchmarks/", lambda: int(pytest.main([
        str(ROOT / "benchmarks"), "-q", "--benchmark-disable",
        "-p", "no:cacheprovider", "--deselect", "benchmarks/perf/"
        "bench_engine_events.py::test_perf_gate_against_committed_baseline",
    ])))
    for name, workload in WORKLOADS.items():
        def run(workload=workload):
            inputs = workload.inputs(42, 0.05)
            workload.run(inputs, workload.setup(inputs))

        root(f"workload {name} --scale 0.05", run)
        root(f"workload {name} --scale 0.05 --trace 1",
             lambda workload=workload: traced_rep(workload))
    return failed


def traced_rep(workload) -> None:
    """One repetition as ``bench/worker.py:traced_rep`` runs it, layer
    wrappers installed and the per-layer ledger read: what ``bench/``
    reads of the program (``health()`` probes) is reached too.  The
    worker itself is not imported: it rewrites ``sys.path[0]``."""
    from bench.ledger import per_layer_metrics, rack_counters
    from bench.trace import Tracer

    inputs = workload.inputs(42, 0.05)
    tracer = Tracer().install()
    try:
        rig = workload.setup(inputs)
        before = rack_counters(rig) if rig is not None else None
        tracer.reset()
        with tracer.root():
            outcome = workload.run(inputs, rig)
    finally:
        tracer.uninstall()
    rack = rig if rig is not None else tracer.seen.get("OLFS.settle")
    after = rack_counters(rack) if rack is not None else None
    per_layer_metrics(tracer, outcome, before, after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {LEDGER.name}; exit 1 on any "
                             "difference")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    src = ROOT / "src"
    defs = defined(src, "repro")
    with Reach() as reach:
        failed = run_roots(reach, sys.stderr)
    if failed:
        print("roots failed, so their reach is not the gates':",
              *failed, sep="\n  ", file=sys.stderr)
        return 1
    missed = unreached(defs, reach.reached())
    if not args.check:
        ledger = read_ledger(LEDGER) if LEDGER.exists() else {}
        for name in sorted(missed):
            print(f"{name}  {ledger.get(name, '')}".rstrip())
        return 0
    problems = compare(missed, set(defs.values()), read_ledger(LEDGER))
    for problem in problems:
        print(problem)
    print(f"{len(missed)} of {len(set(defs.values()))} functions unreached; "
          f"ledger {'ok' if not problems else 'out of date'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
