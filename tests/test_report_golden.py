"""Golden report hashes: the mechanical "byte-identical pre/post" oracle.

``tests/golden/report_sha256.json`` holds the sha256 of every campaign's
canonical report over the corpus seeds at small fixed sizes, plus the
sha256 of what the six campaign CLI commands print (and write) at two
runs.  A refactor that leaves this file green changed no report byte, no
stdout byte and no exit code.

Regenerate — only when a report is *meant* to change — with::

    PYTHONPATH=src python tests/test_report_golden.py --write

The seeded streams are numpy bit generators, whose output is only
promised stable within a major version: the file records the major it
was generated under and the tests skip (with a message) on another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

GOLDEN = Path(__file__).parent / "golden" / "report_sha256.json"

CORPUS_SEEDS = [7, 11, 23, 42, 1337]

#: the small fleet geometry of tests/test_fleet.py / test_fleet_monitor.py
SMALL = dict(
    sites=3, racks_per_site=2, k=2, m=2, clients=240, duration_s=4.0,
    objects=6, arrival_rate=18.0,
)

#: the same idea through the CLI, which has no k/m flags (4+2 needs 9 racks)
CLI_FLEET = [
    "--sites", "3", "--racks-per-site", "3", "--clients", "120",
    "--duration", "3.0", "--objects", "4", "--arrival-rate", "12.0",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_cases() -> dict:
    """name -> thunk returning the canonical JSON string of one report."""
    from repro.faults.campaign import report_to_json as chaos_json
    from repro.faults.campaign import run_campaign
    from repro.fleet import report_to_json as fleet_json
    from repro.fleet import run_fleet
    from repro.fleet.monitor import report_to_json as monitor_json
    from repro.fleet.monitor import run_fleet_monitor
    from repro.preserve import report_to_json as preserve_json
    from repro.preserve import run_preserve
    from repro.serve.loadgen import FleetSpec, run_serve
    from repro.serve.report import report_to_json as serve_json
    from repro.serve.tenancy import TenantSpec
    from repro.serve.xl import report_to_json as xl_json
    from repro.serve.xl import run_serve_xl

    # tests/test_serve.py's ``_open_fleet(6, "sessions")``: six open-loop
    # clients, each its own session, RNG stream and arrival process
    open_sessions = [FleetSpec(
        tenant=TenantSpec("iot", weight=1.0), clients=6, mode="open",
        arrival_rate=24.0, read_fraction=0.6, profile="iot",
        max_file_bytes=64 * 1024, pooling="sessions",
    )]
    cases = {
        "serve/7/faults-cluster": lambda: serve_json(run_serve(
            7, duration_s=4, prepopulate=3, faults=True, backend="cluster"
        )),
        "serve/13/open-sessions": lambda: serve_json(run_serve(
            13, fleets=open_sessions, duration_s=6.0, prepopulate=4
        )),
    }
    for seed in CORPUS_SEEDS:
        cases.update({
            f"chaos/{seed}": lambda s=seed: chaos_json(run_campaign(s, 30)),
            f"chaos/{seed}/serve-fleet": lambda s=seed: chaos_json(
                run_campaign(s, 30, serve=True, fleet=True)
            ),
            f"serve/{seed}": lambda s=seed: serve_json(
                run_serve(s, duration_s=4, prepopulate=3)
            ),
            f"serve-xl/{seed}/shards-1": lambda s=seed: xl_json(
                run_serve_xl(s, shards=1, duration_s=10)
            ),
            f"serve-xl/{seed}/shards-4": lambda s=seed: xl_json(
                run_serve_xl(s, shards=4, duration_s=10)
            ),
            f"fleet/{seed}": lambda s=seed: fleet_json(
                run_fleet(s, **SMALL)
            ),
            f"fleet-monitor/{seed}": lambda s=seed: monitor_json(
                run_fleet_monitor(s, **SMALL)
            ),
            f"fleet-monitor/{seed}/no-telemetry": lambda s=seed: monitor_json(
                run_fleet_monitor(s, telemetry=False, **SMALL)
            ),
            f"preserve/{seed}": lambda s=seed: preserve_json(
                run_preserve(s, files=8)
            ),
        })
    return cases


#: name -> argv; each runs in an empty directory, so the relative
#: ``--out`` / ``--flight-out`` paths print the same everywhere
CLI_CASES = {
    "chaos": ["chaos", "--seed", "7", "--ops", "30", "--campaigns", "2",
              "--out", "out.json"],
    "chaos/serve-fleet-monitor": [
        "chaos", "--seed", "11", "--ops", "20", "--campaigns", "2",
        "--serve", "--fleet", "--monitor",
    ],
    "serve": ["serve", "--seed", "7", "--duration", "1", "--prepopulate",
              "3", "--runs", "2", "--out", "out.json",
              "--flight-out", "flight.jsonl"],
    "serve-xl": ["serve", "--xl", "--seed", "7", "--shards", "4",
                 "--racks", "4", "--duration", "10", "--runs", "2",
                 "--out", "out.json"],
    "preserve": ["preserve", "--seed", "7", "--files", "8", "--runs", "2",
                 "--compare", "--out", "out.json"],
    "fleet": ["fleet", "--seed", "7", *CLI_FLEET, "--runs", "2",
              "--out", "out.json", "--flight-out", "flight.jsonl"],
    "fleet-monitor": ["fleet-monitor", "--seed", "7", *CLI_FLEET,
                      "--runs", "2", "--out", "out.json",
                      "--flight-out", "flight.jsonl"],
    "fleet-monitor/no-telemetry": [
        "fleet-monitor", "--seed", "7", *CLI_FLEET, "--runs", "2",
        "--no-telemetry",
    ],
}


def _run_cli(argv: list[str]) -> str:
    """Exit code + stdout + every file the command wrote, as one string."""
    from repro.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(list(argv))
            written = [
                f"--- {path.name}\n{path.read_text()}"
                for path in sorted(Path(scratch).iterdir())
            ]
        finally:
            os.chdir(cwd)
    return "\n".join([f"exit {code}", stdout.getvalue(), *written])


def compute() -> dict:
    return {
        "numpy_major": int(numpy.__version__.split(".")[0]),
        "reports": {
            name: _sha(thunk()) for name, thunk in _report_cases().items()
        },
        "cli": {name: _sha(_run_cli(argv)) for name, argv in CLI_CASES.items()},
    }


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    major = int(numpy.__version__.split(".")[0])
    if golden["numpy_major"] != major:
        pytest.skip(
            f"golden hashes were generated under numpy "
            f"{golden['numpy_major']}.x; this is numpy {numpy.__version__} "
            f"and seeded streams are only stable within a major version"
        )
    return golden


def test_golden_file_covers_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["reports"]) == sorted(_report_cases())
    assert sorted(golden["cli"]) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", sorted(_report_cases()))
def test_report_bytes_match_golden(name):
    assert _sha(_report_cases()[name]()) == _golden()["reports"][name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_exit_code_and_files_match_golden(name):
    assert _sha(_run_cli(CLI_CASES[name])) == _golden()["cli"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
