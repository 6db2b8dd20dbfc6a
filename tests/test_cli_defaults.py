"""Each command's defaults come from one place: its ``run_*`` signature.

Every campaign command runs with no optional flag against a capturing
``run_*``: the keyword arguments it passes must be that function's own
signature defaults, and ``--help`` must print each flag's default
(``bench``'s gate flags: ``repro.perf.harness``'s constants).
"""

from __future__ import annotations

import functools
import importlib
import inspect

import pytest

from repro.cli import build_parser, main
from repro.perf import harness


class _Captured(Exception):
    pass


def _defaults(run) -> dict:
    return {
        name: param.default
        for name, param in inspect.signature(run).parameters.items()
        if param.default is not param.empty
    }


def _capture(monkeypatch, target: str, argv: list[str]) -> tuple:
    """Run ``argv`` with ``target`` replaced by a stub that records its
    call and stops the command; returns (real function, kwargs)."""
    module, _, attr = target.rpartition(".")
    real = getattr(importlib.import_module(module), attr)
    calls = []

    @functools.wraps(real)
    def fake(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        raise _Captured

    monkeypatch.setattr(target, fake)
    with pytest.raises(_Captured):
        main(argv)
    return real, calls[0]


#: command -> (argv, the run_* it drives, the parameters its flags set)
COMMANDS = {
    "chaos": (["chaos"], "repro.faults.campaign.run_campaign",
              {"ops", "intensity", "monitor", "serve", "fleet",
               "flight_out"}),
    "serve": (["serve"], "repro.serve.run_serve",
              {"duration_s", "prepopulate", "backend", "faults",
               "max_inflight", "flight_out"}),
    "preserve": (["preserve"], "repro.preserve.campaign.run_preserve",
                 {"files", "years", "intensity", "scrub", "audit",
                  "migrate", "faults"}),
    "fleet": (["fleet"], "repro.fleet.campaign.run_fleet",
              {"sites", "racks_per_site", "clients", "duration_s",
               "objects", "arrival_rate", "rack_loss", "site_loss",
               "flight_out"}),
    "fleet-monitor": (["fleet-monitor"],
                      "repro.fleet.monitor.run_fleet_monitor",
                      {"sites", "racks_per_site", "clients", "duration_s",
                       "objects", "arrival_rate", "rack_loss", "site_loss",
                       "telemetry", "flight_out"}),
    "bench": (["bench"], "repro.perf.harness.run_benchmarks",
              {"scale", "repeats"}),
    "profile": (["profile", "delay_chain"],
                "repro.perf.harness.profile_target", {"top", "scale"}),
}


def _help(capsys, command: str) -> str:
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_default_to_the_run_signature(monkeypatch, command):
    argv, target, flagged = COMMANDS[command]
    real, kwargs = _capture(monkeypatch, target, argv)
    passed = {
        name: value for name, value in kwargs.items()
        if name not in ("seed", "name")
    }
    assert flagged <= set(passed)
    assert passed == _defaults(real)


def test_serve_xl_keeps_serve_duration(capsys, monkeypatch):
    from repro.serve import run_serve

    real, kwargs = _capture(
        monkeypatch, "repro.serve.xl.run_serve_xl", ["serve", "--xl"]
    )
    defaults = _defaults(real)
    assert kwargs["duration_s"] == 60.0 == _defaults(run_serve)["duration_s"]
    assert defaults["duration_s"] != 60.0  # the quirk is real
    text = _help(capsys, "serve")
    for name in ("racks", "shards"):
        assert kwargs[name] == defaults[name]
        assert f"(default {defaults[name]})" in text


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_prints_each_valued_default(capsys, command):
    _argv, target, flagged = COMMANDS[command]
    module, _, attr = target.rpartition(".")
    defaults = _defaults(getattr(importlib.import_module(module), attr))
    text = _help(capsys, command)
    for name in flagged:
        if not isinstance(defaults[name], bool) and name != "flight_out":
            assert f"(default {defaults[name]})" in text, name


def test_perf_gate_flags_default_to_the_harness_constants(capsys):
    args = build_parser().parse_args(["bench"])
    assert args.out == harness.TRAJECTORY_PATH
    assert args.baseline == harness.BASELINE_PATH
    assert args.tolerance == harness.DEFAULT_TOLERANCE
    text = _help(capsys, "bench")
    for value in (harness.TRAJECTORY_PATH, harness.BASELINE_PATH,
                  harness.DEFAULT_TOLERANCE):
        assert f"(default {value}" in text
