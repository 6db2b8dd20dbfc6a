"""Multi-tenant serving subsystem (§2.3, §4.2, Figure 5).

The paper's rack exports Samba/NFS/REST over a 10GbE NIC; this package
models what happens when *many* concurrent clients share that NIC and the
rack's drive pool:

* :mod:`repro.serve.network` — a full-duplex 10GbE link built on
  :class:`~repro.sim.bandwidth.SharedBandwidth`, with per-session RTT and
  the Figure-6 SMB/FUSE per-op and per-byte overheads folded in;
* :mod:`repro.serve.tenancy` — tenants with token-bucket rate limits and
  a bounded admission queue with deadline-aware start-time-fair dequeue;
* :mod:`repro.serve.session` — client sessions issuing POSIX ops through
  the link into a rack's, cluster's or fleet site's ``write_file`` /
  ``read_file`` / ``stat``;
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.report` — open-loop and
  closed-loop client fleets plus per-tenant throughput / p50-p95-p99
  latency reports (``python -m repro serve``).

Everything is seed-deterministic: the same seed produces byte-identical
reports, and the serving layer draws no randomness unless enabled.
:func:`register` adds the ``serve`` command, which also runs
:mod:`repro.serve.xl` under ``--xl``.
"""

from repro.report import (
    campaign_parser,
    run_and_compare,
    run_flags,
    run_kwargs,
)
from repro.serve.loadgen import FleetSpec, default_fleets, run_serve
from repro.serve import xl
from repro.serve.xl import run_serve_xl
from repro.serve.network import NetworkLink
from repro.serve.report import failures, render_text, report_to_json
from repro.serve.session import ClientSession, ServeOp
from repro.serve.tenancy import AdmissionController, TenantSpec, TokenBucket

#: ``serve`` flags only one of its two campaigns reads: giving one to
#: the other campaign is an error
_RACK_FLAGS = {
    "prepopulate": "files written before serving starts",
    "backend": {"choices": ("olfs", "cluster"),
                "help": "single rack (olfs) or a 2-rack replicated cluster"},
    "faults": "run under a randomized fault plan (incl. link flaps and "
              "client disconnects)",
    "max_inflight": "admission controller inflight cap",
}
_XL_FLAGS = {
    "shards": "event-loop shards for --xl; >1 also byte-compares against "
              "the single-shard report",
    "racks": "rack count for --xl",
}
_RACK_ONLY = (*_RACK_FLAGS, "flight_out")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_serve(args) -> int:
    """Run the multi-tenant serving harness and print the QoS report.

    Runs the identical experiment ``--runs`` times and byte-compares the
    canonical reports — the determinism contract ``python -m repro
    chaos`` enforces, extended to serving.  Under ``--xl`` with
    ``--shards N > 1`` the XL campaign is also re-run single-shard and the
    reports must match byte for byte — the sharded event loop's
    determinism contract, checked from the operator console.
    """
    for name in _RACK_ONLY if args.xl else _XL_FLAGS:
        if getattr(args, name) not in (None, False):
            args.error(
                f"{_flag(name)} is not read by the --xl campaign" if args.xl
                else f"{_flag(name)} requires --xl"
            )
    if not args.xl:
        return run_and_compare(
            args,
            lambda flight_out: run_serve(
                **run_kwargs(run_serve, args, flight_out=flight_out)
            ),
            render_text,
            failures,
        )
    # --duration is serve's own flag: left off, the XL campaign too runs
    # run_serve's horizon, not run_serve_xl's longer default
    kwargs = run_kwargs(xl.run_serve_xl, args,
                        duration_s=run_kwargs(run_serve, args)["duration_s"])

    def audit(report: dict) -> list[str]:
        shards = kwargs["shards"]
        if shards > 1 and report_to_json(
            xl.run_serve_xl(**{**kwargs, "shards": 1})
        ) != report_to_json(report):
            return [f"SHARD-LAYOUT VIOLATION: shards={shards} report "
                    f"differs from the single-shard report"]
        return xl.failures(report)

    return run_and_compare(
        args,
        lambda _flight_out: xl.run_serve_xl(**kwargs),
        lambda report: xl.render_text(report, kwargs["shards"]),
        audit,
    )


def register(sub) -> None:
    serve = campaign_parser(
        sub, "serve", "multi-tenant serving load run + QoS report",
        cmd_serve, seed=42,
    )
    run_flags(serve, run_serve, {
        "duration_s": "serving horizon, simulated seconds", **_RACK_FLAGS,
    })
    serve.add_argument(
        "--xl", action="store_true",
        help=f"run the sharded XL campaign (repro.serve.xl) instead of the "
             f"single-rack QoS harness; takes "
             f"{'/'.join(map(_flag, _XL_FLAGS))}, not "
             f"{'/'.join(map(_flag, _RACK_ONLY))}",
    )
    run_flags(serve, run_serve_xl, _XL_FLAGS)
    serve.set_defaults(error=serve.error)


__all__ = [
    "AdmissionController",
    "ClientSession",
    "FleetSpec",
    "NetworkLink",
    "ServeOp",
    "TenantSpec",
    "TokenBucket",
    "default_fleets",
    "render_text",
    "report_to_json",
    "run_serve",
    "run_serve_xl",
]
