"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``decompose``
    Decompose a named workload (or reproduce it at reduced width) and
    write the resulting design to JSON.
``evaluate``
    Re-evaluate a saved design against its workload: MED, error rate,
    storage.
``export-verilog``
    Emit a saved design as a synthesizable Verilog module.
``list-workloads``
    Show the available benchmark workloads.
``list-solvers``
    Show the registered Ising solvers and their capabilities.
``list-kernels``
    Show the SB kernel backends: availability (with the reason a
    backend cannot be used) and dtype.
``submit``
    Enqueue a decomposition job (or, with ``--ising-model``, a raw
    Ising solve) into a service directory, or — with ``--remote URL``
    — into a running gateway over HTTP.
``serve``
    Run the service worker pool over a service directory (drains the
    queue by default; ``--forever`` keeps serving; ``--http PORT``
    additionally exposes the HTTP gateway and serves until
    interrupted).  ``--min-workers/--max-workers`` replace the fixed
    pool with queue-depth-driven autoscaling; ``--dispatch-only``
    (with ``--http``) runs the gateway with *no* local workers — the
    queue is drained entirely by remote ``repro work`` agents;
    ``--shards N`` hashes jobs across N independent job-store shards
    (per-shard circuit breakers keep the service answering on the
    survivors when one store fails).
``work``
    Run a remote worker against a gateway: claim jobs over
    ``--remote URL``, execute them locally, ship checkpoints and
    results back.  ``--drain`` exits once the queue is empty;
    ``--isolated`` runs each attempt in a child process.
``loadtest``
    Drive a gateway with open-loop load (fixed-rate arrivals, never
    gated on responses): sweep ``--rps`` stages per ``--mix``, record
    latency percentiles / shed rates / the knee, evaluate ``--slo``
    objectives with burn rates, and optionally run a chaos soak
    (``--soak-seconds``) asserting artifacts stay byte-identical to
    an unloaded solve.  ``--out`` writes the ``BENCH_load.json``
    payload.
``status``
    Show the service job table and telemetry summary (local directory
    or ``--remote`` gateway); ``--workers`` shows the fleet registry
    instead (worker liveness, leases, per-worker job counts);
    ``--shards`` shows per-shard job-store health (exit 3 while any
    shard is degraded); ``--limit N`` pages the job table server-side.
``admin scrub`` / ``admin rebuild``
    Job-store maintenance for sharded layouts: ``scrub`` integrity-
    checks every shard (SQLite ``quick_check`` plus journal and
    artifact cross-checks; exit 3 on findings) and ``rebuild --shard K``
    reconstructs a lost or corrupt shard from its append-only intent
    journal and the content-addressed artifact store.
``fetch``
    Write a finished job's design JSON (same format ``decompose``
    emits, so ``evaluate``/``export-verilog`` consume it directly);
    works against a local directory or a ``--remote`` gateway.
``trace report``
    Summarize a trace recorded with ``--trace-out``: per-stage time
    breakdown, stop-iteration histogram, intervention counts.

Global flags: ``--version`` prints the package version; ``-v``/``-q``
raise/lower logging verbosity (default WARNING on stderr); ``decompose``
and ``serve`` accept ``--trace-out PATH`` to record an execution trace
(Chrome ``trace_event`` JSON, or JSONL when the path ends ``.jsonl``).
Tracing never changes results — the recorded search is bit-identical.

Error handling: every subcommand catches the library's
:class:`~repro.errors.ReproError` hierarchy (including
:class:`~repro.serialization.SerializationError`) and missing input
files, printing a one-line ``error: ...`` to stderr and exiting with
code 1 — a traceback from the CLI is a bug, not an error message.

Examples
--------
.. code-block:: bash

    python -m repro decompose --workload cos --n-inputs 9 \\
        --mode joint --partitions 8 --rounds 2 --out cos.json
    python -m repro evaluate --design cos.json --workload cos --n-inputs 9
    python -m repro export-verilog --design cos.json --module cos_lut \\
        --out cos_lut.v

    # service layer: durable queue + artifact cache in ./svc
    python -m repro submit --service-dir svc --workload cos --n-inputs 9
    python -m repro serve --service-dir svc --workers 4
    python -m repro status --service-dir svc
    python -m repro fetch --service-dir svc --job job-ab12cd34ef56 \\
        --out cos.json

    # same service over HTTP: workers + gateway in one process,
    # clients anywhere
    python -m repro serve --service-dir svc --workers 4 --http 8080
    python -m repro submit --remote http://127.0.0.1:8080 \\
        --workload cos --n-inputs 9
    python -m repro status --remote http://127.0.0.1:8080
    python -m repro fetch --remote http://127.0.0.1:8080 \\
        --job job-ab12cd34ef56 --out cos.json

    # fleet mode: a dispatch-only gateway plus remote workers pulling
    # jobs over HTTP from any machine
    python -m repro serve --service-dir svc --dispatch-only --http 8080
    python -m repro work --remote http://127.0.0.1:8080
    python -m repro status --remote http://127.0.0.1:8080 --workers
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro._version import package_version
from repro.boolean.metrics import error_rate, mean_error_distance
from repro.core import CoreSolverConfig, FrameworkConfig, IsingDecomposer
from repro.errors import ConfigurationError, GatewayError, ReproError
from repro.fleet import FleetClient, PoolAutoscaler, RemoteWorkerAgent
from repro.gateway import DecompositionGateway, GatewayConfig
from repro.ising.kernels import backend_infos
from repro.ising.solvers.registry import solver_info, solver_names
from repro.loadgen.mixes import mix_names
from repro.lut import cascade_cost_report
from repro.lut.verilog import cascade_to_verilog
from repro.obs import (
    configure_logging,
    load_trace,
    observe,
    render_report,
    summarize_trace,
    write_trace,
)
from repro.serialization import load_design, save_design
from repro.service import (
    DEFAULT_CHECKPOINT_EVERY,
    DecompositionService,
    JobSpec,
    SchedulerPolicy,
    format_job_table,
    format_worker_table,
    rebuild_shard,
    scrub_store,
)
from repro.service.telemetry import prometheus_exposition
from repro.workloads import build_workload, workload_names

__all__ = ["main", "build_parser"]


def _add_config_arguments(
    parser: argparse.ArgumentParser, workload_required: bool = True
) -> None:
    """Framework/solver flags shared by ``decompose`` and ``submit``."""
    parser.add_argument("--workload", required=workload_required,
                        default=None,
                        help=f"one of {', '.join(workload_names())}")
    parser.add_argument("--n-inputs", type=int, default=9)
    parser.add_argument("--mode", choices=("separate", "joint"),
                        default="joint")
    parser.add_argument("--partitions", type=int, default=8,
                        help="candidate partitions per component "
                             "(paper: 1000)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="framework rounds (paper: 5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=2000)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--solve-workers", type=int, default=1,
                        help="process-parallel sweep workers per job "
                             "(FrameworkConfig.n_workers)")


def _config_from_args(args: argparse.Namespace) -> FrameworkConfig:
    if args.workload is None:
        # ising submissions have no workload; free_size is irrelevant
        free_size = FrameworkConfig().free_size
    else:
        free_size = build_workload(
            args.workload, n_inputs=args.n_inputs
        ).free_size
    return FrameworkConfig(
        mode=args.mode,
        free_size=free_size,
        n_partitions=args.partitions,
        n_rounds=args.rounds,
        seed=args.seed,
        n_workers=args.solve_workers,
        solver=CoreSolverConfig(
            max_iterations=args.max_iterations, n_replicas=args.replicas
        ),
    )


def _add_service_dir(parser: argparse.ArgumentParser,
                     required: bool = True) -> None:
    parser.add_argument("--service-dir", type=Path, required=required,
                        default=None,
                        help="service state directory (job store + "
                             "artifact cache)")


def _add_service_target(parser: argparse.ArgumentParser) -> None:
    """``--service-dir`` / ``--remote`` — local or gateway-backed."""
    _add_service_dir(parser, required=False)
    parser.add_argument("--remote", default=None, metavar="URL",
                        help="gateway base URL (e.g. "
                             "http://127.0.0.1:8080); exclusive with "
                             "--service-dir")
    parser.add_argument("--token", default=None,
                        help="bearer token for --remote")


def _remote_client(args: argparse.Namespace) -> FleetClient:
    # FleetClient extends GatewayClient with the worker-plane verbs
    # and the fleet registry; harmless for plain submitter use
    return FleetClient(args.remote, token=args.token)


def _check_target(args: argparse.Namespace) -> None:
    """Exactly one of ``--service-dir`` / ``--remote`` must be given."""
    if (args.service_dir is None) == (args.remote is None):
        raise ConfigurationError(
            "pass exactly one of --service-dir (local) or --remote "
            "(gateway URL)"
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Ising-model approximate disjoint decomposition (DAC 2024 "
            "reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise logging verbosity (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="lower logging verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser(
        "decompose", help="decompose a workload and save the design"
    )
    _add_config_arguments(dec)
    dec.add_argument("--out", type=Path, required=True,
                     help="output JSON path")
    dec.add_argument("--trace-out", type=Path, default=None,
                     help="record an execution trace to this path "
                          "(Chrome trace_event JSON; .jsonl for an "
                          "event log)")

    ev = sub.add_parser(
        "evaluate", help="evaluate a saved design against its workload"
    )
    ev.add_argument("--design", type=Path, required=True)
    ev.add_argument("--workload", required=True)
    ev.add_argument("--n-inputs", type=int, default=9)

    vlog = sub.add_parser(
        "export-verilog", help="emit a saved design as Verilog"
    )
    vlog.add_argument("--design", type=Path, required=True)
    vlog.add_argument("--module", default="approx_lut")
    vlog.add_argument("--out", type=Path, default=None,
                      help="output .v path (default: stdout)")

    sub.add_parser("list-workloads", help="list benchmark workloads")
    sub.add_parser("list-solvers",
                   help="list registered Ising solvers and capabilities")
    sub.add_parser("list-kernels",
                   help="list SB kernel backends (availability, dtype)")

    subm = sub.add_parser(
        "submit",
        help="enqueue a decomposition or raw Ising job (service dir or "
             "gateway)",
    )
    _add_service_target(subm)
    _add_config_arguments(subm, workload_required=False)
    subm.add_argument("--timeout", type=float, default=None,
                      help="per-attempt wall-clock budget in seconds")
    subm.add_argument("--max-attempts", type=int, default=3,
                      help="total attempts before the job fails")
    subm.add_argument("--ising-model", type=Path, default=None,
                      metavar="PATH",
                      help="submit this repro-ising-problem JSON "
                           "document instead of a workload (python -m "
                           "repro.loadgen.instances writes one)")
    subm.add_argument("--solver", default=None,
                      help="override the problem document's solver "
                           "name (requires --ising-model)")

    serve = sub.add_parser(
        "serve", help="run the service worker pool over a service dir"
    )
    _add_service_dir(serve)
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent service workers")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="hash jobs across N independent job-store "
                            "shards (fault domains with per-shard "
                            "circuit breakers; default: the directory's "
                            "existing layout, or a single store)")
    serve.add_argument("--forever", action="store_true",
                       help="keep serving after the queue drains "
                            "(default: drain and exit)")
    serve.add_argument("--lease-seconds", type=float, default=60.0,
                       help="heartbeat lease before a worker counts as "
                            "crashed")
    serve.add_argument("--retry-backoff", type=float, default=0.25,
                       help="base retry backoff in seconds")
    serve.add_argument("--quarantine-after", type=int, default=3,
                       metavar="N",
                       help="park a job after it fails on N distinct "
                            "workers (0 disables quarantine)")
    serve.add_argument("--checkpoint-every", type=int,
                       default=DEFAULT_CHECKPOINT_EVERY, metavar="K",
                       help="write a crash-recovery checkpoint every K "
                            "components (0 disables checkpointing)")
    serve.add_argument("--isolated-workers", action="store_true",
                       help="run each job attempt in a child process "
                            "(a crash or hang costs the attempt, never "
                            "the worker)")
    serve.add_argument("--min-workers", type=int, default=0, metavar="N",
                       help="with --max-workers: lower bound of the "
                            "autoscaled pool (default: 0, fully "
                            "elastic)")
    serve.add_argument("--max-workers", type=int, default=None,
                       metavar="N",
                       help="enable queue-depth-driven autoscaling of "
                            "the worker pool between --min-workers and "
                            "N units (replaces the fixed --workers "
                            "count)")
    serve.add_argument("--dispatch-only", action="store_true",
                       help="run no local workers at all — the gateway "
                            "owns the store and remote 'repro work' "
                            "agents drain the queue (requires --http)")
    serve.add_argument("--trace-out", type=Path, default=None,
                       help="record a service execution trace to this "
                            "path (drain mode; Chrome trace_event JSON, "
                            ".jsonl for an event log)")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="also expose the HTTP gateway on this port "
                            "and serve until interrupted")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="gateway bind address (default: loopback)")
    serve.add_argument("--http-token", default=None,
                       help="require this bearer token on gateway "
                            "requests (healthz stays open)")
    serve.add_argument("--http-max-queue", type=int, default=64,
                       help="queue depth beyond which submissions get "
                            "503 + Retry-After")
    serve.add_argument("--http-rate-limit", type=float, default=None,
                       metavar="PER_SECOND",
                       help="per-client token-bucket rate limit "
                            "(default: off)")
    serve.add_argument("--http-access-log", type=Path, default=None,
                       metavar="PATH",
                       help="append one JSON line per request here")

    work = sub.add_parser(
        "work",
        help="run a remote worker claiming jobs from a gateway",
    )
    work.add_argument("--remote", required=True, metavar="URL",
                      help="gateway base URL to claim jobs from")
    work.add_argument("--token", default=None,
                      help="bearer token for the gateway")
    work.add_argument("--worker-id", default=None,
                      help="stable worker identity (default: "
                           "remote-<host>-<pid>)")
    work.add_argument("--drain", action="store_true",
                      help="exit once the queue is empty (default: "
                           "keep claiming forever)")
    work.add_argument("--isolated", action="store_true",
                      help="run each attempt in a child process so a "
                           "hard crash never takes the agent down")
    work.add_argument("--max-jobs", type=int, default=None, metavar="N",
                      help="exit after claiming N jobs")
    work.add_argument("--claim-wait", type=float, default=None,
                      metavar="SECONDS",
                      help="cap the server-side claim long-poll "
                           "(default: the gateway's configured wait)")
    work.add_argument("--checkpoint-every", type=int,
                      default=DEFAULT_CHECKPOINT_EVERY, metavar="K",
                      help="ship a crash-recovery checkpoint every K "
                           "components (0 disables checkpointing)")

    load = sub.add_parser(
        "loadtest",
        help="drive a gateway with open-loop load and record the "
             "latency-vs-RPS curve, SLO verdicts, and (optionally) a "
             "chaos soak",
    )
    load.add_argument("--remote", required=True, metavar="URL",
                      help="gateway base URL to load")
    load.add_argument("--token", default=None,
                      help="bearer token for the gateway")
    load.add_argument("--rps", default="2,4,8", metavar="R1,R2,...",
                      help="comma-separated offered-RPS stages, "
                           "ascending (the sweep)")
    load.add_argument("--mix", action="append", default=None,
                      metavar="NAME", dest="mixes",
                      help=f"job mix to drive (repeatable; one of "
                           f"{', '.join(mix_names())}; default: "
                           f"dedup-heavy + cache-cold)")
    load.add_argument("--duration", type=float, default=10.0,
                      metavar="SECONDS",
                      help="seconds per (mix, rps) stage")
    load.add_argument("--concurrency", type=int, default=8,
                      help="sender threads per stage (bounds "
                           "in-flight requests; lateness is recorded, "
                           "never omitted)")
    load.add_argument("--seed", type=int, default=3,
                      help="base seed for the job-mix specs")
    load.add_argument("--slo", default=None, metavar="SPEC",
                      help="SLO clauses, e.g. "
                           "'availability=0.99,p95_ms=500,"
                           "window_s=5,max_burn=2'")
    load.add_argument("--strict-slo", action="store_true",
                      help="exit 3 when the SLO verdict fails "
                           "(default: verdicts are recorded, not "
                           "enforced)")
    load.add_argument("--complete-timeout", type=float, default=60.0,
                      metavar="SECONDS",
                      help="how long to wait for submitted jobs to "
                           "finish when collecting completion "
                           "latencies")
    load.add_argument("--soak-seconds", type=float, default=0.0,
                      metavar="SECONDS",
                      help="after the sweep, run a fixed-RPS soak "
                           "this long with the chaos seams armed and "
                           "byte-compare artifacts against an "
                           "unloaded local solve (0 disables)")
    load.add_argument("--soak-rps", type=float, default=None,
                      help="soak plateau rate (default: the lowest "
                           "sweep rate)")
    load.add_argument("--soak-mix", default="cache-cold",
                      help="mix to soak (must be completable work)")
    load.add_argument("--baseline-dir", type=Path, default=None,
                      help="directory for the soak's unloaded "
                           "comparison service (default: a temp dir)")
    load.add_argument("--out", type=Path, default=None, metavar="PATH",
                      help="write the full JSON report here "
                           "(BENCH_load.json shape)")

    stat = sub.add_parser(
        "status", help="show service jobs and telemetry"
    )
    _add_service_target(stat)
    stat.add_argument("--job", default=None, help="show one job only")
    stat.add_argument("--limit", type=int, default=None, metavar="N",
                      help="show only the first N jobs (server-side "
                           "pagination; avoids O(queue) responses)")
    stat.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the raw telemetry summary as JSON")
    stat.add_argument("--prometheus", action="store_true",
                      help="emit the Prometheus text exposition instead")
    stat.add_argument("--workers", action="store_true",
                      dest="show_workers",
                      help="show the fleet registry (worker liveness, "
                           "leases, per-worker job counts) instead")
    stat.add_argument("--shards", action="store_true",
                      dest="show_shards",
                      help="show per-shard job-store health (circuit "
                           "breaker state, failure counts) instead")

    admin = sub.add_parser(
        "admin",
        help="job-store maintenance: integrity scrub and shard rebuild",
    )
    admin_sub = admin.add_subparsers(dest="admin_command", required=True)
    scrub = admin_sub.add_parser(
        "scrub",
        help="integrity-check every shard: SQLite quick_check plus "
             "journal and artifact cross-checks (exit 3 on findings)",
    )
    _add_service_dir(scrub)
    scrub.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full scrub report as JSON")
    rebuild = admin_sub.add_parser(
        "rebuild",
        help="reconstruct a lost/corrupt shard from its intent journal "
             "and the content-addressed artifact store",
    )
    _add_service_dir(rebuild)
    rebuild.add_argument("--shard", type=int, required=True, metavar="K",
                         help="shard index to rebuild")
    rebuild.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the rebuild report as JSON")

    fetch = sub.add_parser(
        "fetch", help="write a finished job's design JSON"
    )
    _add_service_target(fetch)
    fetch.add_argument("--job", required=True, help="job id to fetch")
    fetch.add_argument("--out", type=Path, default=None,
                       help="output JSON path (default: stdout)")

    trace = sub.add_parser(
        "trace", help="inspect traces recorded with --trace-out"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    report = trace_sub.add_parser(
        "report", help="summarize a recorded trace"
    )
    report.add_argument("trace_file", type=Path,
                        help="trace written by --trace-out (Chrome "
                             "JSON or JSONL)")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the structured summary as JSON")
    return parser


def _cmd_decompose(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload, n_inputs=args.n_inputs)
    config = _config_from_args(args)
    if args.trace_out is not None:
        with observe(
            metadata={"command": "decompose", "workload": args.workload}
        ) as tracer:
            result = IsingDecomposer(config).decompose(workload.table)
        write_trace(tracer, args.trace_out)
    else:
        result = IsingDecomposer(config).decompose(workload.table)
    save_design(result, args.out)
    print(
        f"decomposed {args.workload} (n={args.n_inputs}, mode={args.mode}): "
        f"MED {result.med:.4f}, {result.total_lut_bits} cascade bits "
        f"(flat {result.flat_lut_bits}), "
        f"{result.runtime_seconds:.2f}s -> {args.out}"
    )
    if args.trace_out is not None:
        print(f"trace -> {args.trace_out} "
              f"(summarize with: repro trace report {args.trace_out})")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    workload = build_workload(args.workload, n_inputs=args.n_inputs)
    if design.n_inputs != workload.table.n_inputs or (
        design.n_outputs != workload.table.n_outputs
    ):
        print(
            f"error: design is {design.n_inputs}->{design.n_outputs} bits "
            f"but workload is {workload.table.n_inputs}->"
            f"{workload.table.n_outputs}",
            file=sys.stderr,
        )
        return 2
    approx = design.to_truth_table(workload.table.probabilities)
    report = cascade_cost_report(design)
    print(f"design:      {args.design}")
    print(f"MED:         {mean_error_distance(workload.table, approx):.4f}")
    print(f"error rate:  {error_rate(workload.table, approx):.4f}")
    print(f"storage:     {report}")
    return 0


def _cmd_export_verilog(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    verilog = cascade_to_verilog(design, module_name=args.module)
    if args.out is None:
        print(verilog, end="")
    else:
        args.out.write_text(verilog)
        print(f"wrote {args.out} ({design.total_bits} ROM bits)")
    return 0


def _cmd_list_workloads() -> int:
    for name in workload_names():
        print(name)
    return 0


def _cmd_list_solvers() -> int:
    cap_flags = (
        ("supports_replicas", "replicas"),
        ("supports_probes", "probes"),
        ("supports_stop_criteria", "stop-criteria"),
        ("exact", "exact"),
    )
    for name in solver_names():
        info = solver_info(name)
        caps = ", ".join(
            label for attr, label in cap_flags
            if getattr(info.capabilities, attr)
        ) or "-"
        aliases = (
            f" (aliases: {', '.join(info.aliases)})" if info.aliases else ""
        )
        print(f"{name:<20} [{caps}]  {info.summary}{aliases}")
    return 0


def _cmd_list_kernels() -> int:
    for info in backend_infos():
        if info.available:
            status = "available"
        else:
            status = f"unavailable: {info.unavailable_reason}"
        print(f"{info.name:<10} [{info.dtype:<7}] {status:<12} "
              f"{info.summary}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    _check_target(args)
    if args.ising_model is not None:
        return _submit_ising(args)
    if args.workload is None:
        raise ConfigurationError(
            "pass --workload NAME (decomposition job) or "
            "--ising-model PATH (raw Ising solve)"
        )
    if args.solver is not None:
        raise ConfigurationError(
            "--solver requires --ising-model (decomposition jobs use "
            "the paper's core solver)"
        )
    spec = JobSpec(
        workload=args.workload,
        n_inputs=args.n_inputs,
        config=_config_from_args(args),
        timeout_seconds=args.timeout,
        max_attempts=args.max_attempts,
    )
    if args.remote is not None:
        job, deduplicated = _remote_client(args).submit(spec)
        note = (
            " (deduplicated — matched a live or finished twin)"
            if deduplicated else ""
        )
    else:
        service = DecompositionService(args.service_dir)
        job = service.submit(spec)
        note = " (artifact cached — serve resolves it instantly)" if (
            job.artifact_key in service.artifacts
        ) else ""
    print(f"submitted {job.id}: {spec.describe()} "
          f"key={job.artifact_key[:12]}...{note}")
    return 0


def _submit_ising(args: argparse.Namespace) -> int:
    """``submit --ising-model``: enqueue one raw Ising solve job, fire
    and forget, exactly like a decomposition submission."""
    from repro.ising.wire import validate_problem

    if args.workload is not None:
        raise ConfigurationError(
            "--workload and --ising-model are exclusive"
        )
    try:
        problem = json.loads(args.ising_model.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"--ising-model {args.ising_model} is not valid JSON: {exc}"
        ) from exc
    if args.solver is not None:
        problem = dict(problem)
        problem["solver"] = args.solver
    validate_problem(problem)
    spec = JobSpec(
        config=_config_from_args(args),
        ising=problem,
        timeout_seconds=args.timeout,
        max_attempts=args.max_attempts,
    )
    if args.remote is not None:
        job, deduplicated = _remote_client(args).submit(spec)
        note = (
            " (deduplicated — matched a live or finished twin)"
            if deduplicated else ""
        )
    else:
        service = DecompositionService(args.service_dir)
        job = service.submit(spec)
        note = " (artifact cached)" if (
            job.artifact_key in service.artifacts
        ) else ""
    print(f"submitted {job.id}: {spec.describe()} "
          f"key={job.artifact_key[:12]}...{note}")
    return 0


def _graceful_sigterm(on_term=None) -> None:
    """Make ``kill`` drain like ctrl-C instead of dropping requests.

    Long-running commands (``serve``, ``work``) are stopped by
    operators and CI with SIGTERM; routing it through
    :class:`KeyboardInterrupt` reuses the graceful-shutdown path
    (gateway drains in-flight handlers, workers finish the current
    attempt).  SIGINT itself may arrive as SIG_IGN when the process
    was backgrounded from a non-interactive shell, so TERM is the
    only reliable stop signal there.

    ``on_term`` runs *inside* the signal handler, before the
    KeyboardInterrupt is raised — it must be async-signal-safe (no
    locks, no joins).  The gateway passes ``request_drain`` here so a
    SIGTERM wakes parked ``/v1/workers/claim`` long-polls immediately
    (they answer 204 + Retry-After) instead of only once the main
    thread unwinds to ``gateway.stop()``.
    """

    def _raise(signum, frame):
        if on_term is not None:
            on_term()
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        pass  # not the main thread (embedded use) — leave untouched


def _cmd_serve(args: argparse.Namespace) -> int:
    _graceful_sigterm()
    autoscale = args.max_workers is not None
    if args.dispatch_only:
        if args.http is None:
            raise ConfigurationError(
                "--dispatch-only requires --http PORT (a gateway with "
                "no workers serves nobody otherwise)"
            )
        if args.isolated_workers or autoscale:
            raise ConfigurationError(
                "--dispatch-only runs no local workers; drop "
                "--isolated-workers/--min-workers/--max-workers"
            )
    if autoscale and args.isolated_workers:
        raise ConfigurationError(
            "--max-workers autoscaling and --isolated-workers are "
            "exclusive"
        )
    policy = SchedulerPolicy(
        lease_seconds=args.lease_seconds,
        retry_backoff_seconds=args.retry_backoff,
        quarantine_after=(
            None if args.quarantine_after == 0 else args.quarantine_after
        ),
    )
    checkpoint_every = (
        None if args.checkpoint_every == 0 else args.checkpoint_every
    )
    service = DecompositionService(
        args.service_dir, n_workers=args.workers, policy=policy,
        checkpoint_every=checkpoint_every, shards=args.shards,
        isolated=args.isolated_workers,
    )
    autoscaler = None
    if autoscale:
        autoscaler = PoolAutoscaler(
            service.pool,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
        )
    depth = service.store.pending()
    shard_states = service.shard_states()
    if shard_states is not None:
        print(f"job store sharded over {len(shard_states)} fault "
              f"domain(s)")
    if args.dispatch_only:
        print(f"serving {args.service_dir} dispatch-only (no local "
              f"workers), {depth} job(s) pending")
    elif autoscaler is not None:
        print(f"serving {args.service_dir} with "
              f"{args.min_workers}..{args.max_workers} autoscaled "
              f"worker(s), {depth} job(s) pending")
    else:
        mode = "isolated" if args.isolated_workers else "thread"
        print(f"serving {args.service_dir} with {args.workers} "
              f"{mode} worker(s), {depth} job(s) pending")

    def start_pool():
        """Start the chosen worker backend; None in dispatch-only."""
        if args.dispatch_only:
            return None
        if autoscaler is not None:
            return autoscaler.start()
        return service.serve_forever()

    if args.http is not None:
        gateway = DecompositionGateway(
            service,
            GatewayConfig(
                host=args.http_host,
                port=args.http,
                auth_token=args.http_token,
                max_queue_depth=args.http_max_queue,
                rate_limit_per_second=args.http_rate_limit,
                access_log_path=args.http_access_log,
            ),
        )
        # re-register TERM so the handler wakes parked claim
        # long-polls synchronously, before the interrupt unwinds to
        # gateway.stop() below
        _graceful_sigterm(gateway.request_drain)
        pool = start_pool()
        print(f"gateway listening on {gateway.url}")
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            # drain order: stop accepting requests (joining in-flight
            # handlers), then stop the workers
            gateway.stop()
            if pool is not None:
                pool.stop()
        return 0
    if args.forever:
        pool = start_pool()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pool.stop()
        return 0

    def drain() -> None:
        if autoscaler is not None:
            autoscaler.start()
            try:
                while service.store.pending() > 0:
                    time.sleep(0.05)
            finally:
                autoscaler.stop()
        else:
            service.run_until_drained()

    if args.trace_out is not None:
        with observe(
            metadata={
                "command": "serve",
                "service_dir": str(args.service_dir),
            }
        ) as tracer:
            drain()
        write_trace(tracer, args.trace_out)
        print(f"trace -> {args.trace_out}")
    else:
        drain()
    summary = service.status()
    jobs = summary["jobs"]
    cache = summary["cache"]
    print(
        f"drained: {jobs['done']} done, {jobs['failed']} failed, "
        f"{jobs['quarantined']} quarantined; cache hit rate "
        f"{cache['hit_rate'] if cache['hit_rate'] is not None else 'n/a'}"
    )
    return 0 if jobs["failed"] == 0 and jobs["quarantined"] == 0 else 3


def _status_backend(args: argparse.Namespace):
    """A uniform (jobs, job, status, prometheus, design, workers,
    jobs_page) view over either a local service directory or a remote
    gateway — what keeps the ``status``/``fetch`` rendering a single
    code path.
    """
    if args.remote is not None:
        client = _remote_client(args)
        return (client.jobs, client.job, client.status,
                client.metrics_text, client.fetch_design_dict,
                client.workers, client.jobs_page)
    service = DecompositionService(args.service_dir)
    return (
        service.jobs,
        service.job,
        service.status,
        lambda: prometheus_exposition(service.store, service.artifacts),
        service.fetch_design_dict,
        service.store.list_workers,
        service.jobs_page,
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.gateway import GatewayClient
    from repro.gateway.transport import RetryPolicy
    from repro.loadgen.generator import (
        MixSubmitter,
        OpenLoopGenerator,
        collect_completion_latencies,
    )
    from repro.loadgen.mixes import default_load_config, get_mix
    from repro.loadgen.recorder import (
        build_report,
        find_knee,
        summarize_stage,
    )
    from repro.loadgen.report import render_load_report
    from repro.loadgen.slo import SLOSpec, evaluate_slo, parse_slo
    from repro.loadgen.soak import run_soak

    try:
        rates = sorted(
            float(r) for r in args.rps.split(",") if r.strip()
        )
    except ValueError:
        raise ConfigurationError(
            f"--rps must be comma-separated numbers, got {args.rps!r}"
        ) from None
    if not rates:
        raise ConfigurationError("--rps needs at least one rate")
    profiles = [
        get_mix(name)
        for name in (args.mixes or ["dedup-heavy", "cache-cold"])
    ]
    slo = parse_slo(args.slo) if args.slo else SLOSpec()
    config = default_load_config(seed=args.seed)
    # one attempt per scheduled arrival: a retry would be a second
    # arrival the rate clock never scheduled (see repro.loadgen docs)
    no_retry = RetryPolicy(max_retries=0)

    mixes_block = {}
    stages_by_mix = {}
    for profile in profiles:
        client = GatewayClient(
            args.remote, token=args.token, retry=no_retry
        )
        generator = OpenLoopGenerator(
            MixSubmitter(client, profile, config),
            mix_name=profile.name,
            concurrency=args.concurrency,
        )
        summaries, stages = [], []
        for rps in rates:
            print(
                f"[load] {profile.name} @ {rps:g} rps "
                f"for {args.duration:g}s ..."
            )
            stage = generator.run(
                rps=rps, duration_seconds=args.duration
            )
            completions = None
            if args.complete_timeout > 0 and stage.job_ids():
                completions = collect_completion_latencies(
                    client,
                    stage.job_ids(),
                    timeout_seconds=args.complete_timeout,
                )
            summary = summarize_stage(stage, completions)
            summaries.append(summary)
            stages.append(stage)
            print(
                f"[load]   achieved {summary['achieved_rps']:g} rps, "
                f"ok {summary['ok']}/{summary['requests']}, "
                f"shed {summary['shed']}, errors {summary['errors']}"
            )
        mixes_block[profile.name] = {
            "summary": profile.summary,
            "stages": summaries,
            "knee": find_knee(summaries),
        }
        stages_by_mix[profile.name] = stages

    slo_block = {"objective": slo.to_dict(), "mixes": {}, "ok": True}
    for name, stages in stages_by_mix.items():
        verdict = evaluate_slo(slo, stages)
        slo_block["mixes"][name] = verdict
        slo_block["ok"] = slo_block["ok"] and verdict["ok"]

    soak_block = None
    if args.soak_seconds > 0:
        soak_rps = (
            args.soak_rps if args.soak_rps is not None else rates[0]
        )
        print(
            f"[load] soak: {args.soak_mix} @ {soak_rps:g} rps for "
            f"{args.soak_seconds:g}s with chaos seams armed ..."
        )
        with contextlib.ExitStack() as stack:
            baseline_dir = args.baseline_dir
            if baseline_dir is None:
                baseline_dir = Path(
                    stack.enter_context(
                        tempfile.TemporaryDirectory(
                            prefix="repro-load-baseline-"
                        )
                    )
                )
            soak_block, soak_stage = run_soak(
                GatewayClient(args.remote, token=args.token),
                get_mix(args.soak_mix),
                config,
                rps=soak_rps,
                duration_seconds=args.soak_seconds,
                baseline_dir=baseline_dir,
                concurrency=args.concurrency,
            )
            soak_block["slo"] = evaluate_slo(slo, [soak_stage])

    report = build_report(
        mixes_block,
        slo_block,
        soak_block,
        context={
            "gateway": args.remote,
            "stage_duration_seconds": args.duration,
            "rates": rates,
        },
    )
    print(render_load_report(report))
    if args.out is not None:
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    if args.strict_slo and not slo_block["ok"]:
        return 3
    return 0


def _shard_block(args: argparse.Namespace):
    """The ``{"total", "degraded", "states"}`` shard-health block for
    ``status --shards`` (``None`` on an unsharded store)."""
    if args.remote is not None:
        return _remote_client(args).healthz().get("shards")
    states = DecompositionService(args.service_dir).shard_states()
    if states is None:
        return None
    return {
        "total": len(states),
        "degraded": [
            s["index"] for s in states if s["state"] != "healthy"
        ],
        "states": states,
    }


def _cmd_status(args: argparse.Namespace) -> int:
    _check_target(args)
    if args.show_shards:
        shards = _shard_block(args)
        if shards is None:
            print("single job store (unsharded)")
            return 0
        if args.as_json:
            print(json.dumps(shards, indent=2, sort_keys=True))
            return 0 if not shards["degraded"] else 3
        header = (
            f"{'shard':>5} {'state':<9} {'fails':>5}  last error"
        )
        print(header)
        print("-" * len(header))
        for state in shards["states"]:
            error = state.get("last_error") or "-"
            print(f"{state['index']:>5} {state['state']:<9} "
                  f"{state['consecutive_failures']:>5}  {error}")
        print()
        print(f"shards: {shards['total']} total, "
              f"{len(shards['degraded'])} degraded"
              + (f" ({', '.join(map(str, shards['degraded']))})"
                 if shards["degraded"] else ""))
        return 0 if not shards["degraded"] else 3
    (jobs_fn, job_fn, status_fn, prometheus_fn, _,
     workers_fn, jobs_page_fn) = _status_backend(args)
    if args.prometheus:
        print(prometheus_fn(), end="")
        return 0
    if args.show_workers:
        print(format_worker_table(workers_fn()))
        fleet = status_fn()["fleet"]
        print()
        print(f"workers: {fleet['workers']} seen, {fleet['live']} live, "
              f"{fleet['busy']} busy, {fleet['remote']} remote; "
              f"{fleet['jobs_completed']} completed / "
              f"{fleet['jobs_failed']} failed attempts")
        return 0
    if args.job is not None:
        print(format_job_table([job_fn(args.job)]))
        return 0
    if args.as_json:
        print(json.dumps(status_fn(), indent=2, sort_keys=True))
        return 0
    if args.limit is not None:
        # one server-side page — a deep queue never forces an
        # O(queue) response just to peek at it
        jobs, next_cursor = jobs_page_fn(limit=args.limit)
        print(format_job_table(jobs))
        if next_cursor is not None:
            print(f"... more jobs after cursor {next_cursor}")
    else:
        print(format_job_table(jobs_fn()))
    summary = status_fn()
    print()
    print(f"queue depth:    {summary['queue']['depth']}")
    print(f"cache hit rate: {summary['cache']['hit_rate']}")
    print(f"retries:        {summary['retries']['total']}")
    print(f"throughput:     {summary['timing']['jobs_per_second']} jobs/s")
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    _graceful_sigterm()
    agent = RemoteWorkerAgent(
        args.remote,
        token=args.token,
        worker_id=args.worker_id,
        checkpoint_every=(
            None if args.checkpoint_every == 0 else args.checkpoint_every
        ),
        claim_wait=args.claim_wait,
        drain=args.drain,
        isolated=args.isolated,
    )
    print(f"worker {agent.worker_id} claiming from {args.remote}"
          f"{' (isolated)' if args.isolated else ''}"
          f"{' until drained' if args.drain else ''}")
    try:
        stats = agent.run(max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        agent.stop()
        stats = agent.stats
    print(f"worker {agent.worker_id} done: {stats.completed} completed "
          f"({stats.cache_hits} cached, {stats.resumed} resumed), "
          f"{stats.failed} failed, {stats.abandoned} abandoned, "
          f"{stats.superseded} superseded")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    _check_target(args)
    _, job_fn, _, _, design_fn, _, _ = _status_backend(args)
    design = design_fn(args.job)
    text = json.dumps(design, indent=2, sort_keys=True)
    if args.out is None:
        print(text)
        return 0
    args.out.write_text(text)
    job = job_fn(args.job)
    print(f"wrote {args.out} (job {job.id}, MED "
          f"{job.med if job.med is not None else 'n/a'})")
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    if args.admin_command == "scrub":
        report = scrub_store(args.service_dir)
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["ok"] else 3
        for shard in report["shards"]:
            verdict = "ok" if shard["ok"] else "FINDINGS"
            jobs = "?" if shard["jobs"] is None else shard["jobs"]
            print(f"shard {shard['index']:>2} {verdict:<8} "
                  f"{jobs} job(s)  {shard['path']}")
            for finding in shard["findings"]:
                print(f"  - {finding}")
        print(f"scrub: {report['n_shards']} shard(s), "
              f"{'clean' if report['ok'] else 'findings above'}")
        return 0 if report["ok"] else 3
    if args.admin_command == "rebuild":
        report = rebuild_shard(args.service_dir, args.shard)
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        backed_up = report["backed_up"] or "nothing (shard file absent)"
        print(f"rebuilt shard {report['shard']} -> {report['path']}")
        print(f"  backed up:            {backed_up}")
        print(f"  jobs restored:        {report['restored']}")
        print(f"  terminal via journal: {report['terminal_from_journal']}")
        print(f"  done via artifact:    {report['done_from_artifact']}")
        print(f"  requeued to re-solve: {report['requeued']}")
        return 0
    raise AssertionError(
        f"unhandled admin command {args.admin_command!r}"
    )


def _cmd_trace_report(args: argparse.Namespace) -> int:
    events, metadata = load_trace(args.trace_file)
    summary = summarize_trace(events, metadata)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    return 0


_DISPATCH = {
    "decompose": _cmd_decompose,
    "evaluate": _cmd_evaluate,
    "export-verilog": _cmd_export_verilog,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "work": _cmd_work,
    "loadtest": _cmd_loadtest,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "admin": _cmd_admin,
    "trace": _cmd_trace_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "list-workloads":
        return _cmd_list_workloads()
    if args.command == "list-solvers":
        return _cmd_list_solvers()
    if args.command == "list-kernels":
        return _cmd_list_kernels()
    handler = _DISPATCH.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command!r}")
    try:
        return handler(args)
    except GatewayError as exc:
        # backpressure deserves an actionable message, not a bare error:
        # surface the server's Retry-After so the operator (or script)
        # knows when trying again will actually work
        message = f"error: {exc}"
        if exc.status in (429, 503) and exc.retry_after is not None:
            message += (
                f" — gateway is shedding load (HTTP {exc.status}); "
                f"retry after {exc.retry_after:g}s (Retry-After)"
            )
        print(message, file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
