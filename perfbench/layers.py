"""Per-layer metrics: which program calls are wrapped, and what they yield.

Each layer is a repo module.  :func:`install` wraps the public functions
of the in-process layers (framework, boolean, formulation, bSB solver,
Theorem 3, kernels, job store, scheduler, artifacts, worker);
:func:`layer_metrics` turns the tracer's totals into the named metrics.
The gateway and fleet metrics come from the gateway's access log and the
job records instead (see ``fleet.py``), because those layers run in
other processes.

Every traced run prints every name in :data:`PER_LAYER`; a layer the
workload does not run in the benchmark's own process reads 0.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from statistics import fmean, median

#: ``name -> (unit, better)`` of every per-layer metric, in report order
PER_LAYER = {
    # repro.ising.kernels
    "kernels.steps": ("count", "lower"),
    "kernels.step_s": ("s", "lower"),
    "kernels.step_us": ("us", "lower"),
    "kernels.energy_s": ("s", "lower"),
    "kernels.flops_per_step": ("flop", "lower"),
    "kernels.bytes_per_step": ("B", "lower"),
    # repro.ising.solvers.bsb
    "bsb.solves": ("count", "lower"),
    "bsb.iterations_per_solve": ("count", "lower"),
    "bsb.variance_stop_share": ("ratio", "higher"),
    "bsb.self_s": ("s", "lower"),
    # repro.core.theorem3
    "theorem3.interventions": ("count", "lower"),
    "theorem3.changed_share": ("ratio", "higher"),
    "theorem3.s": ("s", "lower"),
    # repro.core.ising_formulation
    "formulation.model_requests": ("count", "lower"),
    "formulation.weight_builds": ("count", "lower"),
    "formulation.cache_hit_ratio": ("ratio", "higher"),
    "formulation.weight_build_s": ("s", "lower"),
    # repro.core.framework and repro.boolean
    "framework.partition_sampling_s": ("s", "lower"),
    "framework.synthesis_s": ("s", "lower"),
    "framework.baseline_error_s": ("s", "lower"),
    "framework.sweep_s": ("s", "lower"),
    "framework.cop_solves": ("count", "lower"),
    # repro.service.jobstore and repro.service.scheduler
    "jobstore.submit_s": ("s", "lower"),
    "jobstore.store_errors": ("count", "lower"),
    "scheduler.claims": ("count", "lower"),
    "scheduler.claim_s": ("s", "lower"),
    "scheduler.heartbeats": ("count", "lower"),
    "scheduler.heartbeat_s": ("s", "lower"),
    "scheduler.complete_s": ("s", "lower"),
    "scheduler.queue_wait_p50_s": ("s", "lower"),
    # repro.service.artifacts and repro.service.worker
    "artifacts.checkpoint_writes": ("count", "lower"),
    "artifacts.checkpoint_bytes": ("B", "lower"),
    "artifacts.checkpoint_s": ("s", "lower"),
    "artifacts.put_s": ("s", "lower"),
    "artifacts.get_s": ("s", "lower"),
    "artifacts.cache_hit_ratio": ("ratio", "higher"),
    "worker.execute_s": ("s", "lower"),
    "worker.overhead_per_job_s": ("s", "lower"),
    # repro.gateway, per route, from the gateway's access log
    "gateway.submit_ms_p50": ("ms", "lower"),
    "gateway.claim_requests": ("count", "lower"),
    "gateway.empty_claims": ("count", "lower"),
    "gateway.heartbeat_requests": ("count", "lower"),
    "gateway.checkpoint_requests": ("count", "lower"),
    "gateway.checkpoint_ms_p50": ("ms", "lower"),
    "gateway.complete_ms_p50": ("ms", "lower"),
    "gateway.artifact_get_requests": ("count", "lower"),
    "gateway.responses_4xx": ("count", "lower"),
    "gateway.responses_5xx": ("count", "lower"),
    # repro.fleet, from the job records
    "fleet.claim_wait_p50_s": ("s", "lower"),
    "fleet.exec_p50_s": ("s", "lower"),
    "fleet.ship_p50_s": ("s", "lower"),
    "fleet.generator_lateness_max_ms": ("ms", "lower"),
    # where the measured window went: self time per layer over the window
    "share.kernels": ("ratio", "lower"),
    "share.bsb": ("ratio", "lower"),
    "share.theorem3": ("ratio", "lower"),
    "share.formulation": ("ratio", "lower"),
    "share.framework": ("ratio", "lower"),
    "share.boolean": ("ratio", "lower"),
    "share.jobstore": ("ratio", "lower"),
    "share.scheduler": ("ratio", "lower"),
    "share.artifacts": ("ratio", "lower"),
    "share.worker": ("ratio", "lower"),
    "share.gateway": ("ratio", "lower"),
    "share.fleet": ("ratio", "lower"),
    "share.tracer": ("ratio", "lower"),
    "share.unattributed": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.window_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

#: layers whose self time is decomposition compute (not service overhead)
COMPUTE_LAYERS = (
    "kernels", "bsb", "theorem3", "formulation", "framework", "boolean",
)
SHARE_LAYERS = COMPUTE_LAYERS + (
    "jobstore", "scheduler", "artifacts", "worker", "gateway", "fleet",
    "tracer",
)


def _step_cost(rows, cols, lead, itemsize):
    """Computed flops and minimum bytes of one fused bSB kernel step.

    Per step and replica the kernel does two ``r x c`` mat-vecs
    (``4rc`` flops), three length-``r`` field updates and seven
    element-wise passes over the ``N = 2r + c`` oscillators.  The byte
    count is the least traffic: the coupling matrix read twice plus
    positions and momenta read and written once.
    """
    replicas = math.prod(lead)
    n = 2 * rows + cols
    flops = replicas * (4 * rows * cols + 3 * rows + 7 * n)
    moved = itemsize * (2 * rows * cols + 4 * replicas * n)
    return flops, moved


def install(tracer, *, service=False):
    """Wrap the in-process layers' public calls (traced runs only)."""
    import numpy as np

    from repro.core import framework, solver
    from repro.core.ising_formulation import WeightCache
    from repro.ising.kernels.numpy_backend import NumPyBipartiteKernel
    from repro.ising.solvers.bsb import BallisticSBSolver

    # steps per kernel shape; flops and bytes are computed at the end
    shapes = tracer.kernel_shapes = defaultdict(int)

    def kernel_step(token, args, kwargs, result, seconds):
        kernel, state = args[0], args[1]
        shapes[(kernel.n_rows, kernel.n_cols, state.shape[:-1],
                kernel.dtype.itemsize)] += 1

    tracer.wrap(NumPyBipartiteKernel, "step", "kernels.step", "kernels",
                leaf=True, observe=kernel_step)
    tracer.wrap(NumPyBipartiteKernel, "energy", "kernels.energy",
                "kernels", leaf=True)

    def bsb_result(token, args, kwargs, result, seconds):
        tracer.add("bsb.iterations", result.n_iterations)
        if result.stop_reason == "variance_converged":
            tracer.add("bsb.variance_stops")

    tracer.wrap(BallisticSBSolver, "solve", "bsb.solve", "bsb",
                observe=bsb_result)

    build_hook = solver.theorem3_intervention

    def readout(args, kwargs):
        return args[0].positions >= 0.0

    def changed(token, args, kwargs, result, seconds):
        if not np.array_equal(token, args[0].positions >= 0.0):
            tracer.add("theorem3.changed")

    def traced_theorem3(model):
        return tracer.traced(build_hook(model), "theorem3.hook", "theorem3",
                             leaf=True, before=readout, observe=changed)

    tracer.patch(solver, "theorem3_intervention", traced_theorem3)

    def misses_before(args, kwargs):
        return args[0].misses

    def weight_build(token, args, kwargs, result, seconds):
        if args[0].misses > token:
            tracer.add("formulation.weight_builds")
            tracer.add("formulation.weight_build_s", seconds)

    tracer.wrap(WeightCache, "model", "formulation.model", "formulation",
                before=misses_before, observe=weight_build)
    tracer.wrap(solver.CoreCOPSolver, "solve_model", "framework.solve_model",
                "framework")
    tracer.wrap(framework.IsingDecomposer, "decompose",
                "framework.decompose", "framework")
    tracer.wrap(framework, "sample_partitions", "boolean.sample_partitions",
                "boolean")
    tracer.wrap(framework, "apply_column_setting",
                "boolean.apply_column_setting", "boolean")
    tracer.wrap(framework, "mean_error_distance",
                "boolean.mean_error_distance", "boolean")
    tracer.wrap(framework, "error_rate_per_output",
                "boolean.error_rate_per_output", "boolean")
    if service:
        _install_service(tracer)


def _install_service(tracer):
    from repro.service.artifacts import ArtifactStore
    from repro.service.jobstore import JobStore
    from repro.service.scheduler import Scheduler
    from repro.service.worker import JobExecutor

    for verb in ("submit", "claim", "heartbeat", "complete",
                 "recover_orphans", "pending"):
        tracer.wrap(JobStore, verb, f"jobstore.{verb}", "jobstore")

    def claimed(token, args, kwargs, result, seconds):
        if result is not None:
            tracer.add("scheduler.claims")

    tracer.wrap(Scheduler, "claim", "scheduler.claim", "scheduler",
                observe=claimed)
    for verb in ("heartbeat", "complete", "recover_orphans"):
        tracer.wrap(Scheduler, verb, f"scheduler.{verb}", "scheduler")

    def checkpoint_size(token, args, kwargs, result, seconds):
        payload = args[2] if len(args) > 2 else kwargs["payload"]
        tracer.add("artifacts.checkpoint_bytes",
                   len(json.dumps(payload, sort_keys=True)))

    tracer.wrap(ArtifactStore, "put_checkpoint", "artifacts.put_checkpoint",
                "artifacts", observe=checkpoint_size)
    for verb in ("put", "get", "get_checkpoint", "delete_checkpoint"):
        tracer.wrap(ArtifactStore, verb, f"artifacts.{verb}", "artifacts")
    tracer.wrap(JobExecutor, "execute", "worker.execute", "worker")


def zero_metrics():
    return {name: 0.0 for name in PER_LAYER}


def layer_metrics(tracer, window_s, records=()):
    """Per-layer metrics from a traced window of ``window_s`` seconds.

    ``records`` are the service's job records of the window (empty for
    the direct workloads).
    """
    self_s, incl, count, errors, book_s, top_s = tracer.totals()
    values = tracer.values
    out = zero_metrics()

    steps = count["kernels.step"]
    out["kernels.steps"] = steps
    out["kernels.step_s"] = incl["kernels.step"]
    out["kernels.energy_s"] = incl["kernels.energy"]
    if steps:
        out["kernels.step_us"] = 1e6 * incl["kernels.step"] / steps
        flops = moved = 0
        for shape, n in tracer.kernel_shapes.items():
            step_flops, step_bytes = _step_cost(*shape)
            flops += n * step_flops
            moved += n * step_bytes
        out["kernels.flops_per_step"] = flops / steps
        out["kernels.bytes_per_step"] = moved / steps

    solves = count["bsb.solve"]
    out["bsb.solves"] = solves
    out["bsb.self_s"] = self_s["bsb"]
    if solves:
        out["bsb.iterations_per_solve"] = values["bsb.iterations"] / solves
        out["bsb.variance_stop_share"] = values["bsb.variance_stops"] / solves

    hooks = count["theorem3.hook"]
    out["theorem3.interventions"] = hooks
    out["theorem3.s"] = incl["theorem3.hook"]
    if hooks:
        out["theorem3.changed_share"] = values["theorem3.changed"] / hooks

    requests = count["formulation.model"]
    out["formulation.model_requests"] = requests
    out["formulation.weight_builds"] = values["formulation.weight_builds"]
    out["formulation.weight_build_s"] = values["formulation.weight_build_s"]
    if requests:
        out["formulation.cache_hit_ratio"] = (
            1.0 - values["formulation.weight_builds"] / requests
        )

    out["framework.partition_sampling_s"] = incl["boolean.sample_partitions"]
    out["framework.synthesis_s"] = incl["boolean.apply_column_setting"]
    out["framework.baseline_error_s"] = (
        incl["boolean.mean_error_distance"]
        + incl["boolean.error_rate_per_output"]
    )
    out["framework.sweep_s"] = (
        incl["formulation.model"] + incl["framework.solve_model"]
    )
    out["framework.cop_solves"] = count["framework.solve_model"]

    out["jobstore.submit_s"] = incl["jobstore.submit"]
    out["jobstore.store_errors"] = sum(
        n for name, n in errors.items() if name.startswith("jobstore.")
    )
    out["scheduler.claims"] = values["scheduler.claims"]
    out["scheduler.claim_s"] = incl["scheduler.claim"]
    out["scheduler.heartbeats"] = count["scheduler.heartbeat"]
    out["scheduler.heartbeat_s"] = incl["scheduler.heartbeat"]
    out["scheduler.complete_s"] = incl["scheduler.complete"]

    writes = count["artifacts.put_checkpoint"]
    out["artifacts.checkpoint_writes"] = writes
    out["artifacts.checkpoint_s"] = incl["artifacts.put_checkpoint"]
    if writes:
        out["artifacts.checkpoint_bytes"] = (
            values["artifacts.checkpoint_bytes"] / writes
        )
    out["artifacts.put_s"] = incl["artifacts.put"]
    out["artifacts.get_s"] = incl["artifacts.get"]
    out["worker.execute_s"] = incl["worker.execute"]

    jobs = list(records)
    if jobs:
        out["scheduler.queue_wait_p50_s"] = median(
            job.started_at - job.created_at for job in jobs
        )
        out["artifacts.cache_hit_ratio"] = fmean(
            1.0 if job.cache_hit else 0.0 for job in jobs
        )
        # execute time that is neither decomposition nor tracer work
        compute = sum(self_s[layer] for layer in COMPUTE_LAYERS)
        out["worker.overhead_per_job_s"] = (
            incl["worker.execute"] - compute - book_s
        ) / len(jobs)

    for layer in SHARE_LAYERS:
        if layer != "tracer":
            out[f"share.{layer}"] = self_s[layer] / window_s
    out["share.tracer"] = book_s / window_s
    out["share.unattributed"] = 1.0 - top_s / window_s
    out["trace.window_s"] = window_s
    out["trace.spans"] = len(tracer.records) + sum(
        n for name, n in count.items()
        if name in ("kernels.step", "kernels.energy", "theorem3.hook")
    )
    return out
