"""Workers: claim jobs, execute them, keep the lease alive.

Execution path of one job:

1. re-check the artifact store — a duplicate submitted while an
   identical job was in flight resolves here without solving (recorded
   as a cache hit);
2. if a crash-recovery checkpoint exists for the job's artifact key
   (a previous attempt died mid-run), restore it — the attempt
   continues from the last completed component instead of restarting;
3. otherwise run the seeded search through
   :meth:`~repro.core.framework.IsingDecomposer.decompose`, with

   * the framework *progress hook* renewing the job's lease (so a live
     long job is distinguishable from a crashed worker),
   * the framework *cancel hook* enforcing the per-attempt timeout
     cooperatively (the attempt stops at the next component boundary
     and counts against the retry budget), and
   * the framework *checkpoint hook* persisting a
     :class:`~repro.core.checkpoint.DecomposeCheckpoint` every
     ``checkpoint_every`` components through the artifact store;

4. persist the design under its content key, drop the checkpoint, and
   mark the job done.

Determinism contract: the job spec pins the seed and the semantic
config, and ``decompose`` replays the identical search on every
attempt — and a checkpoint restores the exact mid-run state (RNG
streams included) — so the stored design is bit-for-bit independent of
which worker ran the job, how many retries it took, whether any retry
resumed from a checkpoint, and whether it was served from the cache.

The pool itself is a set of daemon threads sharing one scheduler.  The
heavy numerics release the GIL inside BLAS (and jobs may additionally
fan out their candidate sweep over processes via
``FrameworkConfig.n_workers``), so threads are the right weight here;
crash-tolerance against *process* death is the job store's lease
mechanism plus the process-isolated supervisor
(:mod:`repro.service.supervisor`).

Fault seams (active only under an installed
:class:`~repro.resilience.FaultPlan`): ``worker.crash`` fires at
attempt start and after every checkpoint write, ``worker.hang`` sleeps
``param`` seconds at attempt start, ``worker.die`` hard-exits the
process (supervisor mode only).
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.checkpoint import DecomposeCheckpoint
from repro.core.framework import IsingDecomposer
from repro.errors import (
    OperationCancelled,
    ReproError,
    ServiceError,
    ShardUnavailableError,
)
from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer
from repro.resilience import InjectedFault, active_fault_plan
from repro.serialization import result_to_dict
from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import JobRecord
from repro.service.scheduler import Scheduler
from repro.service.spec import JobSpec

logger = get_logger("repro.service.worker")

__all__ = [
    "JobExecutor",
    "WorkerPool",
    "ExecutionOutcome",
    "DEFAULT_CHECKPOINT_EVERY",
]

#: Signature of a pluggable decompose function: ``(spec, table,
#: progress, should_cancel, resume=, checkpoint_hook=) ->
#: DecompositionResult``; the executor always passes both keywords
#: (``None`` when checkpointing is off).  The default runs the real
#: framework.
DecomposeFn = Callable[..., object]

#: default checkpoint cadence: persist after every component
DEFAULT_CHECKPOINT_EVERY = 1


def _default_decompose(
    spec: JobSpec,
    table,
    progress,
    should_cancel,
    resume=None,
    checkpoint_hook=None,
):
    return IsingDecomposer(spec.config).decompose(
        table,
        progress=progress,
        should_cancel=should_cancel,
        resume=resume,
        checkpoint_hook=checkpoint_hook,
    )


@dataclass(frozen=True)
class ExecutionOutcome:
    """What one successful job execution produced."""

    design: Dict
    med: Optional[float]
    runtime_seconds: float
    cache_hit: bool
    resumed_from_checkpoint: bool = False


class JobExecutor:
    """Executes one claimed job against the artifact store.

    Parameters
    ----------
    artifacts:
        The content-addressed store (results *and* checkpoints).
    decompose_fn:
        Pluggable decomposition function (see :data:`DecomposeFn`).
    checkpoint_every:
        Service-default checkpoint cadence in components; a job spec's
        own ``checkpoint_every`` overrides it, ``None`` disables
        checkpointing entirely.
    """

    def __init__(
        self,
        artifacts: ArtifactStore,
        decompose_fn: Optional[DecomposeFn] = None,
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.artifacts = artifacts
        self.checkpoint_every = checkpoint_every
        self._decompose = (
            decompose_fn if decompose_fn is not None else _default_decompose
        )

    def _load_checkpoint(
        self, job: JobRecord, table
    ) -> Optional[DecomposeCheckpoint]:
        """A valid stored checkpoint for ``job``, or ``None``.

        Anything unreadable or bound to a different problem is removed
        — a broken checkpoint must degrade to restart-from-scratch.
        """
        stored = self.artifacts.get_checkpoint(job.artifact_key)
        if stored is None:
            return None
        try:
            checkpoint = DecomposeCheckpoint.from_dict(stored)
            checkpoint.validate_for(table)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "discarding unusable checkpoint for job %s: %s",
                job.id, exc,
            )
            self.artifacts.delete_checkpoint(job.artifact_key)
            return None
        return checkpoint

    def execute(
        self,
        job: JobRecord,
        *,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> ExecutionOutcome:
        """Run ``job`` to an outcome (raises on crash/timeout).

        Timeouts raise :class:`~repro.errors.OperationCancelled`; any
        other exception is a worker crash.  The caller owns the job
        store transition either way.  A crash leaves the latest
        checkpoint in place for the next attempt; success removes it.
        """
        start = time.monotonic()
        tracer = get_tracer()
        plan = active_fault_plan()
        detail = f"{job.id}:{job.worker or ''}"
        if plan is not None:
            if plan.should_fire("worker.hang", detail):
                time.sleep(plan.site_param("worker.hang", 1.0))
            if plan.should_fire("worker.die", detail):
                os._exit(int(plan.site_param("worker.die", 1.0)) or 1)
            if plan.should_fire("worker.crash", detail):
                raise InjectedFault(f"injected worker crash ({detail})")
        with tracer.span(
            "artifact_cache_check", category="service", job_id=job.id
        ):
            cached = self.artifacts.get(job.artifact_key)
        if cached is not None:
            get_metrics().counter(
                "service_cache_hits_total",
                help="jobs resolved from the artifact cache",
            ).inc()
            return ExecutionOutcome(
                design=cached["design"],
                med=cached["meta"].get("med"),
                runtime_seconds=time.monotonic() - start,
                cache_hit=True,
            )
        spec = job.spec
        if spec.ising is not None:
            return self._execute_ising(
                job, spec, start=start, tracer=tracer, heartbeat=heartbeat
            )
        table = spec.build_table()
        deadline = (
            None
            if spec.timeout_seconds is None
            else start + spec.timeout_seconds
        )

        def progress(event: Dict) -> None:
            if heartbeat is not None:
                heartbeat()

        def should_cancel() -> bool:
            return deadline is not None and time.monotonic() > deadline

        if should_cancel():
            raise OperationCancelled(
                f"timeout of {spec.timeout_seconds}s expired before the "
                "attempt started"
            )

        cadence = (
            spec.checkpoint_every
            if spec.checkpoint_every is not None
            else self.checkpoint_every
        )
        resume: Optional[DecomposeCheckpoint] = None
        if cadence is not None:
            resume = self._load_checkpoint(job, table)
            if resume is not None:
                logger.info(
                    "job %s resuming from checkpoint (round %d, "
                    "position %d)",
                    job.id, resume.round_index + 1, resume.position,
                )
                tracer.instant(
                    "job_checkpoint_resume",
                    category="service",
                    job_id=job.id,
                    round=resume.round_index + 1,
                    position=resume.position,
                )
                get_metrics().counter(
                    "service_checkpoint_resumes_total",
                    help="job attempts resumed from a crash checkpoint",
                ).inc()

        components_done = 0

        def checkpoint_hook(checkpoint: DecomposeCheckpoint) -> None:
            nonlocal components_done
            components_done += 1
            if components_done % cadence != 0:
                return
            self.artifacts.put_checkpoint(
                job.artifact_key, checkpoint.to_dict()
            )
            get_metrics().counter(
                "service_checkpoints_written_total",
                help="crash-recovery checkpoints persisted",
            ).inc()
            if plan is not None and plan.should_fire(
                "worker.crash", f"{detail}:post-checkpoint"
            ):
                raise InjectedFault(
                    f"injected worker crash after checkpoint ({detail})"
                )

        with tracer.span(
            "job_decompose",
            category="service",
            job_id=job.id,
            artifact_key=job.artifact_key,
            resumed=resume is not None,
        ):
            result = self._decompose(
                spec, table, progress, should_cancel,
                resume=resume,
                checkpoint_hook=(
                    checkpoint_hook if cadence is not None else None
                ),
            )
        runtime = time.monotonic() - start
        meta = {
            "med": float(result.med),
            "runtime_seconds": runtime,
            "n_cop_solves": getattr(result, "n_cop_solves", None),
            "problem": spec.describe(),
        }
        with tracer.span(
            "artifact_put", category="service", job_id=job.id
        ):
            envelope = self.artifacts.put(job.artifact_key, result, meta)
        self.artifacts.delete_checkpoint(job.artifact_key)
        return ExecutionOutcome(
            design=envelope["design"],
            med=float(result.med),
            runtime_seconds=runtime,
            cache_hit=False,
            resumed_from_checkpoint=resume is not None,
        )

    def _execute_ising(
        self,
        job: JobRecord,
        spec: JobSpec,
        *,
        start: float,
        tracer,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> ExecutionOutcome:
        """Solve one raw Ising problem job (:mod:`repro.ising.wire`).

        These jobs come from ``repro submit --ising-model``.  They are
        single seeded solver runs — no components, so no checkpoints
        and no ``med``; the artifact envelope's ``design`` slot carries
        the ``repro-ising-result`` document instead of a cascade
        design.

        The per-worker size gate ``REPRO_ISING_MAX_SPINS`` (default
        4096, deliberately *not* part of the artifact key — it is an
        operational limit, not problem semantics) turns a model too
        wide for this worker into a hard error instead of an unbounded
        allocation.
        """
        from repro.ising import wire

        problem = spec.ising
        n_spins = int(problem["model"]["n_spins"])
        limit = int(os.environ.get("REPRO_ISING_MAX_SPINS", "4096"))
        if n_spins > limit:
            raise ServiceError(
                f"ising problem has {n_spins} spins, over this worker's "
                f"single-solve limit of {limit} (REPRO_ISING_MAX_SPINS)"
            )
        model = wire.problem_model(problem)
        solver = wire.build_problem_solver(problem, spec.config)
        rng = np.random.default_rng(spec.config.seed)
        if heartbeat is not None:
            heartbeat()
        with tracer.span(
            "ising_solve",
            category="service",
            job_id=job.id,
            solver=problem["solver"],
            n_spins=n_spins,
        ):
            result = solver.solve(model, rng)
        runtime = time.monotonic() - start
        get_metrics().counter(
            "service_ising_jobs_total",
            help="raw Ising solve jobs executed",
        ).inc()
        meta = {
            "med": None,
            "runtime_seconds": runtime,
            "problem": spec.describe(),
            "ising": {
                "solver": problem["solver"],
                "n_spins": n_spins,
                "energy": float(result.energy),
                "objective": float(result.objective),
                "n_iterations": int(result.n_iterations),
                "stop_reason": str(result.stop_reason),
            },
        }
        with tracer.span(
            "artifact_put", category="service", job_id=job.id
        ):
            envelope = self.artifacts.put(
                job.artifact_key, wire.solve_result_to_dict(result), meta
            )
        return ExecutionOutcome(
            design=envelope["design"],
            med=None,
            runtime_seconds=runtime,
            cache_hit=False,
        )


class WorkerPool:
    """N looping worker threads draining one scheduler's queue.

    Each loop iteration claims one runnable job and runs it to an
    outcome, renewing the job's lease on every progress event.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        executor: JobExecutor,
        n_workers: int = 1,
        name: str = "svc",
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.scheduler = scheduler
        self.executor = executor
        self.n_workers = n_workers
        self.name = name
        self._stop = threading.Event()
        self._threads: list = []

    # ------------------------------------------------------------------

    def _transition(self, action: Callable[[], None], job_id: str) -> None:
        """Apply a completion-path store transition, tolerating races.

        A slow attempt can lose its claim to orphan recovery (the lease
        expired, another worker re-ran the job); its completion then
        targets a row that is no longer ``running`` for this worker.
        That is not an error of *this* worker — log and move on, the
        job's durable state is owned by whoever holds the claim now.

        A transition that hits a *degraded shard* is different: the
        row is intact but unreachable, so the job stays ``running``
        and lease expiry recovers it once the shard returns (or a
        rebuild requeues it).  Either way the worker survives.
        """
        try:
            action()
        except ShardUnavailableError as exc:
            logger.warning(
                "job %s transition hit a degraded shard (%s); "
                "leaving recovery to the lease",
                job_id, exc,
            )
            get_metrics().counter(
                "service_store_errors_total",
                help="transient job-store errors seen by workers",
            ).inc()
        except ServiceError as exc:
            logger.warning(
                "job %s transition lost a race (lease expired or "
                "recovered by another worker): %s",
                job_id, exc,
            )
            get_metrics().counter(
                "service_transition_races_total",
                help="completion-path transitions lost to recovery races",
            ).inc()

    def _run_one(self, worker_name: str, job: JobRecord) -> None:
        def heartbeat() -> None:
            self.scheduler.heartbeat(job)

        metrics = get_metrics()
        with get_tracer().span(
            "job",
            category="service",
            job_id=job.id,
            worker=worker_name,
            attempt=job.attempts,
        ) as span:
            try:
                outcome = self.executor.execute(job, heartbeat=heartbeat)
            except OperationCancelled as exc:
                logger.warning("job %s timed out: %s", job.id, exc)
                span.set_args(outcome="timeout")
                metrics.counter(
                    "service_jobs_timeout_total",
                    help="job attempts ended by timeout",
                ).inc()
                self._transition(
                    lambda: self.scheduler.record_failure(
                        job, error=f"timeout: {exc}", now=time.time()
                    ),
                    job.id,
                )
            except Exception as exc:  # worker crash — never kills the pool
                logger.warning(
                    "job %s crashed: %s: %s",
                    job.id, type(exc).__name__, exc,
                )
                span.set_args(outcome="crashed")
                metrics.counter(
                    "service_jobs_crashed_total",
                    help="job attempts ended by a worker crash",
                ).inc()
                self._transition(
                    lambda: self.scheduler.record_failure(
                        job,
                        error=f"{type(exc).__name__}: {exc}",
                        now=time.time(),
                    ),
                    job.id,
                )
            else:
                span.set_args(
                    outcome="completed", cache_hit=outcome.cache_hit
                )
                metrics.counter(
                    "service_jobs_completed_total",
                    help="jobs completed successfully",
                ).inc()
                self._transition(
                    lambda: self.scheduler.complete(
                        job,
                        med=outcome.med,
                        runtime_seconds=outcome.runtime_seconds,
                        cache_hit=outcome.cache_hit,
                    ),
                    job.id,
                )

    def _loop(self, worker_name: str, drain: bool) -> None:
        poll = self.scheduler.policy.poll_interval_seconds
        while not self._stop.is_set():
            try:
                self.scheduler.recover_orphans()
                job = self.scheduler.claim(worker_name)
            except sqlite3.OperationalError as exc:
                # transient store pressure (locked, disk full, or an
                # injected jobstore fault) — back off, never die
                logger.warning(
                    "worker %s: job store unavailable (%s); backing off",
                    worker_name, exc,
                )
                get_metrics().counter(
                    "service_store_errors_total",
                    help="transient job-store errors seen by workers",
                ).inc()
                self._stop.wait(poll)
                continue
            if job is None:
                if drain:
                    try:
                        if self.scheduler.store.pending() == 0:
                            return
                    except sqlite3.OperationalError:
                        pass  # can't tell if drained; poll again
                # backoff gates may hold queued jobs; keep polling
                self._stop.wait(poll)
                continue
            try:
                self._run_one(worker_name, job)
            except sqlite3.OperationalError as exc:
                # the *completion* transition hit store pressure; the
                # job stays ``running`` and lease expiry will recover
                # it (a persisted artifact then resolves the retry from
                # the cache) — the worker itself must survive
                logger.warning(
                    "worker %s: job %s completion hit store pressure "
                    "(%s); leaving recovery to the lease",
                    worker_name, job.id, exc,
                )
                get_metrics().counter(
                    "service_store_errors_total",
                    help="transient job-store errors seen by workers",
                ).inc()
                self._stop.wait(poll)

    # ------------------------------------------------------------------

    def run_until_drained(self, timeout: Optional[float] = None) -> None:
        """Process jobs until the queue is empty (all threads joined)."""
        self._spawn(drain=True)
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            thread.join(remaining)
        self._threads = []

    def start(self) -> None:
        """Start serving forever (until :meth:`stop`)."""
        self._spawn(drain=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` is requested (or ``timeout``)."""
        return self._stop.wait(timeout)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Ask all workers to stop after their current job."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        self._stop.clear()

    def request_stop(self) -> None:
        """Signal stop without joining (asynchronous retirement).

        The autoscaler retires pool units from its control loop and
        must not block on a job mid-flight; it polls :attr:`alive`
        afterwards and lets finished threads be garbage-collected.
        Unlike :meth:`stop` this never clears the stop flag, so a
        still-running thread cannot resume looping.
        """
        self._stop.set()

    @property
    def alive(self) -> bool:
        """True while any worker thread is still running."""
        return any(thread.is_alive() for thread in self._threads)

    def _spawn(self, drain: bool) -> None:
        if self._threads:
            raise RuntimeError("worker pool already running")
        self._stop.clear()
        for index in range(self.n_workers):
            worker_name = f"{self.name}-worker-{index}"
            thread = threading.Thread(
                target=self._loop,
                args=(worker_name, drain),
                name=worker_name,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
