"""Workers: claim jobs, execute them, report the outcome.

Execution path of one job (:class:`JobExecutor`):

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

One loop runs every job (:class:`WorkerLoop`): it claims from a job
source — :class:`LocalSource` (a service directory) or the fleet
agent's ``RemoteSource`` (a gateway) — executes, and routes the outcome
in one place.  Progress events renew the lease at most once per
``lease_seconds / 12``.  :class:`WorkerPool` runs N loops as threads
(the numerics release the GIL inside BLAS).

An *isolated* loop runs each attempt in a child process, which
rebuilds the source, reports its own outcome and stamps a shared clock
on every progress event.  The parent reports for a child that exits
uncleanly or whose stamp is older than the lease (a hang, killed),
then claims under its next generation name (``<name>-g<k>``), so a
poison job fails on distinct workers and trips quarantine.

Fault seams (active only under an installed
:class:`~repro.resilience.FaultPlan`): ``worker.crash`` fires at
attempt start and after every checkpoint write, ``worker.hang`` sleeps
``param`` seconds at attempt start, ``worker.die`` hard-exits the
process (isolated loops only).
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

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
from repro.resilience import (
    FaultPlan,
    InjectedFault,
    active_fault_plan,
    install_fault_plan,
)
from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import JobRecord
from repro.service.scheduler import Scheduler, SchedulerPolicy
from repro.service.shards import open_job_store
from repro.service.spec import JobSpec

logger = get_logger("repro.service.worker")

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "ExecutionOutcome",
    "JobExecutor",
    "LeaseLost",
    "LocalSource",
    "LoopStats",
    "OUTCOMES",
    "WorkerLoop",
    "WorkerPool",
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


class LeaseLost(ReproError):
    """The worker no longer owns the job; abandon the attempt unreported."""


#: how one attempt can end: the first three are completions, the last
#: two happen only to isolated attempts
OUTCOMES = (
    "completed", "cache_hit", "resumed", "superseded",
    "timeout", "crashed", "abandoned", "died", "hung",
)
_COMPLETIONS = OUTCOMES[:3]
#: the counter each outcome bumps
_OUTCOME_COUNTERS = {
    **dict.fromkeys(_COMPLETIONS, "service_jobs_completed_total"),
    "timeout": "service_jobs_timeout_total",
    "crashed": "service_jobs_crashed_total",
    "abandoned": "service_attempts_abandoned_total",
    "died": "service_attempts_died_total",
    "hung": "service_attempts_hung_total",
}


@dataclass
class LoopStats:
    """Counters one worker loop accumulates over its lifetime."""

    claims: int = 0
    completed: int = 0
    cache_hits: int = 0
    failed: int = 0
    abandoned: int = 0
    superseded: int = 0
    empty_claims: int = 0
    resumed: int = 0

    def record(self, outcome: str) -> None:
        """Count one attempt's outcome (one of :data:`OUTCOMES`)."""
        if outcome in _COMPLETIONS:
            self.completed += 1
            self.cache_hits += outcome == "cache_hit"
            self.resumed += outcome == "resumed"
        elif outcome in ("abandoned", "superseded"):
            setattr(self, outcome, getattr(self, outcome) + 1)
        else:
            self.failed += 1


class LocalSource:
    """A service directory's scheduler and artifact store as a job
    source (an isolated attempt's child reopens ``root``)."""

    transient = sqlite3.OperationalError

    def __init__(
        self,
        scheduler: Scheduler,
        artifacts: ArtifactStore,
        root: Optional[Union[str, Path]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.artifacts = artifacts
        self.root = None if root is None else Path(root).resolve()
        self.lease_seconds = scheduler.policy.lease_seconds
        self.poll_seconds = scheduler.policy.poll_interval_seconds

    def claim(self, worker: str) -> Optional[JobRecord]:
        self.scheduler.recover_orphans()
        return self.scheduler.claim(worker)

    def heartbeat(self, job: JobRecord) -> None:
        self.scheduler.heartbeat(job)

    def complete(self, job: JobRecord, outcome: ExecutionOutcome) -> str:
        return self._transition(
            lambda: self.scheduler.complete(
                job,
                med=outcome.med,
                runtime_seconds=outcome.runtime_seconds,
                cache_hit=outcome.cache_hit,
            ),
            job.id,
        )

    def fail(self, job: JobRecord, error: str) -> None:
        def route() -> None:
            # a job recovered (and maybe re-claimed) behind this
            # attempt's back is no longer this worker's to fail
            current = self.scheduler.store.get(job.id)
            if current.state != "running" or current.worker != job.worker:
                raise ServiceError(
                    f"job {job.id} is {current.state!r} under "
                    f"{current.worker!r}"
                )
            self.scheduler.record_failure(job, error=error, now=time.time())

        self._transition(route, job.id)

    def queue_empty(self) -> bool:
        try:
            return self.scheduler.store.pending() == 0
        except sqlite3.OperationalError:
            return False  # can't tell if drained; poll again

    def child_args(self, job: JobRecord) -> Tuple[Callable, Tuple]:
        """Picklable ``(rebuild, args)`` for an isolated attempt."""
        return _local_child, (
            str(self.root), asdict(self.scheduler.policy), job.to_dict()
        )

    @staticmethod
    def _transition(action: Callable[[], None], job_id: str) -> str:
        """Apply a completion-path store transition, tolerating races.

        A slow attempt can lose its claim to orphan recovery (another
        worker re-ran the job): the row is no longer this worker's, so
        the attempt is *superseded*.  A degraded shard or store pressure
        leaves the row ``running`` for lease expiry to recover: the
        attempt is *abandoned*.  Either way the worker survives.
        """
        try:
            action()
        except (ShardUnavailableError, sqlite3.OperationalError) as exc:
            logger.warning(
                "job %s transition hit store trouble (%s); leaving "
                "recovery to the lease", job_id, exc,
            )
            name, outcome = "service_store_errors_total", "abandoned"
        except ServiceError as exc:
            logger.warning(
                "job %s transition lost a race (lease expired or "
                "recovered by another worker): %s", job_id, exc,
            )
            name, outcome = "service_transition_races_total", "superseded"
        else:
            return "completed"
        get_metrics().counter(
            name, help="completion-path transitions the store refused"
        ).inc()
        return outcome


def _local_child(
    root: str, policy: Dict, job: Dict
) -> Tuple[LocalSource, JobRecord]:
    """Reopen a service directory in an isolated attempt's child."""
    path = Path(root)
    scheduler = Scheduler(open_job_store(path), SchedulerPolicy(**policy))
    source = LocalSource(scheduler, ArtifactStore(path / "artifacts"), path)
    return source, JobRecord.from_dict(job)


def _attempt(
    source,
    executor: JobExecutor,
    job: JobRecord,
    claimed_at: float,
    on_progress: Optional[Callable[[float], None]] = None,
) -> str:
    """Execute one claimed job and report it; returns the outcome.

    The lease is renewed on progress events, at most once per
    ``lease_seconds / 12``, the clock starting at the claim.
    """
    interval = source.lease_seconds / 12.0
    renewed = claimed_at

    def beat() -> None:
        nonlocal renewed
        now = time.monotonic()
        if on_progress is not None:
            on_progress(now)
        if now - renewed >= interval:
            renewed = now
            source.heartbeat(job)

    try:
        result = executor.execute(job, heartbeat=beat)
    except LeaseLost as exc:
        logger.warning("worker %s: %s", job.worker, exc)
        return "abandoned"
    except OperationCancelled as exc:
        logger.warning("job %s timed out: %s", job.id, exc)
        source.fail(job, f"timeout: {exc}")
        return "timeout"
    except Exception as exc:  # an attempt crash never kills the loop
        error = f"{type(exc).__name__}: {exc}"
        logger.warning("job %s crashed: %s", job.id, error)
        source.fail(job, error)
        return "crashed"
    reported = source.complete(job, result)
    if reported != "completed":
        return reported
    if result.cache_hit:
        return "cache_hit"
    return "resumed" if result.resumed_from_checkpoint else "completed"


def _attempt_main(
    rebuild: Callable,
    args: Tuple,
    claimed_at: float,
    checkpoint_every: Optional[int],
    fault_spec: Optional[Dict],
    shared,
) -> None:
    """One isolated attempt's child: rebuild the source, run the attempt
    (which reports itself), leave the outcome's index in ``shared[1]``
    and progress stamps in ``shared[0]`` for the parent's hang-kill."""
    if fault_spec is not None:
        install_fault_plan(FaultPlan.from_spec(fault_spec))
    source, job = rebuild(*args)
    executor = JobExecutor(source.artifacts, checkpoint_every=checkpoint_every)

    def stamp(now: float) -> None:
        shared[0] = now

    shared[1] = OUTCOMES.index(
        _attempt(source, executor, job, claimed_at, stamp)
    )


def _attempt_context():
    """forkserver, not fork: forking a multi-threaded process (loop and
    gateway threads) can deadlock the child.  Every child re-imports
    the parent's main module, so the server preloads it beside this
    module; a child then starts in about 10 ms."""
    context = multiprocessing.get_context("forkserver")
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    main = getattr(spec, "name", "__main__")
    context.set_forkserver_preload([main, "repro.service.worker"])
    return context


class WorkerLoop:
    """Claim, execute, report: the one way a job runs (module docs).

    ``source`` is a :class:`LocalSource` or the fleet agent's
    ``RemoteSource``, ``executor`` a :class:`JobExecutor` over the
    source's artifacts.  An ``isolated`` loop claims as
    ``<name>-g<k>`` and runs each attempt, with the default decompose,
    in a child process.
    """

    def __init__(
        self,
        source,
        executor: JobExecutor,
        name: str,
        *,
        isolated: bool = False,
    ) -> None:
        if isolated and executor._decompose is not _default_decompose:
            raise ServiceError(
                "isolated attempts rebuild the executor in a child "
                "process and cannot carry a custom decompose_fn"
            )
        self.source = source
        self.executor = executor
        self.name = name
        self.isolated = isolated
        self.generation = 0
        self.stats = LoopStats()
        self._stop = threading.Event()  # never cleared

    @property
    def claim_name(self) -> str:
        if not self.isolated:
            return self.name
        return f"{self.name}-g{self.generation}"

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stop(self) -> None:
        """Exit after the current attempt, for good."""
        self._stop.set()

    def run(
        self, drain: bool = False, max_jobs: Optional[int] = None
    ) -> LoopStats:
        """Serve until stopped, drained, or ``max_jobs`` claimed."""
        poll = self.source.poll_seconds
        while not self._stop.is_set():
            if max_jobs is not None and self.stats.claims >= max_jobs:
                break
            try:
                job = self.source.claim(self.claim_name)
            except self.source.transient as exc:
                logger.warning(
                    "worker %s: claim failed (%s); backing off",
                    self.claim_name, exc,
                )
                self._stop.wait(poll)
                continue
            if job is None:
                self.stats.empty_claims += 1
                if drain and self.source.queue_empty():
                    break
                # backoff gates may hold queued jobs; keep polling
                self._stop.wait(poll)
                continue
            self.stats.claims += 1
            claimed_at = time.monotonic()
            with get_tracer().span(
                "job",
                category="service",
                job_id=job.id,
                worker=job.worker,
                attempt=job.attempts,
            ) as span:
                outcome = (
                    self._run_isolated(job, claimed_at) if self.isolated
                    else _attempt(self.source, self.executor, job, claimed_at)
                )
                span.set_args(outcome=outcome)
            self.stats.record(outcome)
            if outcome in _OUTCOME_COUNTERS:
                get_metrics().counter(
                    _OUTCOME_COUNTERS[outcome], help="job attempts by outcome"
                ).inc()
        return self.stats

    def _run_isolated(self, job: JobRecord, claimed_at: float) -> str:
        """Run the attempt in a child; kill it after a lease without
        progress, and report for it when it does not exit cleanly."""
        plan = active_fault_plan()
        context = _attempt_context()
        shared = context.RawArray("d", [claimed_at, -1.0])
        process = context.Process(
            target=_attempt_main,
            args=(
                *self.source.child_args(job),
                claimed_at,
                self.executor.checkpoint_every,
                None if plan is None else plan.to_spec(),
                shared,
            ),
            name=f"{job.worker}-attempt",
            daemon=True,
        )
        process.start()
        # the forkserver's start-up is not the attempt's progress
        shared[0] = max(shared[0], time.monotonic())
        lease = self.source.lease_seconds
        hung = False
        while process.exitcode is None:
            process.join(lease / 12.0)
            if (
                process.exitcode is None
                and time.monotonic() - shared[0] > lease
            ):
                process.kill()
                process.join()
                hung = True
        exitcode = process.exitcode
        process.close()
        if not hung and exitcode == 0 and shared[1] >= 0:
            return OUTCOMES[int(shared[1])]
        self.generation += 1
        outcome, error = (
            ("hung", f"attempt made no progress for {lease:g}s; killed")
            if hung else ("died", f"attempt process died (exit {exitcode})")
        )
        logger.warning("worker %s: job %s: %s", job.worker, job.id, error)
        self.source.fail(job, error)
        return outcome


class WorkerPool:
    """N worker loops draining one scheduler's queue, a thread each.

    Loops are named ``<name>-worker-<i>``.  :meth:`resize` starts loops
    under fresh names or asks the newest to stop after their current
    job; that is all the autoscaler drives.  ``isolated=True`` runs
    every attempt in a child process that reopens the service
    directory ``root``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        executor: JobExecutor,
        n_workers: int = 1,
        name: str = "svc",
        *,
        root: Optional[Union[str, Path]] = None,
        isolated: bool = False,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if isolated and root is None:
            raise ServiceError("isolated workers need the service directory")
        self.scheduler = scheduler
        self.executor = executor
        self.n_workers = n_workers
        self.name = name
        self.root = root
        self.isolated = isolated
        #: loops started so far; the next loop's index
        self.spawned = 0
        self._loops: List[Tuple[WorkerLoop, threading.Thread]] = []

    def _start_loops(
        self, count: int, drain: bool
    ) -> List[Tuple[WorkerLoop, threading.Thread]]:
        self._loops = [pair for pair in self._loops if pair[1].is_alive()]
        started = []
        for _ in range(count):
            loop = WorkerLoop(
                LocalSource(
                    self.scheduler, self.executor.artifacts, self.root
                ),
                self.executor,
                f"{self.name}-worker-{self.spawned}",
                isolated=self.isolated,
            )
            self.spawned += 1
            thread = threading.Thread(
                target=loop.run, args=(drain,), name=loop.name, daemon=True
            )
            thread.start()
            started.append((loop, thread))
        self._loops.extend(started)
        return started

    def _launch(
        self, drain: bool
    ) -> List[Tuple[WorkerLoop, threading.Thread]]:
        """Start ``n_workers`` loops, named from 0 again once every
        earlier loop has exited."""
        if any(
            not loop.stopping and thread.is_alive()
            for loop, thread in self._loops
        ):
            raise RuntimeError("worker pool already running")
        if not any(thread.is_alive() for _, thread in self._loops):
            self.spawned = 0
        return self._start_loops(self.n_workers, drain)

    def run_until_drained(self, timeout: Optional[float] = None) -> None:
        """Process jobs until the queue is empty (or ``timeout``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for loop, thread in self._launch(drain=True):
            thread.join(_remaining(deadline))
            loop.stop()

    def start(self) -> None:
        """Start serving forever (until :meth:`stop`)."""
        self._launch(drain=False)

    def resize(self, n: int) -> None:
        """Serve with ``n`` loops: start loops under fresh names, or ask
        the newest to stop after their current job."""
        serving = [
            loop for loop, thread in self._loops
            if thread.is_alive() and not loop.stopping
        ]
        self._start_loops(max(0, n - len(serving)), drain=False)
        for loop in serving[n:]:
            loop.stop()

    @property
    def retiring(self) -> int:
        """Loops asked to stop that are still finishing a job."""
        return sum(
            1 for loop, thread in self._loops
            if loop.stopping and thread.is_alive()
        )

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Ask every loop to stop after its current job and join them
        for up to ``timeout`` seconds in all; a loop still inside a job
        never claims again."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for loop, _ in self._loops:
            loop.stop()
        for _, thread in self._loops:
            thread.join(_remaining(deadline))


def _remaining(deadline: Optional[float]) -> Optional[float]:
    return None if deadline is None else max(0.0, deadline - time.monotonic())
