"""The service façade: one object tying store, cache, and workers.

:class:`DecompositionService` owns a *service directory*::

    <root>/
      jobs.sqlite3        durable job store (queue + journal + telemetry)
      artifacts/          content-addressed design cache

Because all state is on disk, the façade is process-oblivious: one
process may ``submit`` while another runs ``serve`` and a third polls
``status`` — the CLI maps each subcommand onto a fresh façade over the
same directory.  Library users typically drive one instance in-process:

>>> from repro.core import FrameworkConfig
>>> from repro.service import DecompositionService, JobSpec
>>> service = DecompositionService("/tmp/svc-doc-example", n_workers=2)
>>> spec = JobSpec(workload="cos", n_inputs=6,
...                config=FrameworkConfig(n_partitions=2, n_rounds=1,
...                                       seed=7))
>>> job = service.submit(spec)
>>> service.run_until_drained()
>>> service.job(job.id).state
'done'
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.lut.cascade import LutCascadeDesign
from repro.serialization import design_from_dict
from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import JobRecord
from repro.service.scheduler import Scheduler, SchedulerPolicy
from repro.service.shards import open_job_store
from repro.service.spec import JobSpec, spec_artifact_key
from repro.service.telemetry import service_summary
from repro.service.worker import (
    DEFAULT_CHECKPOINT_EVERY,
    DecomposeFn,
    JobExecutor,
    WorkerPool,
)

__all__ = ["DecompositionService"]


class DecompositionService:
    """Durable decomposition job service over a directory (module docs)."""

    def __init__(
        self,
        root: Union[str, Path],
        n_workers: int = 1,
        policy: Optional[SchedulerPolicy] = None,
        decompose_fn: Optional[DecomposeFn] = None,
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
        shards: Optional[int] = None,
        isolated: bool = False,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # shards=None discovers the directory's layout (manifest);
        # N >= 2 opens the sharded store with per-shard fault domains
        # (see repro.service.shards), N == 1 keeps today's single
        # jobs.sqlite3 byte-identical
        self.store = open_job_store(self.root, shards)
        self.artifacts = ArtifactStore(self.root / "artifacts")
        self.scheduler = Scheduler(self.store, policy)
        self.executor = JobExecutor(
            self.artifacts, decompose_fn, checkpoint_every=checkpoint_every
        )
        # isolated=True runs every attempt in a child process that
        # reopens this directory (see repro.service.worker)
        self.pool = WorkerPool(
            self.scheduler,
            self.executor,
            n_workers=n_workers,
            root=self.root,
            isolated=isolated,
        )

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue one job; duplicates are welcome (the artifact cache
        dedups them at execution time, the second solve never happens).
        """
        key = spec_artifact_key(spec)
        return self.store.submit(spec, artifact_key=key)

    def submit_batch(self, specs: Sequence[JobSpec]) -> List[JobRecord]:
        """Enqueue many jobs, preserving order."""
        return [self.submit(spec) for spec in specs]

    def submit_idempotent(self, spec: JobSpec) -> Tuple[JobRecord, bool]:
        """Enqueue unless an equivalent job is already live.

        "Equivalent" means same artifact key — the content address over
        (truth table, semantic config), i.e. the strongest possible
        dedup: a match is *guaranteed* to yield the identical design.
        Returns ``(record, deduplicated)`` where a ``True`` flag means
        the record is a pre-existing queued/running/done twin (failed
        twins don't count — resubmission retries them).  This is the
        gateway's ``POST /v1/jobs`` path, which makes client retries
        after a lost response safe.
        """
        key = spec_artifact_key(spec)
        live = self.store.find_by_key(
            key, states=("queued", "running", "done")
        )
        if live:
            return live[0], True
        return self.store.submit(spec, artifact_key=key), False

    # -- serving -------------------------------------------------------

    def run_until_drained(self, timeout: Optional[float] = None) -> None:
        """Serve until the queue is empty (every claim first recovers
        orphaned jobs)."""
        self.pool.run_until_drained(timeout=timeout)

    def serve_forever(self) -> WorkerPool:
        """Start background serving; call ``.stop()`` on the returned
        pool (or let the process exit — threads are daemonic).
        """
        self.pool.start()
        return self.pool

    # -- inspection / fetch --------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        """Current record of one job."""
        return self.store.get(job_id)

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """All job records, oldest first."""
        return self.store.list_jobs(state)

    def jobs_page(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[JobRecord], Optional[str]]:
        """One page of job records: ``(records, next_cursor)``.

        See :meth:`repro.service.jobstore.JobStore.page_jobs` — this is
        what ``GET /v1/jobs?limit=&cursor=`` serves, so large queues
        never require an O(queue) response.
        """
        return self.store.page_jobs(
            state=state, limit=limit, cursor=cursor
        )

    def status(self) -> Dict:
        """Structured telemetry summary (see ``service.telemetry``)."""
        return service_summary(self.store, self.artifacts)

    def shard_states(self) -> Optional[List[Dict]]:
        """Per-shard breaker snapshots, or ``None`` for the single
        (unsharded) store — the healthz / ``status --shards`` feed.
        """
        states = getattr(self.store, "shard_states", None)
        return states() if callable(states) else None

    def fetch_envelope(self, job_id: str) -> Dict:
        """The finished job's artifact envelope (design + metadata)."""
        job = self.store.get(job_id)
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state!r}, not done"
                + (f" ({job.error})" if job.error else "")
            )
        envelope = self.artifacts.get(job.artifact_key)
        if envelope is None:
            raise ServiceError(
                f"job {job_id} is done but its artifact "
                f"{job.artifact_key} is missing from the store"
            )
        return envelope

    def fetch_design_dict(self, job_id: str) -> Dict:
        """The finished job's design document
        (:mod:`repro.serialization` format).
        """
        return self.fetch_envelope(job_id)["design"]

    def fetch_design(self, job_id: str) -> LutCascadeDesign:
        """The finished job's design, rebuilt and evaluable."""
        return design_from_dict(self.fetch_design_dict(job_id))

    def write_design(self, job_id: str, path: Union[str, Path]) -> Path:
        """Write the finished job's design document as a JSON file that
        ``repro evaluate`` / ``export-verilog`` / ``load_design`` read.
        """
        path = Path(path)
        path.write_text(
            json.dumps(
                self.fetch_design_dict(job_id), indent=2, sort_keys=True
            )
        )
        return path
