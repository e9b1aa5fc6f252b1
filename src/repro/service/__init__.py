"""repro.service — a durable, crash-tolerant decomposition job service.

The software analogue of a hardware Ising dispatch layer: problem
instances are *submitted* as durable jobs, *scheduled* onto a worker
pool with bounded retries and cooperative timeouts, and their finished
designs land in a *content-addressed artifact cache* so duplicate
submissions never re-solve.

Module map
----------
``spec``       :class:`JobSpec` + :func:`artifact_key` (content hashing)
``artifacts``  :class:`ArtifactStore` — on-disk design cache
``jobstore``   :class:`JobStore` — SQLite job journal (the durable truth)
``shards``     :class:`ShardedJobStore` — N independent job-store
               fault domains with per-shard circuit breakers,
               degraded-mode serving, and journal-based scrub/rebuild
``scheduler``  :class:`Scheduler`/:class:`SchedulerPolicy` — retries,
               backoff, leases, orphan recovery
``worker``     :class:`JobExecutor`, :class:`WorkerLoop` (claim →
               execute → report, in-thread or one child process per
               attempt) and :class:`WorkerPool` (N loops, resizable)
``telemetry``  :func:`service_summary` — derived structured metrics
``service``    :class:`DecompositionService` — the façade the CLI's
               ``serve``/``submit``/``status``/``fetch`` commands wrap

Determinism guarantee: a job's spec pins its seed and semantic config;
every attempt replays the identical seeded search, so returned designs
are bit-for-bit independent of worker count, retry history, crashes,
and cache hits.
"""

from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import (
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    WorkerRecord,
)
from repro.service.scheduler import Scheduler, SchedulerPolicy
from repro.service.service import DecompositionService
from repro.service.shards import (
    ShardedJobStore,
    open_job_store,
    rebuild_shard,
    scrub_store,
    shard_for_key,
)
from repro.service.spec import (
    SPEC_FORMAT,
    SPEC_SCHEMA_VERSION,
    JobSpec,
    artifact_key,
    spec_from_stored,
)
from repro.service.telemetry import (
    format_job_table,
    format_worker_table,
    service_summary,
)
from repro.service.worker import (
    DEFAULT_CHECKPOINT_EVERY,
    JobExecutor,
    WorkerPool,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_CHECKPOINT_EVERY",
    "DecompositionService",
    "JOB_STATES",
    "JobExecutor",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "SPEC_FORMAT",
    "SPEC_SCHEMA_VERSION",
    "Scheduler",
    "SchedulerPolicy",
    "ShardedJobStore",
    "TERMINAL_STATES",
    "WorkerPool",
    "WorkerRecord",
    "artifact_key",
    "format_job_table",
    "format_worker_table",
    "open_job_store",
    "rebuild_shard",
    "scrub_store",
    "service_summary",
    "shard_for_key",
    "spec_from_stored",
]
