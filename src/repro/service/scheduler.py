"""Scheduling policy: claims, bounded retries with backoff, recovery.

The :class:`Scheduler` is the thin brain between the durable
:class:`~repro.service.jobstore.JobStore` and the workers: it decides
*when* a queued job may run (retry-backoff gates), *how long* a silent
worker keeps its lease, and *whether* a failed attempt retries or the
job is declared dead.  It holds no state of its own beyond the policy —
everything durable lives in the store, so any number of scheduler
instances (threads or processes) can drive the same queue.

Backoff is exponential and deterministic:
``retry_backoff_seconds * backoff_multiplier ** (attempts - 1)``.
Determinism matters here too — the *result* of a job never depends on
its retry history (each attempt replays the same seeded search), so
backoff only shapes load, never answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer
from repro.service.jobstore import JobRecord, JobStore

logger = get_logger("repro.service.scheduler")

__all__ = ["Scheduler", "SchedulerPolicy"]


@dataclass(frozen=True)
class SchedulerPolicy:
    """Tunable scheduling knobs.

    Attributes
    ----------
    lease_seconds:
        How long a claimed job may go without a heartbeat before it is
        considered orphaned by a crashed worker.
    retry_backoff_seconds:
        Base delay before a failed attempt re-enters the queue.
    backoff_multiplier:
        Exponential growth factor of the retry delay.
    poll_interval_seconds:
        Worker sleep between claim attempts on an empty queue.
    quarantine_after:
        Distinct workers a job may fail on before it is parked in the
        terminal ``quarantined`` state instead of retrying (poison-job
        protection; ``None`` disables quarantine).  Counted over
        *distinct worker names* — one flaky worker retrying the same
        job does not quarantine it, a job that takes down several
        different workers does.
    """

    lease_seconds: float = 60.0
    retry_backoff_seconds: float = 0.25
    backoff_multiplier: float = 2.0
    poll_interval_seconds: float = 0.05
    quarantine_after: Optional[int] = 3

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be positive, got {self.lease_seconds}"
            )
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError(
                "retry_backoff_seconds must be non-negative, got "
                f"{self.retry_backoff_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                "backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if self.poll_interval_seconds <= 0:
            raise ConfigurationError(
                "poll_interval_seconds must be positive, got "
                f"{self.poll_interval_seconds}"
            )
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ConfigurationError(
                "quarantine_after must be >= 1 or None, got "
                f"{self.quarantine_after}"
            )

    def backoff_for(self, attempts: int) -> float:
        """Delay before attempt ``attempts + 1`` may start."""
        exponent = max(0, attempts - 1)
        return self.retry_backoff_seconds * (
            self.backoff_multiplier ** exponent
        )


class Scheduler:
    """Policy-applying façade over the job store (see module docs).

    ``store`` is anything speaking the :class:`JobStore` interface —
    the single SQLite store or a
    :class:`~repro.service.shards.ShardedJobStore`; the scheduler is
    oblivious to the layout.  Against a sharded store a degraded
    shard surfaces as :class:`~repro.errors.ShardUnavailableError`
    from key/id-scoped calls (the worker pool treats it as store
    pressure), while claims and recovery silently continue over the
    surviving shards.
    """

    def __init__(
        self, store: JobStore, policy: Optional[SchedulerPolicy] = None
    ) -> None:
        self.store = store
        self.policy = policy if policy is not None else SchedulerPolicy()

    # ------------------------------------------------------------------

    def claim(
        self,
        worker: str,
        now: Optional[float] = None,
        kind: str = "local",
    ) -> Optional[JobRecord]:
        """Claim the next runnable job for ``worker`` (or ``None``).

        ``kind`` tags the worker's registry row (``"local"`` for
        in-process pool threads, ``"remote"`` for fleet agents claiming
        over the gateway) — purely informational, scheduling ignores it.
        """
        job = self.store.claim(
            worker,
            lease_seconds=self.policy.lease_seconds,
            now=now,
            kind=kind,
        )
        if job is not None:
            get_tracer().instant(
                "job_claimed",
                category="service",
                job_id=job.id,
                worker=worker,
                attempt=job.attempts,
            )
            get_metrics().counter(
                "scheduler_claims_total", help="jobs claimed by workers"
            ).inc()
        return job

    def heartbeat(self, job: JobRecord, now: Optional[float] = None) -> None:
        """Renew ``job``'s lease; workers call this from progress hooks."""
        self.store.heartbeat(
            job.id, lease_seconds=self.policy.lease_seconds, now=now
        )
        get_metrics().counter(
            "scheduler_heartbeats_total", help="lease renewals"
        ).inc()

    def complete(self, job: JobRecord, **kwargs) -> None:
        """Record a successful attempt (see :meth:`JobStore.complete`)."""
        self.store.complete(job.id, **kwargs)
        get_tracer().instant(
            "job_completed", category="service", job_id=job.id
        )

    def record_failure(
        self,
        job: JobRecord,
        error: str,
        now: float,
    ) -> str:
        """Route a failed attempt: retry, fail for good, or quarantine.

        Returns the resulting state (``"queued"``, ``"failed"``, or
        ``"quarantined"``).  ``job`` must be the claimed record — its
        ``attempts`` already counts the attempt that just failed.
        Quarantine wins over both other routes: a job that has broken
        ``policy.quarantine_after`` distinct workers is parked even if
        retry budget remains.
        """
        failed_workers = self.store.note_worker_failure(job.id, job.worker)
        threshold = self.policy.quarantine_after
        if threshold is not None and len(failed_workers) >= threshold:
            self.store.quarantine(
                job.id,
                error=(
                    f"{error}; quarantined after failing on "
                    f"{len(failed_workers)} distinct worker(s)"
                ),
                now=now,
            )
            logger.error(
                "job %s quarantined after failing on %d distinct "
                "worker(s): %s",
                job.id, len(failed_workers), error,
            )
            get_tracer().instant(
                "job_quarantined",
                category="service",
                job_id=job.id,
                failed_workers=len(failed_workers),
            )
            get_metrics().counter(
                "scheduler_quarantines_total",
                help="poison jobs parked after breaking distinct workers",
            ).inc()
            return "quarantined"
        if job.attempts < job.max_attempts:
            delay = self.policy.backoff_for(job.attempts)
            self.store.retry(job.id, error=error, not_before=now + delay)
            get_tracer().instant(
                "job_retry",
                category="service",
                job_id=job.id,
                attempt=job.attempts,
                backoff_seconds=delay,
            )
            get_metrics().counter(
                "scheduler_retries_total",
                help="failed attempts requeued with backoff",
            ).inc()
            return "queued"
        self.store.fail(job.id, error=error, now=now)
        logger.warning(
            "job %s failed permanently after %d attempts: %s",
            job.id, job.attempts, error,
        )
        get_tracer().instant(
            "job_failed",
            category="service",
            job_id=job.id,
            attempts=job.attempts,
        )
        get_metrics().counter(
            "scheduler_failures_total",
            help="jobs failed after exhausting retries",
        ).inc()
        return "failed"

    def recover_orphans(self, now: Optional[float] = None) -> List[str]:
        """Requeue/fail/quarantine jobs abandoned by crashed workers."""
        recovered = self.store.recover_orphans(
            now=now, quarantine_after=self.policy.quarantine_after
        )
        if recovered:
            logger.warning(
                "recovered %d orphaned job(s): %s",
                len(recovered), ", ".join(recovered),
            )
            for job_id in recovered:
                get_tracer().instant(
                    "job_orphan_recovered",
                    category="service",
                    job_id=job_id,
                )
            get_metrics().counter(
                "scheduler_orphans_recovered_total",
                help="jobs reclaimed from crashed workers",
            ).inc(len(recovered))
        return recovered
