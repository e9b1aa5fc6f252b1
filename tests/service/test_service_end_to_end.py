"""End-to-end service tests: the ISSUE's acceptance scenario.

Submit a batch including exact duplicates and one job whose worker
crashes on its first attempt; the service must retry the crash, dedup
the duplicates through the artifact cache, and return designs that are
bit-for-bit identical to direct ``IsingDecomposer`` calls with the same
seed.  Timeouts, orphan resume, and the determinism-under-retry
guarantee are exercised here too.
"""

import threading
import time

import pytest

from repro.core import IsingDecomposer
from repro.errors import OperationCancelled, ServiceError
from repro.serialization import result_to_dict
from repro.service import (
    DecompositionService,
    JobSpec,
    SchedulerPolicy,
)
from repro.service.worker import _default_decompose
from repro.workloads import build_workload


FAST_POLICY = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
)


class CrashOnce:
    """Decompose wrapper that raises on the first call per workload."""

    def __init__(self, crash_workloads):
        self.remaining = dict(crash_workloads)
        self.lock = threading.Lock()
        self.crashes = 0

    def __call__(self, spec, table, progress, should_cancel,
                 resume=None, checkpoint_hook=None):
        with self.lock:
            if self.remaining.get(spec.workload, 0) > 0:
                self.remaining[spec.workload] -= 1
                self.crashes += 1
                raise RuntimeError("injected worker crash")
        return _default_decompose(
            spec, table, progress, should_cancel,
            resume=resume, checkpoint_hook=checkpoint_hook,
        )


class TestAcceptanceScenario:
    def test_batch_with_duplicates_and_crash(self, tmp_path, fast_config):
        crasher = CrashOnce({"erf": 1})
        service = DecompositionService(
            tmp_path / "svc",
            n_workers=3,
            policy=FAST_POLICY,
            decompose_fn=crasher,
        )
        specs = (
            [JobSpec(workload="cos", n_inputs=6, config=fast_config)] * 3
            + [JobSpec(workload="erf", n_inputs=6, config=fast_config)]
            + [JobSpec(workload="tan", n_inputs=6, config=fast_config)]
        )
        jobs = service.submit_batch(specs)
        service.run_until_drained(timeout=120)

        records = [service.job(job.id) for job in jobs]
        assert [record.state for record in records] == ["done"] * 5
        assert crasher.crashes == 1

        # the crashed job retried exactly once and was recorded as such
        erf_record = records[3]
        assert erf_record.attempts == 2
        assert erf_record.retries == 1

        # duplicates were deduped: exactly one cos solve hit the solver
        summary = service.status()
        assert summary["jobs"]["done"] == 5
        assert summary["jobs"]["failed"] == 0
        assert summary["cache"]["hits"] == 2
        assert summary["cache"]["hit_rate"] == pytest.approx(0.4)
        assert summary["cache"]["n_artifacts"] == 3
        assert summary["retries"]["total"] == 1

        # every returned design is bit-for-bit the direct framework call
        for record, workload in zip(
            records, ["cos", "cos", "cos", "erf", "tan"]
        ):
            table = build_workload(workload, n_inputs=6).table
            direct = IsingDecomposer(fast_config).decompose(table)
            assert service.fetch_design_dict(record.id) == (
                result_to_dict(direct)
            ), f"{workload} design diverged from the direct call"

    def test_duplicate_after_drain_is_instant_cache_hit(
        self, tmp_path, fast_config
    ):
        service = DecompositionService(
            tmp_path / "svc", policy=FAST_POLICY
        )
        spec = JobSpec(workload="cos", n_inputs=6, config=fast_config)
        first = service.submit(spec)
        service.run_until_drained(timeout=60)
        second = service.submit(spec)
        service.run_until_drained(timeout=60)
        first_record = service.job(first.id)
        second_record = service.job(second.id)
        assert not first_record.cache_hit
        assert second_record.cache_hit
        assert service.fetch_design_dict(first.id) == (
            service.fetch_design_dict(second.id)
        )


class TestTimeouts:
    def test_timeout_counts_attempts_then_fails(self, tmp_path,
                                                fast_config):
        service = DecompositionService(
            tmp_path / "svc", policy=FAST_POLICY
        )
        spec = JobSpec(
            workload="cos",
            n_inputs=6,
            config=fast_config,
            timeout_seconds=1e-9,  # expires before the attempt starts
            max_attempts=2,
        )
        job = service.submit(spec)
        service.run_until_drained(timeout=60)
        record = service.job(job.id)
        assert record.state == "failed"
        assert record.attempts == 2
        assert "timeout" in record.error
        with pytest.raises(ServiceError, match="failed"):
            service.fetch_design_dict(job.id)

    def test_cancel_hook_aborts_decompose(self, fast_config):
        table = build_workload("cos", n_inputs=6).table
        with pytest.raises(OperationCancelled):
            IsingDecomposer(fast_config).decompose(
                table, should_cancel=lambda: True
            )


class TestCrashRecovery:
    def test_orphaned_job_resumes_identically(self, tmp_path,
                                              fast_config):
        """Simulate a worker process dying mid-job: the claimed job's
        lease expires, a later serve pass recovers and re-runs it, and
        the result matches the never-crashed run bit-for-bit."""
        root = tmp_path / "svc"
        service = DecompositionService(
            root,
            policy=SchedulerPolicy(
                lease_seconds=0.05,
                retry_backoff_seconds=0.01,
                poll_interval_seconds=0.01,
            ),
        )
        spec = JobSpec(workload="cos", n_inputs=6, config=fast_config)
        job = service.submit(spec)
        # a "worker" claims the job and dies (no heartbeat, no result)
        claimed = service.scheduler.claim("doomed-worker")
        assert claimed.id == job.id
        time.sleep(0.1)  # let the lease lapse

        # a fresh service over the same directory picks up the orphan
        resumed = DecompositionService(root, policy=FAST_POLICY)
        assert resumed.store.get(job.id).state == "running"
        resumed.run_until_drained(timeout=60)
        record = resumed.store.get(job.id)
        assert record.state == "done"
        assert record.attempts == 2  # doomed claim + successful rerun

        table = build_workload("cos", n_inputs=6).table
        direct = IsingDecomposer(fast_config).decompose(table)
        assert resumed.fetch_design_dict(job.id) == result_to_dict(direct)

    def test_exhausted_orphan_is_failed_not_looped(self, tmp_path,
                                                   fast_config):
        service = DecompositionService(
            tmp_path / "svc",
            policy=SchedulerPolicy(
                lease_seconds=0.05,
                retry_backoff_seconds=0.01,
                poll_interval_seconds=0.01,
            ),
        )
        spec = JobSpec(workload="cos", n_inputs=6, config=fast_config,
                       max_attempts=1)
        job = service.submit(spec)
        service.scheduler.claim("doomed-worker")
        time.sleep(0.1)
        recovered = service.scheduler.recover_orphans()
        assert recovered == [job.id]
        assert service.job(job.id).state == "failed"


class TestDeterminismAcrossWorkerCounts:
    def test_worker_pool_size_never_changes_results(self, tmp_path,
                                                    fast_config):
        designs = {}
        for n_workers in (1, 3):
            service = DecompositionService(
                tmp_path / f"svc-{n_workers}",
                n_workers=n_workers,
                policy=FAST_POLICY,
            )
            jobs = service.submit_batch(
                [
                    JobSpec(workload=name, n_inputs=6, config=fast_config)
                    for name in ("cos", "erf")
                ]
            )
            service.run_until_drained(timeout=120)
            designs[n_workers] = [
                service.fetch_design_dict(job.id) for job in jobs
            ]
        assert designs[1] == designs[3]
