"""Service jobs whose config runs the framework's ``batched`` path.

A ``batched=True`` job stacks its component's chunk sweeps inside one
process (``repro.core.batch``).  Served by a worker it must produce a
design **byte-identical** to a direct ``IsingDecomposer`` call with the
same config, keep single-flight dedup through the artifact cache, and
resume bit-identically from a checkpoint after a mid-run crash.
"""

import threading

import pytest

from repro.core import CoreSolverConfig, FrameworkConfig, IsingDecomposer
from repro.obs.metrics import get_metrics
from repro.resilience import FaultPlan, FaultRule, fault_injection
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


def _batched_config(backend=None):
    return FrameworkConfig(
        mode="joint",
        free_size=2,
        n_partitions=2,
        n_rounds=1,
        seed=3,
        batched=True,
        solver=CoreSolverConfig(
            max_iterations=200, n_replicas=2, backend=backend
        ),
    )


@pytest.fixture
def batched_config():
    return _batched_config()


def _drain(tmp_path, specs, label, **kwargs):
    service = DecompositionService(
        tmp_path / label, policy=FAST_POLICY, **kwargs
    )
    jobs = service.submit_batch(specs)
    service.run_until_drained(timeout=300)
    return service, jobs


class TestBatchedArtifactsIdentity:
    @pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
    def test_matches_direct_decompose(
        self, tmp_path, backend
    ):
        config = _batched_config(backend)
        specs = [
            JobSpec(workload=name, n_inputs=6, config=config)
            for name in ("cos", "erf")
        ]
        service, jobs = _drain(tmp_path, specs, "svc")
        for spec, job in zip(specs, jobs):
            assert service.job(job.id).state == "done"
            table = build_workload(spec.workload, n_inputs=6).table
            direct = IsingDecomposer(config).decompose(table)
            assert service.fetch_design_dict(job.id) == (
                result_to_dict(direct)
            )


class TestSingleFlightDedup:
    def test_duplicates_in_one_wave_solve_once(
        self, tmp_path, batched_config
    ):
        """Three identical submissions queued together: one solve, the
        twins resolve through the artifact cache."""
        calls = []
        lock = threading.Lock()

        def counting_decompose(spec, table, progress, should_cancel,
                               **kwargs):
            with lock:
                calls.append(spec.workload)
            return _default_decompose(
                spec, table, progress, should_cancel, **kwargs
            )

        spec = JobSpec(workload="cos", n_inputs=6, config=batched_config)
        service, jobs = _drain(
            tmp_path, [spec] * 3, "dup", decompose_fn=counting_decompose,
        )
        assert [service.job(j.id).state for j in jobs] == ["done"] * 3
        assert calls == ["cos"]
        designs = {
            str(service.fetch_design_dict(j.id)) for j in jobs
        }
        assert len(designs) == 1


class TestCrashInsideBatch:
    def test_mid_batch_crash_resumes_bit_identical(
        self, tmp_path, batched_config
    ):
        """One batched job crashes post-checkpoint; its retry (resuming
        from the checkpoint) must land the same artifact as a clean
        service."""
        specs = [
            JobSpec(workload=name, n_inputs=6, config=batched_config)
            for name in ("cos", "erf")
        ]
        clean, clean_jobs = _drain(tmp_path, specs, "clean")

        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.crash",
                    at_calls=(3,),
                    match="post-checkpoint",
                )
            ],
            seed=1234,
        )
        resumes = get_metrics().counter("service_checkpoint_resumes_total")
        before = resumes.value
        chaos = DecompositionService(tmp_path / "chaos", policy=FAST_POLICY)
        jobs = chaos.submit_batch(specs)
        with fault_injection(plan):
            chaos.run_until_drained(timeout=300)

        assert len(plan.events()) == 1
        assert resumes.value - before == 1
        records = [chaos.job(j.id) for j in jobs]
        assert [r.state for r in records] == ["done", "done"]
        # exactly one job paid a retry
        assert sorted(r.retries for r in records) == [0, 1]
        for clean_job, job in zip(clean_jobs, jobs):
            assert (
                chaos.fetch_design_dict(job.id)
                == clean.fetch_design_dict(clean_job.id)
            )
