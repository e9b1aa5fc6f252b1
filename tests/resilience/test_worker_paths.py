"""Every way to run a job, one suite: the worker-path matrix.

Rows: a pool thread, an autoscaled pool, an isolated local loop, a
remote agent and an isolated remote agent.  All of them are one
``WorkerLoop`` over a local or a remote source, in-thread or with one
child process per attempt, so each row must land the same designs and
the same recovery stories.  Fault counters reset in every attempt
child, so a once-only crash cannot be scoped on the isolated rows;
they get the process stories instead (death, hang-kill, poison
quarantine, attempts exhausted).
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.core.framework import IsingDecomposer
from repro.fleet import PoolAutoscaler, RemoteWorkerAgent
from repro.gateway import DecompositionGateway, GatewayConfig
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.serialization import result_to_dict
from repro.service import (
    DecompositionService,
    JobSpec,
    SchedulerPolicy,
    WorkerPool,
)

ROWS = ("thread", "autoscaled", "isolated", "remote", "isolated-remote")
IN_PROCESS = ("thread", "autoscaled", "remote")
ISOLATED = ("isolated", "isolated-remote")

FAST = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
    quarantine_after=3,
)


def spec_for(config, seed=None, **kwargs):
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return JobSpec(workload="cos", n_inputs=6, config=config, **kwargs)


def direct_bytes(spec):
    """The design document of a direct decompose, as sorted JSON."""
    result = IsingDecomposer(spec.config).decompose(spec.build_table())
    return json.dumps(result_to_dict(result), sort_keys=True)


def stored_bytes(service, job):
    return json.dumps(service.fetch_design_dict(job.id), sort_keys=True)


def drain(row, service):
    """Run ``row``'s worker path over ``service`` until it is drained."""
    if row == "thread":
        service.run_until_drained(timeout=120)
    elif row == "isolated":
        WorkerPool(
            service.scheduler, service.executor, name="iso",
            root=service.root, isolated=True,
        ).run_until_drained(timeout=120)
    elif row == "autoscaled":
        scaler = PoolAutoscaler(
            service.pool, 0, 2,
            interval_seconds=0.02, scale_down_idle_seconds=0.1,
        ).start()
        try:
            deadline = time.monotonic() + 120
            while service.store.pending() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            scaler.stop(timeout=30)
    else:
        config = GatewayConfig(
            port=0, claim_wait_seconds=0.1, claim_poll_seconds=0.02
        )
        with DecompositionGateway(service, config) as gw:
            RemoteWorkerAgent(
                gw.url, worker_id="agent", drain=True, claim_wait=0.1,
                poll_seconds=0.02, isolated=row == "isolated-remote",
            ).run()


@pytest.mark.parametrize("row", ROWS)
def test_two_jobs_land_direct_designs(row, tmp_path, tiny_config):
    specs = [spec_for(tiny_config), spec_for(tiny_config, seed=17)]
    service = DecompositionService(tmp_path / "svc", policy=FAST)
    jobs = [service.submit(spec) for spec in specs]
    drain(row, service)
    for job, spec in zip(jobs, specs):
        record = service.job(job.id)
        assert record.state == "done"
        assert record.attempts == 1
        assert stored_bytes(service, job) == direct_bytes(spec)


@pytest.mark.parametrize("row", IN_PROCESS)
def test_crash_after_checkpoint_resumes(
    row, tmp_path, tiny_config, chaos_seed
):
    """Seam call 1 is the attempt start; calls 2.. follow checkpoint
    writes, so call 3 crashes right after the second checkpoint."""
    spec = spec_for(tiny_config)
    service = DecompositionService(tmp_path / "svc", policy=FAST)
    job = service.submit(spec)
    plan = FaultPlan(
        [FaultRule(site="worker.crash", at_calls=(3,),
                   match="post-checkpoint")],
        seed=chaos_seed,
    )
    with fault_injection(plan):
        drain(row, service)
    record = service.job(job.id)
    assert len(plan.events()) == 1
    assert record.state == "done"
    assert record.attempts == 2
    assert stored_bytes(service, job) == direct_bytes(spec)
    assert service.artifacts.get_checkpoint(job.artifact_key) is None


@pytest.mark.parametrize("row", ISOLATED)
class TestIsolated:
    def test_g0_death_then_lands(
        self, row, tmp_path, tiny_config, chaos_seed
    ):
        spec = spec_for(tiny_config)
        service = DecompositionService(tmp_path / "svc", policy=FAST)
        job = service.submit(spec)
        plan = FaultPlan(
            [FaultRule(site="worker.die", at_calls=(1,), match="-g0")],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            drain(row, service)
        record = service.job(job.id)
        assert record.state == "done"
        assert record.attempts == 2
        assert [name[-3:] for name in record.failed_workers] == ["-g0"]
        assert record.worker is None or record.worker.endswith("-g1")
        assert stored_bytes(service, job) == direct_bytes(spec)

    def test_hung_attempt_is_killed(
        self, row, tmp_path, tiny_config, chaos_seed
    ):
        """Generation 0 sleeps far past its lease without progress; the
        loop kills it and generation 1 lands the job well inside the
        hang."""
        policy = dataclasses.replace(FAST, lease_seconds=0.5)
        spec = spec_for(tiny_config)
        service = DecompositionService(tmp_path / "svc", policy=policy)
        job = service.submit(spec)
        plan = FaultPlan(
            [FaultRule(site="worker.hang", at_calls=(1,), match="-g0",
                       param=30.0)],
            seed=chaos_seed,
        )
        start = time.monotonic()
        with fault_injection(plan):
            drain(row, service)
        assert time.monotonic() - start < 20.0
        record = service.job(job.id)
        assert record.state == "done"
        assert record.attempts == 2
        assert [name[-3:] for name in record.failed_workers] == ["-g0"]
        assert stored_bytes(service, job) == direct_bytes(spec)

    def test_poison_quarantined(
        self, row, tmp_path, tiny_config, chaos_seed
    ):
        service = DecompositionService(tmp_path / "svc", policy=FAST)
        job = service.submit(spec_for(tiny_config, max_attempts=10))
        plan = FaultPlan(
            [FaultRule(site="worker.die", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            drain(row, service)
        record = service.job(job.id)
        assert record.state == "quarantined"
        assert sorted(name[-3:] for name in record.failed_workers) == [
            "-g0", "-g1", "-g2",
        ]
        assert "3 distinct worker(s)" in record.error

    def test_deaths_exhaust_attempts(
        self, row, tmp_path, tiny_config, chaos_seed
    ):
        """Quarantine off: every death still uses up one attempt, so the
        job ends failed and the drain returns."""
        policy = dataclasses.replace(FAST, quarantine_after=None)
        service = DecompositionService(tmp_path / "svc", policy=policy)
        job = service.submit(spec_for(tiny_config, max_attempts=3))
        plan = FaultPlan(
            [FaultRule(site="worker.die", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            drain(row, service)
        record = service.job(job.id)
        assert record.state == "failed"
        assert record.attempts == 3
        assert "attempt process died" in record.error


def test_stopped_pool_never_claims_again(tmp_path, tiny_config):
    """``stop`` returning while a thread is still inside a job must not
    let that thread claim anything afterwards."""
    inside, release = threading.Event(), threading.Event()
    calls = []

    def slow_decompose(spec, table, progress, should_cancel, **kwargs):
        calls.append(spec.config.seed)
        inside.set()
        release.wait(30)
        return IsingDecomposer(spec.config).decompose(table, **kwargs)

    service = DecompositionService(
        tmp_path / "svc", policy=FAST, decompose_fn=slow_decompose
    )
    first = service.submit(spec_for(tiny_config))
    pool = service.serve_forever()
    assert inside.wait(30)
    pool.stop(timeout=0.05)
    second = service.submit(spec_for(tiny_config, seed=17))
    release.set()
    deadline = time.monotonic() + 60
    while service.job(first.id).state != "done":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    time.sleep(0.3)  # many poll intervals for a wrongly resumed loop
    assert service.job(second.id).state == "queued"
    assert calls == [tiny_config.seed]
