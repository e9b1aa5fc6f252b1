"""The remote worker agent end to end.

A gateway with **no local workers** drained by remote agents over
HTTP, with designs byte-identical to a local ``serve`` run, and a
remote worker crashing mid-job whose successor resumes from the
shipped checkpoint bit-identically.  The isolated (``--isolated``)
agent runs in ``tests/resilience/test_worker_paths.py``, next to every
other way to run a job.
"""

import dataclasses
import json

from repro.fleet import RemoteWorkerAgent
from repro.gateway import DecompositionGateway, GatewayConfig
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.service import JobSpec

from tests.fleet.conftest import make_service


def spec_for(fast_config, seed=None):
    config = (
        fast_config
        if seed is None
        else dataclasses.replace(fast_config, seed=seed)
    )
    return JobSpec(workload="cos", n_inputs=6, config=config)


def fast_gateway_config():
    return GatewayConfig(
        port=0, claim_wait_seconds=0.1, claim_poll_seconds=0.02
    )


def make_agent(gw, worker_id, **kwargs):
    kwargs.setdefault("drain", True)
    kwargs.setdefault("claim_wait", 0.1)
    kwargs.setdefault("poll_seconds", 0.02)
    return RemoteWorkerAgent(gw.url, worker_id=worker_id, **kwargs)


def baseline_designs(tmp_path, specs):
    """Designs from an uninterrupted local run in a clean directory."""
    baseline = make_service(tmp_path, name="baseline")
    jobs = [baseline.submit(spec) for spec in specs]
    baseline.run_until_drained(timeout=300)
    return [baseline.fetch_design_dict(job.id) for job in jobs]


class TestRemoteDrain:
    def test_remote_agent_drains_queue_bit_identically(
        self, tmp_path, fast_config
    ):
        """The headline criterion: no local workers anywhere, a remote
        agent drains the queue, artifacts match local execution."""
        specs = [spec_for(fast_config), spec_for(fast_config, seed=17)]
        clean = baseline_designs(tmp_path, specs)

        service = make_service(tmp_path)  # dispatch-only: no pool
        jobs = [service.submit(spec) for spec in specs]
        with DecompositionGateway(service, fast_gateway_config()) as gw:
            stats = make_agent(gw, "remote-a").run()
        assert stats.completed == 2
        assert stats.failed == 0
        assert stats.abandoned == 0
        for job, clean_design in zip(jobs, clean):
            assert service.job(job.id).state == "done"
            assert service.fetch_design_dict(job.id) == clean_design

    def test_duplicate_spec_is_cache_hit(self, tmp_path, fast_config):
        """Submitting a spec whose artifact already exists: the claim
        grant carries the stored envelope, so the remote attempt is a
        cache hit without a single artifact request."""
        service = make_service(tmp_path)
        spec = spec_for(fast_config)
        service.submit(spec)
        access_log = tmp_path / "access.jsonl"
        config = dataclasses.replace(
            fast_gateway_config(), access_log_path=access_log
        )
        with DecompositionGateway(service, config) as gw:
            assert make_agent(gw, "r1").run().completed == 1
            # plain submit welcomes duplicates: a twin job with the
            # same content address, resolved without a second solve
            twin = service.submit(spec)
            stats = make_agent(gw, "r2").run()
        assert stats.completed == 1
        assert stats.cache_hits == 1
        assert service.job(twin.id).cache_hit
        requests = [
            json.loads(line) for line in access_log.read_text().splitlines()
        ]
        assert requests
        assert not [
            entry for entry in requests
            if entry["method"] == "GET" and "artifacts" in entry["path"]
        ]


class TestCrashResume:
    def test_crashed_remote_attempt_resumes_bit_identically(
        self, tmp_path, fast_config
    ):
        """Kill a remote worker mid-job (after a checkpoint shipped):
        the lease routes the job to the next worker, which resumes
        from the gateway-held checkpoint and lands the exact design an
        uninterrupted run produces."""
        spec = spec_for(fast_config)
        (clean_design,) = baseline_designs(tmp_path, [spec])

        service = make_service(tmp_path)
        job = service.submit(spec)
        # seam call 1 is attempt start; calls 2.. are post-checkpoint
        # probes, so at_calls=(3,) dies right after the second
        # component checkpoint reached the gateway
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
        with DecompositionGateway(service, fast_gateway_config()) as gw:
            victim = make_agent(gw, "victim", checkpoint_every=1)
            with fault_injection(plan):
                stats = victim.run(max_jobs=1)
            assert stats.failed == 1
            assert len(plan.events()) == 1
            # the checkpoint survived the crash, server-side
            assert (
                service.artifacts.get_checkpoint(job.artifact_key)
                is not None
            )

            successor = make_agent(gw, "successor", checkpoint_every=1)
            stats = successor.run()
        assert stats.completed == 1
        assert stats.resumed == 1
        record = service.job(job.id)
        assert record.state == "done"
        assert record.attempts == 2
        assert service.fetch_design_dict(job.id) == clean_design
        # checkpoint reaped once the job landed
        assert (
            service.artifacts.get_checkpoint(job.artifact_key) is None
        )
