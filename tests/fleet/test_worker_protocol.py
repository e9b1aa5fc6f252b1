"""The worker-plane HTTP protocol, verb by verb.

Claim/heartbeat/checkpoint/complete/fail against a live gateway: lease
semantics, ownership 409s, empty-claim 204 + ``Retry-After``, the fleet
registry view, and the separate worker rate-limit class.
"""

import dataclasses
import threading
import time

import pytest

from repro.errors import GatewayError
from repro.fleet import FleetClient
from repro.gateway import DecompositionGateway, GatewayConfig
from repro.service import JobSpec

from tests.fleet.conftest import make_service


def spec_for(fast_config, seed=None):
    config = (
        fast_config
        if seed is None
        else dataclasses.replace(fast_config, seed=seed)
    )
    return JobSpec(workload="cos", n_inputs=6, config=config)


def no_wait_config(**overrides):
    """A gateway config whose empty claims answer immediately."""
    defaults = dict(port=0, claim_wait_seconds=0.0)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class TestClaim:
    def test_claim_grants_lease_and_registers_worker(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            grant = client.claim("w1")
            assert grant is not None
            assert grant.job.id == job.id
            assert grant.job.state == "running"
            assert grant.job.worker == "w1"
            assert grant.lease_seconds == pytest.approx(30.0)
            assert grant.checkpoint is None

            # the store agrees, and the registry saw the worker
            assert service.job(job.id).state == "running"
            workers = client.workers()
            assert [w.id for w in workers] == ["w1"]
            assert workers[0].kind == "remote"
            assert workers[0].current_job == job.id

    def test_empty_claim_is_204_with_retry_after(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        with DecompositionGateway(
            service, no_wait_config(claim_retry_after_seconds=2.5)
        ) as gw:
            client = FleetClient(gw.url)
            status, headers, body = client._request(
                "POST", "/v1/workers/claim", {"worker": "idle"}
            )
            assert status == 204
            assert body == b""
            assert headers.get("Retry-After") == "2.5"
            # the typed accessor maps it to None
            assert client.claim("idle") is None
            # even an empty claim registers the worker (liveness ping)
            assert [w.id for w in client.workers()] == ["idle"]

    def test_long_poll_parks_until_work_arrives(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        config = GatewayConfig(
            port=0, claim_wait_seconds=10.0, claim_poll_seconds=0.02
        )
        with DecompositionGateway(service, config) as gw:
            client = FleetClient(gw.url, timeout_seconds=30.0)
            submitted = threading.Timer(
                0.15, lambda: service.submit(spec_for(fast_config))
            )
            submitted.start()
            try:
                grant = client.claim("parked")
            finally:
                submitted.join()
            assert grant is not None
            assert grant.job.state == "running"


class TestOwnership:
    def test_heartbeat_renews_lease(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("w1")
            before = service.job(job.id).lease_expires
            reply = client.heartbeat("w1", job.id)
            assert reply["ok"] is True
            assert service.job(job.id).lease_expires >= before

    def test_non_owner_heartbeat_is_409(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("owner")
            with pytest.raises(GatewayError) as excinfo:
                client.heartbeat("impostor", job.id)
            assert excinfo.value.status == 409
            # the owner is unaffected
            assert client.heartbeat("owner", job.id)["ok"] is True

    def test_heartbeat_unknown_job_is_404(self, tmp_path):
        service = make_service(tmp_path)
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            with pytest.raises(GatewayError) as excinfo:
                client.heartbeat("w1", "no-such-job")
            assert excinfo.value.status == 404


class TestCheckpointAndComplete:
    def test_checkpoint_persists_and_reseeds_next_claim(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        payload = {"format": "fleet-test", "version": 1, "step": 7}
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("w1")
            client.checkpoint("w1", job.id, payload)
            assert (
                service.artifacts.get_checkpoint(job.artifact_key)
                == payload
            )
            # the crashed worker's successor gets the checkpoint with
            # its grant — expire the lease and claim again
            service.scheduler.recover_orphans(now=time.time() + 60.0)
            grant = client.claim("w2")
            assert grant is not None
            assert grant.checkpoint == payload

    def test_complete_lands_artifact_and_result(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        design = {"n_inputs": 6, "luts": [[1, 0], [0, 1]]}
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("w1")
            receipt = client.complete(
                "w1",
                job.id,
                job.artifact_key,
                design=design,
                meta={"source": "test"},
                med=0.0,
                runtime_seconds=0.5,
            )
            assert receipt.result == "completed"
            assert receipt.accepted
            record = service.job(job.id)
            assert record.state == "done"
            assert record.med == 0.0
            assert service.artifacts.get(job.artifact_key)["design"] == (
                design
            )
            assert client.result(job.id)["design"] == design

    def test_complete_wrong_artifact_key_rejected(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("w1")
            with pytest.raises(GatewayError) as excinfo:
                client.complete(
                    "w1", job.id, "0" * 64, design={"n_inputs": 6}
                )
            assert excinfo.value.status == 400
            assert service.job(job.id).state == "running"

    def test_fail_routes_to_retry(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        job = service.submit(spec_for(fast_config))
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            client.claim("w1")
            reply = client.fail("w1", job.id, "ValueError: boom")
            assert reply["result"] == "failed"
            record = service.job(job.id)
            assert record.state == "queued"
            assert record.attempts == 1
            assert "w1" in record.failed_workers
            assert "boom" in record.error

    def test_grant_carries_stored_artifact(self, tmp_path, fast_config):
        """A fresh job's grant has no artifact; a twin of a finished
        job carries the stored envelope."""
        service = make_service(tmp_path)
        spec = spec_for(fast_config)
        job = service.submit(spec)
        design = {"n_inputs": 6, "luts": [[1, 0]]}
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            grant = client.claim("w1")
            assert grant.artifact is None
            client.complete("w1", job.id, job.artifact_key, design=design)
            service.submit(spec)
            twin = client.claim("w1")
            assert twin.artifact["design"] == design

    def test_unknown_worker_verb_is_404(self, tmp_path):
        service = make_service(tmp_path)
        with DecompositionGateway(service, no_wait_config()) as gw:
            client = FleetClient(gw.url)
            with pytest.raises(GatewayError) as excinfo:
                client._request_json(
                    "POST", "/v1/workers/launch", {"worker": "w"}
                )
            assert excinfo.value.status == 404


class TestRateLimitClasses:
    def test_submitter_limit_does_not_throttle_workers(
        self, tmp_path, fast_config
    ):
        """A starved submitter bucket must not slow the claim loop."""
        service = make_service(tmp_path)
        config = no_wait_config(
            rate_limit_per_second=0.001, rate_limit_burst=1
        )
        with DecompositionGateway(service, config) as gw:
            from repro.gateway import RetryPolicy

            client = FleetClient(
                gw.url, retry=RetryPolicy(max_retries=0)
            )
            client.submit(spec_for(fast_config))  # burns the only token
            with pytest.raises(GatewayError) as excinfo:
                client.submit(spec_for(fast_config, seed=99))
            assert excinfo.value.status == 429
            # the worker plane draws from its own bucket: still open
            assert client.claim("w1") is not None
            for _ in range(4):
                client.claim("w1")  # empty claims, but never a 429

    def test_worker_limit_does_not_throttle_submitters(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        config = no_wait_config(
            worker_rate_limit_per_second=0.001,
            worker_rate_limit_burst=1,
        )
        with DecompositionGateway(service, config) as gw:
            from repro.gateway import RetryPolicy

            client = FleetClient(
                gw.url, retry=RetryPolicy(max_retries=0)
            )
            client.claim("w1")  # burns the worker bucket
            with pytest.raises(GatewayError) as excinfo:
                client.claim("w1")
            assert excinfo.value.status == 429
            # submissions draw from the (unlimited) submitter bucket
            for seed in range(5):
                client.submit(spec_for(fast_config, seed=seed))
