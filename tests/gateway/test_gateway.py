"""Gateway end-to-end and robustness tests (live ThreadingHTTPServer).

The acceptance scenario: ``GatewayClient`` submit→poll→fetch against a
real HTTP server must yield a design *bit-identical* (same artifact
key, same design document) to a direct ``IsingDecomposer.decompose``
with the same seed.  Around it: idempotent resubmission, queue-depth
backpressure with ``Retry-After`` and zero job loss, bearer auth, the
per-client rate limit, strict JobSpecV1 validation, size limits, and
client retry/backoff behavior.
"""

import dataclasses
import json
import urllib.error
import urllib.request

import pytest

from repro.core import IsingDecomposer
from repro.errors import GatewayError
from repro.gateway import (
    DecompositionGateway,
    GatewayClient,
    GatewayConfig,
    RetryPolicy,
)
from repro.obs.metrics import get_metrics
from repro.serialization import result_to_dict
from repro.service import (
    DecompositionService,
    JobSpec,
    SchedulerPolicy,
    artifact_key,
)
from repro.workloads import build_workload

FAST_POLICY = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
)

NO_RETRY = RetryPolicy(max_retries=0)


def make_service(tmp_path, n_workers=2):
    return DecompositionService(
        tmp_path / "svc", n_workers=n_workers, policy=FAST_POLICY
    )


def spec_for(fast_config, seed=None, workload="cos"):
    config = (
        fast_config
        if seed is None
        else dataclasses.replace(fast_config, seed=seed)
    )
    return JobSpec(workload=workload, n_inputs=6, config=config)


class TestEndToEnd:
    def test_submit_poll_fetch_matches_direct_decompose(
        self, tmp_path, fast_config
    ):
        """The ISSUE acceptance criterion: remote round trip is
        bit-identical to the in-process framework call."""
        service = make_service(tmp_path)
        spec = spec_for(fast_config)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url)
            job, deduplicated = client.submit(spec)
            assert not deduplicated
            assert job.state == "queued"

            # same content address as a local submission would get
            table = build_workload("cos", n_inputs=6).table
            assert job.artifact_key == artifact_key(table, fast_config)

            pool = service.serve_forever()
            try:
                record = client.wait(job.id, timeout_seconds=120)
            finally:
                pool.stop()
            assert record.state == "done"

            remote_design = client.fetch_design_dict(job.id)
            direct = IsingDecomposer(fast_config).decompose(table)
            assert remote_design == result_to_dict(direct)

            # the envelope carries the provenance the service wrote
            envelope = client.result(job.id)
            assert envelope["design"] == remote_design

    def test_resubmission_is_idempotent(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        spec = spec_for(fast_config)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url)
            first, dedup_first = client.submit(spec)
            second, dedup_second = client.submit(spec)
            assert not dedup_first
            assert dedup_second
            assert first.id == second.id
            # a different seed is new work, not a duplicate
            third, dedup_third = client.submit(
                spec_for(fast_config, seed=99)
            )
            assert not dedup_third
            assert third.id != first.id

    def test_status_and_jobs_and_healthz(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["pending"] == 0
            client.submit(spec_for(fast_config))
            assert client.status()["jobs"]["queued"] == 1
            jobs = client.jobs()
            assert len(jobs) == 1
            assert jobs[0].spec.workload == "cos"
            assert client.jobs(state="done") == []

    def test_metrics_exposition(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url)
            client.healthz()
            text = client.metrics_text()
            assert "repro_service_jobs_queued" in text
            assert "repro_gateway_requests" in text

    def test_unknown_job_is_404_and_unfinished_result_is_409(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            with pytest.raises(GatewayError) as excinfo:
                client.job("job-does-not-exist")
            assert excinfo.value.status == 404
            job, _ = client.submit(spec_for(fast_config))
            with pytest.raises(GatewayError) as excinfo:
                client.result(job.id)
            assert excinfo.value.status == 409
            assert "queued" in str(excinfo.value)

    def test_graceful_stop_releases_the_port(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        gw = DecompositionGateway(service, GatewayConfig(port=0))
        gw.start()
        client = GatewayClient(gw.url, retry=NO_RETRY)
        assert client.healthz()["status"] == "ok"
        gw.stop()
        with pytest.raises(GatewayError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


class TestBackpressure:
    def test_full_queue_returns_503_with_retry_after_and_no_job_loss(
        self, tmp_path, fast_config
    ):
        """Saturate the queue (no workers running): accepted jobs get
        201, overflow gets 503 + Retry-After, dedup still works, and
        once the queue drains everything completes — nothing is lost."""
        service = make_service(tmp_path)
        config = GatewayConfig(
            port=0, max_queue_depth=2, retry_after_seconds=7.5
        )
        with DecompositionGateway(service, config) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            accepted = [
                client.submit(spec_for(fast_config, seed=seed))[0]
                for seed in (1, 2)
            ]
            with pytest.raises(GatewayError) as excinfo:
                client.submit(spec_for(fast_config, seed=3))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == pytest.approx(7.5)

            # resubmitting *queued* work still succeeds on a full queue
            twin, deduplicated = client.submit(
                spec_for(fast_config, seed=1)
            )
            assert deduplicated
            assert twin.id == accepted[0].id

            # the rejection lost nothing: both accepted jobs are intact
            assert service.store.pending() == 2
            service.run_until_drained(timeout=120)
            for job in accepted:
                assert client.job(job.id).state == "done"

            # ... and the rejected spec submits cleanly afterwards
            retried, deduplicated = client.submit(
                spec_for(fast_config, seed=3)
            )
            assert not deduplicated
            service.run_until_drained(timeout=120)
            assert client.job(retried.id).state == "done"

    def test_client_backoff_honors_retry_after(self, tmp_path,
                                               fast_config):
        """With retries enabled, a 503 is retried after at least the
        server's Retry-After hint, and the retry can succeed."""
        service = make_service(tmp_path)
        config = GatewayConfig(
            port=0, max_queue_depth=1, retry_after_seconds=0.05
        )
        sleeps = []
        with DecompositionGateway(service, config) as gw:
            blocker, _ = GatewayClient(gw.url, retry=NO_RETRY).submit(
                spec_for(fast_config, seed=1)
            )

            def sleep_and_drain(seconds):
                sleeps.append(seconds)
                service.run_until_drained(timeout=120)  # queue frees up

            client = GatewayClient(
                gw.url,
                retry=RetryPolicy(
                    max_retries=2, backoff_base_seconds=0.001
                ),
                sleep=sleep_and_drain,
            )
            job, _ = client.submit(spec_for(fast_config, seed=2))
            assert job.state == "queued"
        assert sleeps, "the 503 should have triggered a backoff sleep"
        assert sleeps[0] >= 0.05  # Retry-After wins over the tiny base
        assert service.store.get(blocker.id).state == "done"


class TestAuthAndRateLimit:
    def test_bearer_auth(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        config = GatewayConfig(port=0, auth_token="sesame")
        with DecompositionGateway(service, config) as gw:
            anonymous = GatewayClient(gw.url, retry=NO_RETRY)
            # healthz stays open for probes
            assert anonymous.healthz()["status"] == "ok"
            with pytest.raises(GatewayError) as excinfo:
                anonymous.jobs()
            assert excinfo.value.status == 401
            wrong = GatewayClient(gw.url, token="friend", retry=NO_RETRY)
            with pytest.raises(GatewayError) as excinfo:
                wrong.jobs()
            assert excinfo.value.status == 401
            right = GatewayClient(gw.url, token="sesame", retry=NO_RETRY)
            assert right.jobs() == []
            job, _ = right.submit(spec_for(fast_config))
            assert job.state == "queued"

    def test_rate_limit_returns_429_with_retry_after(self, tmp_path):
        service = make_service(tmp_path)
        config = GatewayConfig(
            port=0, rate_limit_per_second=0.001, rate_limit_burst=2
        )
        with DecompositionGateway(service, config) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            client.jobs()
            client.jobs()  # burst exhausted
            with pytest.raises(GatewayError) as excinfo:
                client.jobs()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0


class TestValidation:
    def _post(self, url, payload):
        data = json.dumps(payload).encode()
        request = urllib.request.Request(
            f"{url}/v1/jobs",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_strict_jobspec_rejections(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        wire = spec_for(fast_config).to_wire()
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            status, body = self._post(gw.url, {**wire, "surprise": 1})
            assert status == 400
            assert "surprise" in body["error"]["message"]
            assert body["error"]["code"] == "invalid_request"

            status, body = self._post(
                gw.url, {**wire, "schema_version": 999}
            )
            assert status == 400
            assert "schema_version" in body["error"]["message"]

            status, body = self._post(gw.url, {"hello": "world"})
            assert status == 400
            assert "repro-jobspec" in body["error"]["message"]

            # nothing slipped into the queue
            assert service.store.pending() == 0

    def test_retired_partition_field(self, tmp_path, fast_config):
        """Older builds sent ``"partition": null`` with every spec; that
        still enqueues, while any block is an ``invalid_request``."""
        service = make_service(tmp_path)
        wire = spec_for(fast_config).to_wire()
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            status, body = self._post(
                gw.url, {**wire, "partition": {"k": 2}}
            )
            assert status == 400
            assert body["error"]["code"] == "invalid_request"
            assert "partition" in body["error"]["message"]
            assert service.store.pending() == 0

            status, body = self._post(gw.url, {**wire, "partition": None})
            assert status == 201
            assert body["job"]["artifact_key"] == artifact_key(
                build_workload("cos", n_inputs=6).table, fast_config
            )

    def test_invalid_json_and_oversized_bodies(self, tmp_path,
                                               fast_config):
        service = make_service(tmp_path)
        config = GatewayConfig(port=0, max_request_bytes=256)
        with DecompositionGateway(service, config) as gw:
            request = urllib.request.Request(
                f"{gw.url}/v1/jobs", data=b"{not json", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400

            big = json.dumps(spec_for(fast_config).to_wire()).encode()
            assert len(big) > 256
            request = urllib.request.Request(
                f"{gw.url}/v1/jobs", data=big, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 413

    def test_unknown_endpoint_is_404(self, tmp_path):
        service = make_service(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            with pytest.raises(GatewayError) as excinfo:
                client._request_json("GET", "/v2/everything")
            assert excinfo.value.status == 404


class _HungUpWriter:
    """A response stream whose client has already disconnected."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClientDisconnect:
    def test_vanished_client_is_counted_and_logged(self, tmp_path):
        service = make_service(tmp_path)
        log_path = tmp_path / "access.jsonl"
        config = GatewayConfig(port=0, access_log_path=log_path)
        metric = get_metrics().counter("gateway_client_disconnects_total")
        before = metric.value
        with DecompositionGateway(service, config) as gw:
            handler_class = gw._httpd.RequestHandlerClass
            handler = handler_class.__new__(handler_class)
            handler.client_address = ("127.0.0.1", 50000)
            handler.command = "GET"
            handler.path = "/v1/healthz"
            handler.request_version = "HTTP/1.1"
            handler.requestline = "GET /v1/healthz HTTP/1.1"
            handler.close_connection = False
            handler.wfile = _HungUpWriter()
            handler.do_GET()  # must not raise
            assert handler.close_connection
        assert metric.value == before + 1
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert [
            (e["path"], e["status"], e["bytes_out"]) for e in entries
        ] == [("/v1/healthz", 200, 0)]


class TestAccessLog:
    def test_jsonl_access_log_records_requests(self, tmp_path,
                                               fast_config):
        service = make_service(tmp_path)
        log_path = tmp_path / "access.jsonl"
        config = GatewayConfig(port=0, access_log_path=log_path)
        with DecompositionGateway(service, config) as gw:
            client = GatewayClient(gw.url)
            client.healthz()
            client.submit(spec_for(fast_config))
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(lines) == 2
        assert lines[0]["path"] == "/v1/healthz"
        assert lines[0]["status"] == 200
        assert lines[1]["method"] == "POST"
        assert lines[1]["status"] == 201
        assert all(
            entry["duration_ms"] >= 0 and entry["bytes_out"] > 0
            for entry in lines
        )
