"""The gateway HTTP server (stdlib ``http.server``, threaded).

:class:`DecompositionGateway` wraps a
:class:`~repro.service.DecompositionService` in a
:class:`~http.server.ThreadingHTTPServer`.  The gateway is a *front
end* only — it never executes jobs itself; workers are the service's
business (run them in the same process via ``serve --http``, or in any
other process sharing the service directory).

Request handling order for ``POST /v1/jobs`` is deliberate::

    auth -> rate limit -> size limit -> parse (strict JobSpecV1)
         -> idempotent dedup -> queue-depth backpressure -> enqueue

Dedup runs *before* backpressure so a resubmission of finished (or
already-queued) work still succeeds on a saturated queue — the client
gets its twin back instead of a useless 503, and no capacity is spent.

Every response is JSON with a correct ``Content-Length``.  Rejections
all use one canonical envelope —
``{"error": {"code", "message", "retry_after"?}, "status": ...}`` —
across every ``/v1/*`` endpoint (``code`` is a stable slug such as
``rate_limited`` or ``overloaded``; the top-level ``status`` mirror is
kept for legacy readers), and 429/503 additionally carry a
``Retry-After`` header the client's backoff honors.
"""

from __future__ import annotations

import hmac
import json
import logging
import sqlite3
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Union
from urllib.parse import parse_qs, urlsplit

from repro._version import package_version
from repro.errors import (
    JobNotFound,
    ReproError,
    ServiceError,
    ShardUnavailableError,
)
from repro.obs.exporters import PROMETHEUS_CONTENT_TYPE
from repro.obs.metrics import get_metrics
from repro.service.service import DecompositionService
from repro.service.spec import JobSpec, spec_artifact_key
from repro.service.telemetry import prometheus_exposition, service_summary

__all__ = ["DecompositionGateway", "GatewayConfig", "TokenBucket"]

logger = logging.getLogger(__name__)

#: request-latency histogram boundaries (seconds)
_LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: default machine-readable error code per HTTP status (canonical
#: envelope); handlers override with a more specific slug where one
#: exists (e.g. 503 ``overloaded`` vs ``store_unavailable``)
_ERROR_CODES = {
    400: "invalid_request",
    401: "unauthorized",
    404: "not_found",
    409: "conflict",
    411: "length_required",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    503: "unavailable",
}


@dataclass(frozen=True)
class GatewayConfig:
    """Tunable gateway policy; defaults suit a trusted local network.

    Attributes
    ----------
    host, port:
        Bind address.  Port 0 binds an ephemeral port (tests); the
        resolved port is on :attr:`DecompositionGateway.port`.
    auth_token:
        When set, every endpoint except ``/v1/healthz`` requires
        ``Authorization: Bearer <token>`` (constant-time comparison).
        The health endpoint stays open for load-balancer probes.
    rate_limit_per_second, rate_limit_burst:
        Per-client token bucket.  ``None`` disables rate limiting.
        Clients are keyed by peer address.
    max_queue_depth:
        Backpressure threshold: when queued+running jobs reach this,
        new (non-deduplicated) submissions get 503 + ``Retry-After``.
    max_request_bytes:
        Request bodies above this are rejected with 413 before parsing.
    request_timeout_seconds:
        Socket timeout while reading one request; a stalled client is
        dropped instead of pinning a handler thread.
    retry_after_seconds:
        The ``Retry-After`` hint attached to 503 backpressure responses
        (rate-limit 429s compute their own from the bucket deficit).
    access_log_path:
        When set, one JSON line per request is appended here
        (timestamp, client, method, path, status, duration, bytes).
    claim_wait_seconds:
        How long ``POST /v1/workers/claim`` long-polls an empty queue
        before answering 204 + ``Retry-After`` (0 disables long-poll).
        Callers may lower (never raise) this per request with a
        ``wait`` field in the claim body.
    claim_poll_seconds:
        Store re-check interval inside the claim long-poll.
    claim_retry_after_seconds:
        The ``Retry-After`` hint on empty 204 claim responses.
    worker_rate_limit_per_second, worker_rate_limit_burst:
        Separate token-bucket class for the ``/v1/workers/*`` plane, so
        a hot claim loop never burns the submitter budget (and vice
        versa).  ``None`` disables limiting for worker endpoints —
        the long-poll already paces empty-queue claims.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    auth_token: Optional[str] = None
    rate_limit_per_second: Optional[float] = None
    rate_limit_burst: int = 10
    max_queue_depth: int = 64
    max_request_bytes: int = 1 << 20
    request_timeout_seconds: float = 30.0
    retry_after_seconds: float = 2.0
    access_log_path: Optional[Union[str, Path]] = None
    claim_wait_seconds: float = 20.0
    claim_poll_seconds: float = 0.05
    claim_retry_after_seconds: float = 1.0
    worker_rate_limit_per_second: Optional[float] = None
    worker_rate_limit_burst: int = 20


class TokenBucket:
    """Classic token bucket; thread-safe; injectable clock for tests."""

    def __init__(
        self, rate: float, burst: int, clock=time.monotonic
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ServiceError(
                f"rate and burst must be positive, got {rate}/{burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Take one token.  Returns 0.0 on success, else the seconds
        until a token becomes available (the ``Retry-After`` hint).
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._updated) * self.rate,
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class _AccessLog:
    """Thread-safe JSONL access log (line-buffered append)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


class DecompositionGateway:
    """HTTP front end over one decomposition service (module docs).

    Usable blocking (:meth:`serve_forever`), backgrounded
    (:meth:`start` / :meth:`stop`), or as a context manager::

        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url)
            ...

    :meth:`stop` is a *graceful drain*: it stops accepting, then joins
    every in-flight handler thread before returning (the underlying
    ``ThreadingHTTPServer`` runs with non-daemonic handler threads and
    ``block_on_close``).
    """

    def __init__(
        self,
        service: DecompositionService,
        config: Optional[GatewayConfig] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else GatewayConfig()
        self._access_log = (
            _AccessLog(self.config.access_log_path)
            if self.config.access_log_path is not None
            else None
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._metrics = get_metrics()
        self._thread: Optional[threading.Thread] = None
        # set before shutdown so in-flight claim long-polls return
        # promptly instead of pinning the graceful drain
        self._stopping = threading.Event()
        handler = _build_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        # graceful drain: track handler threads and join them on close
        self._httpd.daemon_threads = False
        self._httpd.block_on_close = True

    # -- addressing ----------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (resolves config port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.config.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "DecompositionGateway":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise ServiceError("gateway already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="gateway-accept",
            daemon=True,
        )
        self._thread.start()
        logger.info("gateway listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or Ctrl-C)."""
        logger.info("gateway listening on %s", self.url)
        self._httpd.serve_forever()

    def request_drain(self) -> None:
        """Wake parked claim long-polls without tearing anything down.

        Signal-handler safe (sets one event, no locks, no joins): the
        CLI's SIGTERM hook calls this *synchronously in signal
        context* so every parked ``/v1/workers/claim`` long-poll
        returns 204 + Retry-After immediately, instead of holding its
        poll deadline while the interpreter unwinds toward
        :meth:`stop`.  Idempotent; :meth:`stop` implies it.
        """
        self._stopping.set()

    def stop(self) -> None:
        """Stop accepting, drain in-flight handlers, release the port."""
        self.request_drain()
        self._httpd.shutdown()
        self._httpd.server_close()  # joins handler threads
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._access_log is not None:
            self._access_log.close()

    def __enter__(self) -> "DecompositionGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- shared per-request machinery ----------------------------------

    def bucket_for(
        self, client: str, worker: bool = False
    ) -> Optional[TokenBucket]:
        """The rate-limit bucket for one peer (``None`` — unlimited).

        ``worker=True`` selects the separate ``/v1/workers/*`` bucket
        class (own rate/burst config, own table key) — the worker plane
        and the submitter plane never draw from each other's budget.
        """
        if worker:
            rate = self.config.worker_rate_limit_per_second
            burst = self.config.worker_rate_limit_burst
            key = f"worker:{client}"
        else:
            rate = self.config.rate_limit_per_second
            burst = self.config.rate_limit_burst
            key = client
        if rate is None:
            return None
        with self._buckets_lock:
            # bound the table: a scrape-happy network of ephemeral
            # clients must not grow this dict without limit
            if len(self._buckets) > 4096:
                self._buckets.clear()
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(rate, burst)
                self._buckets[key] = bucket
            return bucket

    def record(
        self,
        *,
        client: str,
        method: str,
        path: str,
        status: int,
        duration_seconds: float,
        bytes_out: int,
    ) -> None:
        """Account one finished request (metrics + access log)."""
        self._metrics.counter(
            "gateway_requests", help="HTTP requests handled"
        ).inc()
        if status >= 500:
            self._metrics.counter(
                "gateway_responses_5xx", help="server-error responses"
            ).inc()
        elif status >= 400:
            self._metrics.counter(
                "gateway_responses_4xx", help="client-error responses"
            ).inc()
        self._metrics.histogram(
            "gateway_request_seconds",
            buckets=_LATENCY_BUCKETS,
            help="request wall time",
        ).observe(duration_seconds)
        if self._access_log is not None:
            self._access_log.write(
                {
                    "ts": time.time(),
                    "client": client,
                    "method": method,
                    "path": path,
                    "status": status,
                    "duration_ms": round(duration_seconds * 1000.0, 3),
                    "bytes_out": bytes_out,
                }
            )


def _build_handler(gateway: DecompositionGateway):
    """Bind a ``BaseHTTPRequestHandler`` subclass to one gateway."""

    config = gateway.config
    service = gateway.service

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-gateway/{package_version()}"
        timeout = config.request_timeout_seconds

        # -- plumbing --------------------------------------------------

        def log_message(self, fmt, *args):  # stdlib default spams stderr
            logger.debug("%s %s", self.address_string(), fmt % args)

        def _finish(self, status: int, body: bytes,
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None) -> None:
            """Write one response and account it.

            A client that hung up before reading its response (an agent
            stopped mid-claim, a timed-out submitter) is a counted
            disconnect, not a handler traceback; the request is still
            recorded, with no bytes out.
            """
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra_headers or {}).items():
                self.send_header(key, value)
            bytes_out = len(body)
            try:  # the first two calls that touch the socket
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                bytes_out = 0
                self.close_connection = True
                self._metrics_inc(
                    "gateway_client_disconnects_total",
                    "responses abandoned because the client went away",
                )
                logger.debug(
                    "client %s went away before its %s %s response",
                    self.client_address[0], self.command, self.path,
                )
            gateway.record(
                client=self.client_address[0],
                method=self.command,
                path=self.path,
                status=status,
                duration_seconds=time.perf_counter() - self._started,
                bytes_out=bytes_out,
            )

        def _json(self, status: int, payload: Dict,
                  extra_headers: Optional[Dict[str, str]] = None) -> None:
            self._finish(
                status,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                extra_headers=extra_headers,
            )

        def _error(self, status: int, message: str,
                   retry_after: Optional[float] = None,
                   code: Optional[str] = None) -> None:
            """One canonical error envelope for every rejection.

            ``{"error": {"code", "message", "retry_after"?},
            "status": ...}`` — ``code`` defaults from the status, the
            top-level ``status`` mirror keeps legacy readers working,
            and any ``retry_after`` is surfaced both in the envelope
            and as a ``Retry-After`` header.
            """
            headers = (
                {"Retry-After": f"{retry_after:g}"}
                if retry_after is not None
                else None
            )
            envelope: Dict = {
                "code": code or _ERROR_CODES.get(status, "error"),
                "message": message,
            }
            if retry_after is not None:
                envelope["retry_after"] = retry_after
            self._json(
                status,
                {"error": envelope, "status": status},
                extra_headers=headers,
            )

        # -- gatekeeping (auth, rate limit) ----------------------------

        def _authorized(self) -> bool:
            if config.auth_token is None:
                return True
            header = self.headers.get("Authorization", "")
            expected = f"Bearer {config.auth_token}"
            return hmac.compare_digest(
                header.encode("utf-8"), expected.encode("utf-8")
            )

        def _gate(self, worker: bool = False) -> bool:
            """Auth + rate limit; sends the rejection itself on False.

            ``worker=True`` draws from the worker-plane bucket class
            instead of the submitter one (see ``bucket_for``).
            """
            if not self._authorized():
                self._metrics_inc("gateway_rejected_auth",
                                  "requests rejected by bearer auth")
                self._error(401, "missing or invalid bearer token")
                return False
            bucket = gateway.bucket_for(
                self.client_address[0], worker=worker
            )
            if bucket is not None:
                wait = bucket.acquire()
                if wait > 0.0:
                    self._metrics_inc(
                        "gateway_rejected_ratelimit",
                        "requests rejected by the token bucket",
                    )
                    self._error(
                        429,
                        "rate limit exceeded",
                        retry_after=max(wait, 0.001),
                    )
                    return False
            return True

        @staticmethod
        def _metrics_inc(name: str, help: str) -> None:
            gateway._metrics.counter(name, help=help).inc()

        # -- routing ---------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            self._started = time.perf_counter()
            parts = urlsplit(self.path)
            segments = [s for s in parts.path.split("/") if s]
            try:
                if segments == ["v1", "healthz"]:
                    # liveness stays unauthenticated (LB probes)
                    self._handle_healthz()
                    return
                if not self._gate():
                    return
                if segments == ["v1", "metrics"]:
                    self._handle_metrics()
                elif segments == ["v1", "status"]:
                    self._json(200, service_summary(
                        service.store, service.artifacts))
                elif segments == ["v1", "workers"]:
                    self._handle_workers()
                elif segments == ["v1", "jobs"]:
                    self._handle_list(parse_qs(parts.query))
                elif len(segments) == 3 and segments[:2] == ["v1", "jobs"]:
                    self._handle_job(segments[2])
                elif (len(segments) == 4 and segments[:2] == ["v1", "jobs"]
                      and segments[3] == "result"):
                    self._handle_result(segments[2])
                else:
                    self._error(404, f"no such endpoint: {parts.path}")
            except JobNotFound as exc:
                self._error(404, str(exc))
            except ShardUnavailableError as exc:
                self._shard_unavailable(exc)
            except ReproError as exc:
                self._error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 — boundary
                logger.exception("gateway GET %s failed", self.path)
                self._error(500, f"internal error: {exc}")

        def do_POST(self) -> None:  # noqa: N802
            self._started = time.perf_counter()
            parts = urlsplit(self.path)
            segments = [s for s in parts.path.split("/") if s]
            try:
                if (len(segments) == 3
                        and segments[:2] == ["v1", "workers"]):
                    if not self._gate(worker=True):
                        return
                    self._handle_worker_verb(segments[2])
                    return
                if not self._gate():
                    return
                if segments == ["v1", "jobs"]:
                    self._handle_submit()
                else:
                    self._error(404, f"no such endpoint: {parts.path}")
            except JobNotFound as exc:
                self._error(404, str(exc))
            except ShardUnavailableError as exc:
                self._shard_unavailable(exc)
            except ReproError as exc:
                self._error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 — boundary
                logger.exception("gateway POST %s failed", self.path)
                self._error(500, f"internal error: {exc}")

        # -- endpoints -------------------------------------------------

        def _shard_unavailable(self, exc: ShardUnavailableError) -> None:
            """Scoped 503: one shard's circuit is open, the rest serve."""
            self._metrics_inc(
                "gateway_rejected_shard_unavailable",
                "requests refused because their shard is degraded",
            )
            self._error(
                503,
                str(exc),
                retry_after=(
                    exc.retry_after
                    if exc.retry_after is not None
                    else config.retry_after_seconds
                ),
                code="store_unavailable",
            )

        def _handle_healthz(self) -> None:
            body = {
                "status": "ok",
                "version": package_version(),
                "pending": service.store.pending(),
            }
            # sharded stores report per-shard breaker state; overall
            # status flips to "degraded" while any circuit is open
            # (the store still serves on the survivors)
            shard_states = service.shard_states()
            if shard_states is not None:
                degraded = [
                    state["index"] for state in shard_states
                    if state["state"] != "healthy"
                ]
                body["shards"] = {
                    "total": len(shard_states),
                    "degraded": degraded,
                    "states": shard_states,
                }
                if degraded:
                    body["status"] = "degraded"
            self._json(200, body)

        def _handle_metrics(self) -> None:
            text = prometheus_exposition(
                service.store, service.artifacts
            )
            self._finish(
                200,
                text.encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )

        def _handle_list(self, query: Dict) -> None:
            state = query.get("state", [None])[0]
            cursor = query.get("cursor", [None])[0]
            limit_raw = query.get("limit", [None])[0]
            limit = None
            if limit_raw is not None:
                try:
                    limit = int(limit_raw)
                except ValueError:
                    limit = -1
                if limit <= 0:
                    self._error(
                        400,
                        f"limit must be a positive integer, "
                        f"got {limit_raw!r}",
                    )
                    return
            jobs, next_cursor = service.jobs_page(
                state=state, limit=limit, cursor=cursor
            )
            self._json(
                200,
                {
                    "jobs": [job.to_dict() for job in jobs],
                    "next_cursor": next_cursor,
                },
            )

        def _handle_job(self, job_id: str) -> None:
            self._json(200, {"job": service.job(job_id).to_dict()})

        def _handle_result(self, job_id: str) -> None:
            job = service.job(job_id)
            if job.state != "done":
                # not an input error: the job exists but has no result
                # (yet / ever) — 409 tells pollers to keep waiting or
                # give up, with the failure log attached
                self._error(
                    409,
                    f"job {job_id} is {job.state!r}, not done"
                    + (f" ({job.error})" if job.error else ""),
                )
                return
            self._json(200, service.fetch_envelope(job_id))

        def _read_body(self) -> Optional[bytes]:
            length = self.headers.get("Content-Length")
            if length is None:
                self._error(411, "Content-Length required")
                return None
            length = int(length)
            if length > config.max_request_bytes:
                self._error(
                    413,
                    f"request of {length} bytes exceeds the "
                    f"{config.max_request_bytes}-byte limit",
                )
                return None
            return self.rfile.read(length)

        def _handle_submit(self) -> None:
            raw = self._read_body()
            if raw is None:
                return
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._error(400, f"invalid JSON body: {exc}")
                return
            spec = JobSpec.from_wire(payload)  # strict; 400 via ReproError
            key = spec_artifact_key(spec)
            live = service.store.find_by_key(
                key, states=("queued", "running", "done")
            )
            if live:
                # idempotent resubmission — no capacity consumed, so it
                # succeeds even when the queue is refusing new work
                self._json(
                    200,
                    {"job": live[0].to_dict(), "deduplicated": True},
                )
                return
            if service.store.pending() >= config.max_queue_depth:
                self._metrics_inc(
                    "gateway_rejected_backpressure",
                    "submissions rejected by queue-depth backpressure",
                )
                self._error(
                    503,
                    f"queue is full ({config.max_queue_depth} jobs "
                    f"pending); retry later",
                    retry_after=config.retry_after_seconds,
                    code="overloaded",
                )
                return
            job = service.store.submit(spec, artifact_key=key)
            self._json(
                201, {"job": job.to_dict(), "deduplicated": False}
            )

        # -- worker plane ----------------------------------------------

        def _handle_workers(self) -> None:
            now = time.time()
            self._json(
                200,
                {
                    "workers": [
                        worker.to_dict(now)
                        for worker in service.store.list_workers()
                    ]
                },
            )

        def _read_json(self) -> Optional[Dict]:
            raw = self._read_body()
            if raw is None:
                return None
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._error(400, f"invalid JSON body: {exc}")
                return None
            if not isinstance(payload, dict):
                self._error(400, "request body must be a JSON object")
                return None
            return payload

        @staticmethod
        def _require(payload: Dict, field: str) -> str:
            value = payload.get(field)
            if not isinstance(value, str) or not value:
                raise ServiceError(
                    f"field {field!r} (non-empty string) is required"
                )
            return value

        def _handle_worker_verb(self, verb: str) -> None:
            handlers = {
                "claim": self._worker_claim,
                "heartbeat": self._worker_heartbeat,
                "checkpoint": self._worker_checkpoint,
                "complete": self._worker_complete,
                "fail": self._worker_fail,
            }
            handler = handlers.get(verb)
            if handler is None:
                self._error(
                    404,
                    f"no such worker verb: {verb!r} "
                    f"(one of {sorted(handlers)})",
                )
                return
            payload = self._read_json()
            if payload is None:
                return
            handler(payload)

        def _owned_running(
            self, payload: Dict
        ) -> Optional["JobRecord"]:
            """The payload's job iff running and owned by the caller.

            Sends the 409 itself and returns ``None`` when the caller
            lost its claim (lease expired, job recovered or finished
            elsewhere) — the agent must abandon the attempt.
            """
            worker = self._require(payload, "worker")
            job_id = self._require(payload, "job_id")
            job = service.store.get(job_id)  # JobNotFound -> 404
            if job.state != "running" or job.worker != worker:
                self._error(
                    409,
                    f"job {job_id} is not running for {worker!r} "
                    f"(state {job.state!r}, holder {job.worker!r})",
                )
                return None
            return job

        def _worker_claim(self, payload: Dict) -> None:
            worker = self._require(payload, "worker")
            wait = max(
                0.0,
                min(
                    float(payload.get("wait", config.claim_wait_seconds)),
                    config.claim_wait_seconds,
                ),
            )
            deadline = time.monotonic() + wait
            while True:
                try:
                    service.scheduler.recover_orphans()
                    job = service.scheduler.claim(worker, kind="remote")
                except sqlite3.OperationalError as exc:
                    # transient store pressure — punt, agent backs off
                    self._error(
                        503,
                        f"job store unavailable: {exc}",
                        retry_after=config.claim_retry_after_seconds,
                        code="store_unavailable",
                    )
                    return
                if job is not None:
                    self._metrics_inc(
                        "gateway_worker_claims",
                        "jobs claimed by remote workers",
                    )
                    self._json(
                        200,
                        {
                            "job": job.to_dict(),
                            "checkpoint": service.artifacts.get_checkpoint(
                                job.artifact_key
                            ),
                            "artifact": service.artifacts.get(
                                job.artifact_key
                            ),
                            "lease_seconds": (
                                service.scheduler.policy.lease_seconds
                            ),
                        },
                    )
                    return
                if (
                    gateway._stopping.is_set()
                    or time.monotonic() >= deadline
                ):
                    break
                gateway._stopping.wait(config.claim_poll_seconds)
            self._metrics_inc(
                "gateway_worker_claims_empty",
                "claim long-polls that timed out empty",
            )
            self._finish(
                204,
                b"",
                extra_headers={
                    "Retry-After": (
                        f"{config.claim_retry_after_seconds:g}"
                    )
                },
            )

        def _worker_heartbeat(self, payload: Dict) -> None:
            job = self._owned_running(payload)
            if job is None:
                return
            service.scheduler.heartbeat(job)
            self._metrics_inc(
                "gateway_worker_heartbeats",
                "lease renewals from remote workers",
            )
            self._json(
                200,
                {
                    "ok": True,
                    "lease_seconds": (
                        service.scheduler.policy.lease_seconds
                    ),
                },
            )

        def _worker_checkpoint(self, payload: Dict) -> None:
            job = self._owned_running(payload)
            if job is None:
                return
            checkpoint = payload.get("checkpoint")
            if not isinstance(checkpoint, dict):
                raise ServiceError(
                    "field 'checkpoint' (JSON object) is required"
                )
            service.artifacts.put_checkpoint(
                job.artifact_key, checkpoint
            )
            # a shipped checkpoint is proof of life — renew the lease
            service.scheduler.heartbeat(job)
            self._metrics_inc(
                "gateway_worker_checkpoints",
                "checkpoints shipped by remote workers",
            )
            self._json(200, {"ok": True})

        def _worker_complete(self, payload: Dict) -> None:
            """Idempotent completion, keyed by artifact key.

            The artifact write is content-addressed and the design is
            deterministic, so replays (network retry, double worker)
            converge: whoever writes first wins, everyone else gets
            ``already_done``/``superseded`` — never an error, never a
            lost or duplicated result.
            """
            worker = self._require(payload, "worker")
            job_id = self._require(payload, "job_id")
            key = self._require(payload, "artifact_key")
            job = service.store.get(job_id)  # JobNotFound -> 404
            if key != job.artifact_key:
                raise ServiceError(
                    f"artifact key mismatch for job {job_id}: "
                    f"claimed {key}, expected {job.artifact_key}"
                )
            design = payload.get("design")
            if design is not None and service.artifacts.get(key) is None:
                service.artifacts.put(
                    key, design, payload.get("meta") or {}
                )
            if job.state == "done":
                self._json(
                    200, {"result": "already_done", "state": "done"}
                )
                return
            if job.state != "running" or job.worker != worker:
                self._json(
                    200, {"result": "superseded", "state": job.state}
                )
                return
            try:
                service.scheduler.complete(
                    job,
                    med=payload.get("med"),
                    runtime_seconds=payload.get("runtime_seconds"),
                    cache_hit=bool(payload.get("cache_hit", False)),
                )
            except ServiceError:
                # lost the race between the ownership check and the
                # transition (lease expired mid-request) — the other
                # holder owns the durable state now
                self._json(
                    200,
                    {
                        "result": "superseded",
                        "state": service.store.get(job_id).state,
                    },
                )
                return
            service.artifacts.delete_checkpoint(key)
            self._metrics_inc(
                "gateway_worker_completions",
                "jobs completed by remote workers",
            )
            self._json(200, {"result": "completed", "state": "done"})

        def _worker_fail(self, payload: Dict) -> None:
            worker = self._require(payload, "worker")
            job_id = self._require(payload, "job_id")
            error = self._require(payload, "error")
            job = service.store.get(job_id)  # JobNotFound -> 404
            if job.state != "running" or job.worker != worker:
                self._json(
                    200, {"result": "ignored", "state": job.state}
                )
                return
            try:
                state = service.scheduler.record_failure(
                    job, error=error, now=time.time()
                )
            except ServiceError:
                self._json(
                    200,
                    {
                        "result": "ignored",
                        "state": service.store.get(job_id).state,
                    },
                )
                return
            self._metrics_inc(
                "gateway_worker_failures",
                "failed attempts reported by remote workers",
            )
            self._json(200, {"result": "failed", "state": state})

    return Handler
