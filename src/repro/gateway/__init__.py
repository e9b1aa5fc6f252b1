"""repro.gateway — an HTTP/JSON API over the decomposition service.

The gateway turns a :class:`~repro.service.DecompositionService`
directory into a network service using only the standard library
(:class:`http.server.ThreadingHTTPServer` on the server side,
:mod:`urllib.request` in the client) — no new dependencies.

Endpoints (all JSON unless noted)::

    POST /v1/jobs              submit a JobSpecV1 wire document
    GET  /v1/jobs              list jobs (``?state=&limit=&cursor=``;
                               paginated, ``next_cursor`` in the body)
    GET  /v1/jobs/{id}         one job's status + failure log
    GET  /v1/jobs/{id}/result  the finished job's artifact envelope
    GET  /v1/status            the service telemetry summary
    GET  /v1/healthz           liveness + queue depth
    GET  /v1/metrics           Prometheus text exposition (0.0.4)
    GET  /v1/workers           the fleet registry (worker liveness)
    POST /v1/workers/{verb}    the remote worker plane — claim /
                               heartbeat / checkpoint / complete /
                               fail (see :mod:`repro.fleet.protocol`)

The worker plane draws from a *separate* rate-limit bucket class
(``worker_rate_limit_per_second``) so a hot claim loop never burns the
submitter budget, and an empty-queue claim long-polls server-side
(``claim_wait_seconds``) before answering 204 + ``Retry-After``.

Submission is *idempotent*: the job spec's content address (see
:func:`repro.service.spec.artifact_key`) dedups resubmissions against
any live queued/running/done twin, so a client that retries after a
lost response can never double-enqueue work.

Robustness knobs live on :class:`GatewayConfig`: optional bearer-token
auth, a per-client token-bucket rate limit (429 + ``Retry-After``),
queue-depth backpressure (503 + ``Retry-After``), request-size and
per-request socket timeouts, a JSONL access log, and graceful shutdown
that drains in-flight handlers before returning.

Every error response uses one canonical JSON envelope::

    {"error": {"code": "<slug>", "message": "...",
               "retry_after": <seconds>?}, "status": <http status>}

``code`` is a stable machine-readable slug (``invalid_request``,
``unauthorized``, ``not_found``, ``conflict``, ``rate_limited``,
``overloaded``, ``store_unavailable``, ``internal``, ...); the
top-level ``status`` mirror is kept for legacy readers.

:class:`GatewayClient` is the typed Python client; the shared
:class:`~repro.gateway.transport.HttpTransport` base (also under
:class:`~repro.fleet.client.FleetClient`) backs off exponentially with
optional jitter, honors server ``Retry-After`` hints, and parses the
canonical envelope (legacy string bodies still accepted).  Accessors
return the same :class:`~repro.service.JobRecord` objects the local
service API yields, so CLI code paths are shared between local and
``--remote`` operation.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.server import DecompositionGateway, GatewayConfig
from repro.gateway.transport import HttpTransport, RetryPolicy

__all__ = [
    "DecompositionGateway",
    "GatewayClient",
    "GatewayConfig",
    "HttpTransport",
    "RetryPolicy",
]
