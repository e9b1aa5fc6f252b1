"""Typed client for the worker plane (extends :class:`GatewayClient`).

:class:`FleetClient` adds the ``/v1/workers/*`` verbs and the fleet
registry (``GET /v1/workers``) on top of the submitter surface it
inherits.

Connection handling, backoff, and error typing come from the shared
:class:`~repro.gateway.transport.HttpTransport` base (via
:class:`GatewayClient`), so the worker plane retries exactly like the
submitter plane.  Transport semantics worth knowing:

* ``claim`` uses the raw request path so an empty-queue **204** maps to
  ``None`` instead of a JSON-parse error; the socket timeout is padded
  past the requested long-poll wait so a parked claim is not mistaken
  for a dead gateway.
* ownership conflicts (**409**) are *not* retried — they mean the
  caller lost its lease, and the right reaction is to abandon the
  attempt, so they surface immediately as
  :class:`~repro.errors.GatewayError` with ``status=409``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.errors import GatewayError
from repro.fleet.protocol import ClaimGrant, CompletionReceipt
from repro.gateway.client import _TERMINAL, GatewayClient
from repro.service.jobstore import JobRecord, WorkerRecord

__all__ = ["FleetClient"]


class FleetClient(GatewayClient):
    """One remote worker's view of a gateway (see module docs)."""

    def claim(
        self, worker: str, wait: Optional[float] = None
    ) -> Optional[ClaimGrant]:
        """Claim the next runnable job (long-polling server-side).

        Returns ``None`` when the queue stayed empty for the whole
        wait (HTTP 204).  ``wait`` may lower the server's configured
        long-poll cap, never raise it.
        """
        payload: Dict = {"worker": worker}
        if wait is not None:
            payload["wait"] = float(wait)
        status, _, data = self._request(
            "POST", "/v1/workers/claim", payload
        )
        if status == 204 or not data:
            return None
        parsed = self._decode_json(data, "/v1/workers/claim", status)
        return ClaimGrant.from_payload(parsed)

    def heartbeat(self, worker: str, job_id: str) -> Dict:
        """Renew the lease on an owned running job (409 = lost it)."""
        return self._request_json(
            "POST",
            "/v1/workers/heartbeat",
            {"worker": worker, "job_id": job_id},
        )

    def checkpoint(
        self, worker: str, job_id: str, checkpoint: Dict
    ) -> Dict:
        """Ship a crash-recovery checkpoint (also renews the lease)."""
        return self._request_json(
            "POST",
            "/v1/workers/checkpoint",
            {
                "worker": worker,
                "job_id": job_id,
                "checkpoint": checkpoint,
            },
        )

    def complete(
        self,
        worker: str,
        job_id: str,
        artifact_key: str,
        *,
        design: Optional[Dict] = None,
        meta: Optional[Dict] = None,
        med: Optional[float] = None,
        runtime_seconds: Optional[float] = None,
        cache_hit: bool = False,
    ) -> CompletionReceipt:
        """Report a finished attempt (idempotent; see protocol docs)."""
        payload = self._request_json(
            "POST",
            "/v1/workers/complete",
            {
                "worker": worker,
                "job_id": job_id,
                "artifact_key": artifact_key,
                "design": design,
                "meta": meta,
                "med": med,
                "runtime_seconds": runtime_seconds,
                "cache_hit": cache_hit,
            },
        )
        return CompletionReceipt.from_payload(payload)

    def fail(self, worker: str, job_id: str, error: str) -> Dict:
        """Report a crashed/cancelled attempt; the scheduler routes it."""
        return self._request_json(
            "POST",
            "/v1/workers/fail",
            {"worker": worker, "job_id": job_id, "error": error},
        )

    def wait_many(
        self,
        job_ids: Sequence[str],
        poll_seconds: float = 0.25,
        timeout_seconds: Optional[float] = None,
    ) -> List[JobRecord]:
        """Poll until *every* job reaches a terminal state.

        Returns records in the order of ``job_ids``.  One shared
        deadline covers the whole set, so a batch is only as done as
        its slowest job.  Raises :class:`GatewayError` (status 0)
        naming the still-pending jobs on timeout.
        """
        deadline = (
            None
            if timeout_seconds is None
            else time.monotonic() + timeout_seconds
        )
        records: Dict[str, JobRecord] = {}
        pending = list(dict.fromkeys(job_ids))
        while pending:
            still_pending = []
            for job_id in pending:
                record = self.job(job_id)
                if record.state in _TERMINAL:
                    records[job_id] = record
                else:
                    still_pending.append(job_id)
            pending = still_pending
            if not pending:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise GatewayError(
                    f"timed out waiting for {len(pending)} of "
                    f"{len(set(job_ids))} jobs "
                    f"(pending: {', '.join(pending)})",
                    status=0,
                )
            self._sleep(poll_seconds)
        return [records[job_id] for job_id in job_ids]

    def workers(self) -> List[WorkerRecord]:
        """The gateway's fleet registry (every worker ever seen)."""
        data = self._request_json("GET", "/v1/workers")
        return [
            WorkerRecord.from_dict(entry) for entry in data["workers"]
        ]
