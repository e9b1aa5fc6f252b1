"""Wire schema of the worker plane (``POST /v1/workers/*``).

Every verb is a JSON ``POST`` whose body carries at least the calling
worker's id; ownership-scoped verbs add the job id and are answered
409 when the caller no longer holds the claim (lease expired, job
recovered or finished elsewhere) — the agent must then abandon the
attempt, never report it failed.

Verbs::

    claim       {worker, wait?}            -> 200 ClaimGrant | 204 empty
    heartbeat   {worker, job_id}           -> 200 | 409
    checkpoint  {worker, job_id, checkpoint} -> 200 | 409
    complete    {worker, job_id, artifact_key,
                 design?, meta?, med?, runtime_seconds?, cache_hit?}
                                           -> 200 CompletionReceipt
    fail        {worker, job_id, error}    -> 200 {result, state}

``complete`` is idempotent, keyed by the artifact key: the design is
content-addressed and bit-deterministic, so replays (network retry,
two workers racing one job) converge — the first transition wins and
every other caller receives ``already_done`` or ``superseded`` with
status 200.  An empty-queue ``claim`` long-polls server-side up to the
gateway's ``claim_wait_seconds`` and then answers **204** with a
``Retry-After`` header and no body, so idle agents cost one parked
request instead of a poll storm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.jobstore import JobRecord

__all__ = ["WORKER_VERBS", "ClaimGrant", "CompletionReceipt"]

#: the complete worker-plane verb set, as routed by the gateway
WORKER_VERBS: Tuple[str, ...] = (
    "claim", "heartbeat", "checkpoint", "complete", "fail",
)

#: every result string a ``complete`` call can come back with
COMPLETION_RESULTS: Tuple[str, ...] = (
    "completed", "already_done", "superseded",
)


@dataclass(frozen=True)
class ClaimGrant:
    """A successful claim: the job, its lease, and what is stored.

    ``checkpoint`` is the stored crash-recovery payload for the job's
    artifact key (``None`` when the attempt starts fresh) — shipping it
    with the grant is what lets a job abandoned by one remote worker
    resume bit-identically on the next, without the new worker having
    filesystem access to the gateway's store.  ``artifact`` is the
    stored envelope of an already-done key (a duplicate job).
    """

    job: JobRecord
    lease_seconds: float
    checkpoint: Optional[Dict] = None
    artifact: Optional[Dict] = None

    def to_payload(self) -> Dict:
        """The wire form :meth:`from_payload` reads."""
        return {
            "job": self.job.to_dict(),
            "lease_seconds": self.lease_seconds,
            "checkpoint": self.checkpoint,
            "artifact": self.artifact,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "ClaimGrant":
        try:
            return cls(
                job=JobRecord.from_dict(payload["job"]),
                lease_seconds=float(payload["lease_seconds"]),
                checkpoint=payload.get("checkpoint"),
                artifact=payload.get("artifact"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed claim grant: {exc}"
            ) from exc


@dataclass(frozen=True)
class CompletionReceipt:
    """The gateway's answer to ``complete`` (idempotent, always 200)."""

    result: str
    state: str

    @property
    def accepted(self) -> bool:
        """True when the job is durably done (by whichever path)."""
        return self.result in ("completed", "already_done")

    @classmethod
    def from_payload(cls, payload: Dict) -> "CompletionReceipt":
        result = payload.get("result")
        if result not in COMPLETION_RESULTS:
            raise ServiceError(
                f"malformed completion receipt: result={result!r}"
            )
        return cls(result=result, state=str(payload.get("state", "")))
