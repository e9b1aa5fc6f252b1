"""The remote worker agent behind ``repro work --remote URL``.

:class:`RemoteWorkerAgent` is the local pool's
:class:`~repro.service.worker.WorkerLoop` over a :class:`RemoteSource`:
it claims jobs from a gateway, executes them through the same
:class:`~repro.service.worker.JobExecutor`, and reports back over HTTP.
The executor talks to a :class:`_RemoteArtifacts` proxy that routes
its artifact surface through the gateway:

===================  ================================================
executor call        remote behavior
===================  ================================================
``get``              the envelope carried by the claim grant, if any
``get_checkpoint``   the checkpoint carried by the claim grant, if any
``put_checkpoint``   ``POST /v1/workers/checkpoint`` (renews lease)
``put``              buffered in memory, shipped with ``complete``
``delete_checkpoint``  no-op — the gateway deletes on ``complete``
===================  ================================================

Because checkpoints travel through the gateway, a job abandoned by a
crashed remote worker resumes **bit-identically** on whichever worker
(remote or local) claims it next.  Ownership is enforced server-side:
any 409 from heartbeat/checkpoint means this agent lost its lease, and
the attempt is *abandoned* unreported.  ``--isolated`` runs each
attempt in a child that rebuilds this source from the gateway URL,
token and grant, exactly as ``serve --isolated-workers`` does locally.
"""

from __future__ import annotations

import os
import socket
from typing import Callable, Dict, Optional, Tuple

from repro.errors import GatewayError
from repro.fleet.client import FleetClient
from repro.fleet.protocol import ClaimGrant
from repro.obs.logconfig import get_logger
from repro.serialization import result_to_dict
from repro.service.jobstore import JobRecord
from repro.service.worker import (
    DEFAULT_CHECKPOINT_EVERY,
    ExecutionOutcome,
    JobExecutor,
    LeaseLost,
    LoopStats,
    WorkerLoop,
)

logger = get_logger("repro.fleet.agent")

__all__ = ["RemoteSource", "RemoteWorkerAgent"]


class _RemoteArtifacts:
    """Gateway-backed stand-in for the executor's artifact store."""

    def __init__(self, client: FleetClient) -> None:
        self._client = client
        self._job: Optional[JobRecord] = None
        self._seed_checkpoint: Optional[Dict] = None
        self._seed_artifact: Optional[Dict] = None
        self.envelope: Optional[Dict] = None

    def bind(self, grant: ClaimGrant) -> None:
        """Point the proxy at one claimed job."""
        self._job = grant.job
        self._seed_checkpoint = grant.checkpoint
        self._seed_artifact = grant.artifact
        self.envelope = None

    def get(self, key: str) -> Optional[Dict]:
        return self._seed_artifact

    def get_checkpoint(self, key: str) -> Optional[Dict]:
        return self._seed_checkpoint

    def put_checkpoint(self, key: str, payload: Dict) -> None:
        assert self._job is not None
        try:
            self._client.checkpoint(
                self._job.worker, self._job.id, payload
            )
        except GatewayError as exc:
            if exc.status == 409:
                raise LeaseLost(
                    f"lease on job {self._job.id} lost while shipping "
                    f"a checkpoint: {exc}"
                ) from exc
            raise

    def delete_checkpoint(self, key: str) -> bool:
        # the gateway owns checkpoint lifecycle; it deletes on complete
        return False

    def put(self, key: str, result, meta: Optional[Dict] = None) -> Dict:
        if not isinstance(result, dict):
            result = result_to_dict(result)
        self.envelope = {"design": result, "meta": dict(meta or {})}
        return self.envelope


class RemoteSource:
    """A gateway's worker plane as a job source for
    :class:`~repro.service.worker.WorkerLoop` (module docs)."""

    transient = GatewayError

    def __init__(
        self,
        client: FleetClient,
        *,
        claim_wait: Optional[float] = None,
        poll_seconds: float = 0.25,
    ) -> None:
        self.client = client
        self.claim_wait = claim_wait
        self.poll_seconds = poll_seconds
        self.artifacts = _RemoteArtifacts(client)
        self.lease_seconds = 0.0  # each grant sets its own
        self._grant: Optional[ClaimGrant] = None

    def bind(self, grant: ClaimGrant) -> JobRecord:
        """Adopt one claimed grant; returns its job."""
        self._grant = grant
        self.lease_seconds = grant.lease_seconds
        self.artifacts.bind(grant)
        return grant.job

    def claim(self, worker: str) -> Optional[JobRecord]:
        grant = self.client.claim(worker, wait=self.claim_wait)
        return None if grant is None else self.bind(grant)

    def heartbeat(self, job: JobRecord) -> None:
        try:
            self.client.heartbeat(job.worker, job.id)
        except GatewayError as exc:
            if exc.status == 409:
                raise LeaseLost(
                    f"lease on job {job.id} lost: {exc}"
                ) from exc
            # unreachable gateway: keep computing — the next
            # checkpoint/complete settles ownership either way
            logger.warning(
                "worker %s: heartbeat for %s failed (%s)",
                job.worker, job.id, exc,
            )

    def complete(self, job: JobRecord, outcome: ExecutionOutcome) -> str:
        envelope = self.artifacts.envelope
        try:
            receipt = self.client.complete(
                job.worker,
                job.id,
                job.artifact_key,
                design=None if envelope is None else envelope["design"],
                meta=None if envelope is None else envelope["meta"],
                med=outcome.med,
                runtime_seconds=outcome.runtime_seconds,
                cache_hit=outcome.cache_hit,
            )
        except GatewayError as exc:
            # the gateway vanished between execute and complete; the
            # lease will expire and the job re-runs deterministically
            logger.warning(
                "worker %s: complete for %s failed (%s); abandoning",
                job.worker, job.id, exc,
            )
            return "abandoned"
        return "completed" if receipt.accepted else "superseded"

    def fail(self, job: JobRecord, error: str) -> None:
        try:
            self.client.fail(job.worker, job.id, error)
        except GatewayError as exc:
            logger.warning(
                "worker %s: failure report for %s not delivered (%s); "
                "lease expiry will recover the job",
                job.worker, job.id, exc,
            )

    def queue_empty(self) -> bool:
        try:
            return int(self.client.healthz().get("pending", 1)) == 0
        except GatewayError:
            return False  # can't tell; keep polling

    def child_args(self, job: JobRecord) -> Tuple[Callable, Tuple]:
        """Picklable ``(rebuild, args)`` for an isolated attempt."""
        return _remote_child, (
            self.client.base_url, self.client.token,
            self._grant.to_payload(),
        )


def _remote_child(
    url: str, token: Optional[str], grant: Dict
) -> Tuple[RemoteSource, JobRecord]:
    """Rebuild a :class:`RemoteSource` in an isolated attempt's child."""
    source = RemoteSource(FleetClient(url, token=token))
    return source, source.bind(ClaimGrant.from_payload(grant))


def _default_worker_id() -> str:
    return f"remote-{socket.gethostname()}-{os.getpid()}"


class RemoteWorkerAgent:
    """A worker loop against one gateway (module docs).

    ``worker_id`` defaults to ``remote-<host>-<pid>`` (an isolated agent
    claims as ``<worker_id>-g<k>``); ``client`` replaces the
    :class:`FleetClient` built from ``url`` and ``token``;
    ``claim_wait`` caps the server's claim long-poll; ``drain`` exits
    once the queue is empty; ``poll_seconds`` is the sleep after an
    empty or failed claim.  ``decompose_fn`` and ``checkpoint_every``
    go to the :class:`~repro.service.worker.JobExecutor`.
    """

    def __init__(
        self,
        url: str = "",
        *,
        token: Optional[str] = None,
        worker_id: Optional[str] = None,
        client: Optional[FleetClient] = None,
        decompose_fn=None,
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
        claim_wait: Optional[float] = None,
        drain: bool = False,
        isolated: bool = False,
        poll_seconds: float = 0.25,
    ) -> None:
        self.worker_id = (
            worker_id if worker_id else _default_worker_id()
        )
        if client is None:
            # pad the socket timeout past the long-poll so a parked
            # claim is not mistaken for a dead gateway
            timeout = 30.0 + (claim_wait if claim_wait else 30.0)
            client = FleetClient(url, token=token, timeout_seconds=timeout)
        self.client = client
        self.drain = drain
        self.isolated = isolated
        source = RemoteSource(
            client, claim_wait=claim_wait, poll_seconds=poll_seconds
        )
        self._loop = WorkerLoop(
            source,
            JobExecutor(
                source.artifacts,
                decompose_fn=decompose_fn,
                checkpoint_every=checkpoint_every,
            ),
            self.worker_id,
            isolated=isolated,
        )

    @property
    def stats(self) -> LoopStats:
        """The loop's counters."""
        return self._loop.stats

    def stop(self) -> None:
        """Ask the run loop to exit after the current attempt."""
        self._loop.stop()

    def run(self, max_jobs: Optional[int] = None) -> LoopStats:
        """Serve until stopped (or drained / ``max_jobs`` claimed)."""
        logger.info(
            "remote worker %s serving %s%s",
            self.worker_id,
            self.client.base_url,
            " (isolated)" if self.isolated else "",
        )
        stats = self._loop.run(drain=self.drain, max_jobs=max_jobs)
        logger.info("remote worker %s exiting: %s", self.worker_id, stats)
        return stats
