"""repro.fleet — the remote worker plane over the HTTP gateway.

Until this package, every worker lived inside the single ``serve``
process against one local store — the ceiling was one box.  The fleet
subsystem turns the queue into a multi-machine plane while keeping
artifacts byte-identical to local execution:

* **Worker protocol** (``POST /v1/workers/claim|heartbeat|checkpoint|
  complete|fail`` on the gateway, :mod:`repro.fleet.protocol`): the
  existing lease/orphan-recovery semantics of the job store, exposed
  over HTTP with a long-poll claim, a separate rate-limit class, and
  idempotent completion keyed by artifact key.
* **Remote worker agent** (:class:`RemoteWorkerAgent`, CLI
  ``repro work --remote URL``): the local pool's worker loop over the
  gateway — it claims jobs, executes them through the unchanged
  :class:`~repro.service.worker.JobExecutor` (checkpoint cadence,
  numeric guards, and fault seams intact), and ships checkpoints back
  through the gateway so a crashed remote worker's job resumes
  bit-identically on any other worker.
* **Autoscaler** (:class:`PoolAutoscaler`, CLI ``serve
  --min-workers/--max-workers``): queue-depth-driven
  :meth:`~repro.service.worker.WorkerPool.resize` of the local pool;
  with ``serve --dispatch-only`` the gateway owns the store but runs
  no local workers at all — remote agents do the work.
"""

from repro.fleet.agent import RemoteWorkerAgent
from repro.fleet.autoscaler import PoolAutoscaler
from repro.fleet.client import FleetClient
from repro.fleet.protocol import ClaimGrant, CompletionReceipt

__all__ = [
    "ClaimGrant",
    "CompletionReceipt",
    "FleetClient",
    "PoolAutoscaler",
    "RemoteWorkerAgent",
]
