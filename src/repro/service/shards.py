"""Sharded job store: N independent SQLite fault domains.

A single :class:`~repro.service.jobstore.JobStore` is one file — one
``JobStoreCorruptError`` or stuck disk takes down submits, fleet
claims, and the scheduler at once.  :class:`ShardedJobStore` splits
the store into N independent SQLite databases, hashing every job onto
a shard by its **artifact key** (the content address over truth table
and semantic config), and presents the union behind the exact
``JobStore`` interface the scheduler, gateway, and CLI already speak.

Layout
------
``N == 1`` is byte-identical to today's single store — the factory
:func:`open_job_store` returns a plain ``JobStore`` over
``<root>/jobs.sqlite3`` with no manifest and no journal, so every
existing service directory keeps working untouched.  ``N >= 2``
writes::

    <root>/
      shards.json               layout manifest {"n_shards": N}
      jobs-00.sqlite3           shard 0 (plus -wal/-shm siblings)
      jobs-00.journal.jsonl     shard 0 intent journal
      ...
      jobs-<N-1>.sqlite3
      artifacts/                shared content-addressed cache (unsharded)

The manifest makes the layout self-describing: ``repro submit`` /
``status`` / isolated attempt processes discover N from it, and an
explicit ``--shards`` that contradicts it is refused rather than
silently resharding (keys would rehash onto different shards).

Fault domains
-------------
Each shard carries a circuit breaker.  Repeated
``sqlite3.OperationalError`` (or a single
:class:`~repro.errors.JobStoreCorruptError`) trips the shard to
``degraded``; while degraded:

- operations *scoped* to the shard — submits and dedup lookups whose
  key hashes there, transitions on jobs homed there — raise
  :class:`~repro.errors.ShardUnavailableError`, which the gateway
  maps to a scoped 503 ``store_unavailable`` with Retry-After;
- everything with a surviving-shard answer keeps working: claims
  rotate over healthy shards, pagination keyset-merges the healthy
  shards, counts/pending/fleet registry aggregate what is reachable.

A degraded shard is re-probed *half-open*: every
``probe_interval_seconds`` one real call is let through, and a
success closes the circuit again.  A shard whose file is actually
corrupt keeps failing its probes until ``repro admin rebuild``
reconstructs it.

Rebuild
-------
Every submit appends an intent record to the shard's append-only
journal *before* the row is inserted, and every terminal transition
(done / failed / quarantined) appends its outcome after commit.  The
journal plus the content-addressed artifact store make a lost shard
reconstructible (:func:`rebuild_shard`): journaled terminal jobs are
restored verbatim, journaled submits whose artifact already exists
resolve as cache-hit ``done``, and everything else is requeued (the
solve is deterministic, so re-execution converges to byte-identical
artifacts).  :func:`scrub_store` is the read-only audit: per-shard
``quick_check`` plus journal↔database and done-job↔artifact
cross-checks.

Job ids are tagged with their home shard (``job-s03-<hex>``), so
routing a transition is O(1); untagged legacy ids fall back to
probing the shards.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sqlite3
import struct
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    JobNotFound,
    JobStoreCorruptError,
    ServiceError,
    ShardUnavailableError,
)
from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics
from repro.resilience.faults import active_fault_plan
from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import (
    JOB_STATES,
    JobRecord,
    JobStore,
    WorkerRecord,
)
from repro.service.spec import JobSpec

__all__ = [
    "MANIFEST_NAME",
    "ShardedJobStore",
    "open_job_store",
    "read_journal",
    "rebuild_shard",
    "resolve_n_shards",
    "scrub_store",
    "shard_for_key",
    "shard_db_path",
    "shard_journal_path",
]

logger = get_logger("repro.service.shards")

MANIFEST_NAME = "shards.json"
_MANIFEST_FORMAT = "repro-shards"

#: shard-tagged job ids: ``job-s<index>-<hex>``
_SHARD_ID_RE = re.compile(r"^job-s(\d+)-")

_TERMINAL_OPS = {"done": "done", "failed": "failed",
                 "quarantined": "quarantined"}


def shard_for_key(artifact_key: str, n_shards: int) -> int:
    """Home shard of an artifact key (stable content-address hash).

    Keys are SHA-256 hex digests, so the leading 32 bits are already a
    uniform hash — no second hashing pass needed.
    """
    if n_shards <= 1:
        return 0
    try:
        return int(artifact_key[:8], 16) % n_shards
    except (ValueError, IndexError):
        # not a hex digest (defensive); fold the raw bytes instead
        return sum(artifact_key.encode("utf-8", "replace")) % n_shards


def shard_db_path(root: Path, index: int, n_shards: int) -> Path:
    """Database file of one shard (the legacy name when unsharded)."""
    if n_shards == 1:
        return Path(root) / "jobs.sqlite3"
    return Path(root) / f"jobs-{index:02d}.sqlite3"


def shard_journal_path(root: Path, index: int) -> Path:
    """Append-only intent journal of one shard."""
    return Path(root) / f"jobs-{index:02d}.journal.jsonl"


# -- layout manifest ----------------------------------------------------

def _read_manifest(root: Path) -> Optional[int]:
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        n = int(data["n_shards"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ServiceError(
            f"malformed shard manifest {path}: {exc}"
        ) from exc
    if n < 1:
        raise ServiceError(f"shard manifest {path} has n_shards={n}")
    return n


def _write_manifest(root: Path, n_shards: int) -> None:
    path = Path(root) / MANIFEST_NAME
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(
            {"format": _MANIFEST_FORMAT, "n_shards": n_shards},
            sort_keys=True,
        )
        + "\n"
    )
    os.replace(tmp, path)


def resolve_n_shards(
    root: Union[str, Path], requested: Optional[int] = None
) -> int:
    """Shard count of a service directory.

    The manifest (written on first sharded open) is authoritative:
    ``requested`` may be ``None`` (discover) or must agree with it —
    a contradicting count is refused because rehashing keys onto a
    different N would scatter jobs across the wrong shards.  Without
    a manifest, ``requested`` (default 1) decides.
    """
    existing = _read_manifest(Path(root))
    if existing is not None:
        if requested is not None and requested != existing:
            raise ServiceError(
                f"service directory {root} is laid out with "
                f"{existing} shard(s); --shards {requested} would "
                f"reshard it (not supported)"
            )
        return existing
    n = 1 if requested is None else int(requested)
    if n < 1:
        raise ServiceError(f"shard count must be >= 1, got {n}")
    return n


def open_job_store(
    root: Union[str, Path], shards: Optional[int] = None
) -> Union[JobStore, "ShardedJobStore"]:
    """Open a service directory's job store, sharded or not.

    ``N == 1`` returns a plain :class:`JobStore` over
    ``<root>/jobs.sqlite3`` — byte-identical to the pre-sharding
    layout, no manifest, no journal.  ``N >= 2`` writes/validates the
    manifest and returns a :class:`ShardedJobStore`.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n = resolve_n_shards(root, shards)
    if n == 1:
        return JobStore(root / "jobs.sqlite3")
    if (root / "jobs.sqlite3").exists():
        # an unsharded store already lives here; sharding on top
        # would strand its jobs in a file nothing reads anymore
        raise ServiceError(
            f"service directory {root} already holds an unsharded "
            f"job store (jobs.sqlite3); --shards {n} would strand "
            f"its jobs (resharding is not supported)"
        )
    _write_manifest(root, n)
    return ShardedJobStore(root, n)


# -- intent journal -----------------------------------------------------

def read_journal(path: Union[str, Path]) -> Iterator[Dict]:
    """Records of one shard journal, oldest first.

    Torn trailing lines (a crash mid-append) are skipped rather than
    fatal — the journal is a recovery aid, not a ledger.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


# -- per-shard breaker state --------------------------------------------

class _ShardHealth:
    """Mutable breaker state of one shard (guarded by the store lock)."""

    __slots__ = (
        "index", "path", "state", "consecutive_failures",
        "tripped_at", "last_error", "last_probe",
    )

    def __init__(self, index: int, path: Path) -> None:
        self.index = index
        self.path = path
        self.state = "healthy"
        self.consecutive_failures = 0
        self.tripped_at: Optional[float] = None
        self.last_error: Optional[str] = None
        self.last_probe = 0.0

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "path": str(self.path),
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "tripped_at": self.tripped_at,
            "last_error": self.last_error,
        }


class ShardedJobStore:
    """N independent job-store fault domains behind one interface.

    See the module docs for the layout, degraded-mode semantics, and
    rebuild story.  Requires ``n_shards >= 2`` — the N=1 case is a
    plain :class:`JobStore` (use :func:`open_job_store`).
    """

    #: consecutive ``OperationalError``\ s before the breaker trips
    #: (corruption trips immediately)
    TRIP_THRESHOLD = 3

    #: how often a degraded shard lets one half-open probe through
    PROBE_INTERVAL_SECONDS = 2.0

    #: Retry-After carried by :class:`ShardUnavailableError`
    RETRY_AFTER_SECONDS = 2.0

    def __init__(
        self,
        root: Union[str, Path],
        n_shards: int,
        *,
        trip_threshold: Optional[int] = None,
        probe_interval_seconds: Optional[float] = None,
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        if n_shards < 2:
            raise ServiceError(
                "ShardedJobStore requires n_shards >= 2; use "
                "open_job_store() for the single-store layout"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_shards = int(n_shards)
        self.trip_threshold = (
            self.TRIP_THRESHOLD if trip_threshold is None
            else int(trip_threshold)
        )
        self.probe_interval_seconds = (
            self.PROBE_INTERVAL_SECONDS if probe_interval_seconds is None
            else float(probe_interval_seconds)
        )
        self.retry_after_seconds = (
            self.RETRY_AFTER_SECONDS if retry_after_seconds is None
            else float(retry_after_seconds)
        )
        self._paths = [
            shard_db_path(self.root, i, self.n_shards)
            for i in range(self.n_shards)
        ]
        self._stores: List[Optional[JobStore]] = [None] * self.n_shards
        self._health = [
            _ShardHealth(i, self._paths[i]) for i in range(self.n_shards)
        ]
        self._lock = threading.Lock()
        self._journal_locks = [
            threading.Lock() for _ in range(self.n_shards)
        ]
        self._claim_rr = itertools.count()
        # Open every shard eagerly so schema migration and corruption
        # surface now — but a bad shard degrades instead of failing the
        # whole store (that is the point of the fault domains).
        for index in range(self.n_shards):
            try:
                self._call(index, None)
            except (sqlite3.OperationalError, JobStoreCorruptError):
                pass

    # -- breaker plumbing ----------------------------------------------

    def _record_failure(self, index: int, exc: Exception) -> None:
        health = self._health[index]
        corrupt = isinstance(exc, JobStoreCorruptError)
        with self._lock:
            health.consecutive_failures += 1
            health.last_error = f"{type(exc).__name__}: {exc}"
            if corrupt:
                # the cached connection-factory wraps a bad file; drop
                # it so a post-rebuild probe reopens from scratch
                self._stores[index] = None
            tripped = health.state != "degraded" and (
                corrupt
                or health.consecutive_failures >= self.trip_threshold
            )
            if tripped:
                health.state = "degraded"
                health.tripped_at = time.time()
                health.last_probe = health.tripped_at
        if tripped:
            logger.warning(
                "shard %d (%s) tripped to degraded: %s",
                index, self._paths[index], health.last_error,
            )
            get_metrics().counter(
                "service_shard_trips_total",
                help="shard circuit breakers tripped to degraded",
            ).inc()

    def _record_ok(self, index: int) -> None:
        health = self._health[index]
        with self._lock:
            recovered = health.state == "degraded"
            health.state = "healthy"
            health.consecutive_failures = 0
            health.tripped_at = None
            health.last_error = None
        if recovered:
            logger.info(
                "shard %d (%s) recovered; circuit closed",
                index, self._paths[index],
            )
            get_metrics().counter(
                "service_shard_recoveries_total",
                help="shard circuit breakers closed after recovery",
            ).inc()

    def _usable(self, index: int, now: Optional[float] = None) -> bool:
        """Healthy — or degraded with a half-open probe slot due."""
        health = self._health[index]
        with self._lock:
            if health.state == "healthy":
                return True
            now = time.time() if now is None else now
            if now - health.last_probe >= self.probe_interval_seconds:
                health.last_probe = now
                return True
            return False

    def _unavailable(self, index: int) -> ShardUnavailableError:
        health = self._health[index]
        detail = f" ({health.last_error})" if health.last_error else ""
        return ShardUnavailableError(
            f"shard {index} of {self.n_shards} is unavailable{detail}",
            shard=index,
            retry_after=self.retry_after_seconds,
        )

    def _check_seams(self, index: int) -> None:
        plan = active_fault_plan()
        if plan is None:
            return
        detail = f"{index}:{self._paths[index]}"
        if plan.should_fire("shard.unavailable", detail=detail):
            raise sqlite3.OperationalError(
                f"injected fault: shard {index} unavailable"
            )
        if plan.should_fire("shard.corrupt", detail=detail):
            raise JobStoreCorruptError(
                f"injected fault: shard {index} corrupt"
            )

    def _call(self, index: int, method: Optional[str], *args, **kwargs):
        """One guarded call into a shard; outcomes feed its breaker.

        ``method=None`` just opens the shard (startup / probe).
        """
        try:
            self._check_seams(index)
            with self._lock:
                store = self._stores[index]
            if store is None:
                store = JobStore(self._paths[index])
                with self._lock:
                    self._stores[index] = store
            result = (
                None if method is None
                else getattr(store, method)(*args, **kwargs)
            )
        except (sqlite3.OperationalError, JobStoreCorruptError) as exc:
            self._record_failure(index, exc)
            raise
        self._record_ok(index)
        return result

    def _scoped(self, index: int, method: str, *args, **kwargs):
        """A call with no surviving-shard fallback (key/id homed here).

        Raises :class:`ShardUnavailableError` when the shard's circuit
        is open (no probe due) or the call itself fails.
        """
        if not self._usable(index):
            raise self._unavailable(index)
        try:
            return self._call(index, method, *args, **kwargs)
        except (sqlite3.OperationalError, JobStoreCorruptError) as exc:
            raise self._unavailable(index) from exc

    def _each_usable(self) -> Iterator[int]:
        for index in range(self.n_shards):
            if self._usable(index):
                yield index

    # -- routing --------------------------------------------------------

    def shard_for(self, artifact_key: str) -> int:
        """Home shard index of one artifact key."""
        return shard_for_key(artifact_key, self.n_shards)

    def _route(self, job_id: str) -> int:
        """Home shard of a job id (tag parse, else probe the shards)."""
        match = _SHARD_ID_RE.match(job_id)
        if match:
            index = int(match.group(1))
            if 0 <= index < self.n_shards:
                return index
        for index in self._each_usable():
            try:
                self._call(index, "get", job_id)
                return index
            except JobNotFound:
                continue
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
        raise JobNotFound(job_id)

    # -- intent journal -------------------------------------------------

    def _journal_append(self, index: int, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._journal_locks[index]:
            with shard_journal_path(self.root, index).open("a") as fh:
                fh.write(line + "\n")

    # -- submission -----------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        artifact_key: str,
        now: Optional[float] = None,
    ) -> JobRecord:
        """Enqueue on the key's home shard (write-ahead journaled)."""
        index = self.shard_for(artifact_key)
        now = time.time() if now is None else now
        if not self._usable(index):
            raise self._unavailable(index)
        job_id = f"job-s{index:02d}-{uuid.uuid4().hex[:12]}"
        self._journal_append(index, {
            "op": "submit",
            "id": job_id,
            "artifact_key": artifact_key,
            "spec": spec.to_wire(),
            "max_attempts": spec.max_attempts,
            "created_at": now,
        })
        try:
            return self._call(
                index, "submit", spec, artifact_key,
                now=now, job_id=job_id,
            )
        except (sqlite3.OperationalError, JobStoreCorruptError) as exc:
            raise self._unavailable(index) from exc

    # -- scheduling -----------------------------------------------------

    def claim(
        self,
        worker: str,
        lease_seconds: float,
        now: Optional[float] = None,
        kind: str = "local",
    ) -> Optional[JobRecord]:
        """Claim from any reachable shard (rotating round-robin).

        Ordering is per-shard FIFO, not global — a claim drains the
        shards fairly rather than strictly oldest-first across them.
        Single-flight dedup still holds globally because twin keys
        always hash onto the same shard.  Raises
        ``sqlite3.OperationalError`` only when *no* shard is
        reachable (every circuit open), which callers already treat
        as store pressure.
        """
        now = time.time() if now is None else now
        start = next(self._claim_rr)
        reached = 0
        for offset in range(self.n_shards):
            index = (start + offset) % self.n_shards
            if not self._usable(index, now):
                continue
            try:
                job = self._call(
                    index, "claim", worker, lease_seconds,
                    now=now, kind=kind,
                )
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
            reached += 1
            if job is not None:
                return job
        if reached == 0:
            raise sqlite3.OperationalError(
                f"all {self.n_shards} job-store shards are unavailable"
            )
        return None

    def heartbeat(
        self,
        job_id: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> None:
        """Renew a running job's lease on its home shard."""
        self._scoped(
            self._route(job_id), "heartbeat", job_id, lease_seconds,
            now=now,
        )

    def recover_orphans(
        self,
        now: Optional[float] = None,
        quarantine_after: Optional[int] = None,
    ) -> List[str]:
        """Requeue expired leases on every reachable shard."""
        recovered: List[str] = []
        for index in self._each_usable():
            try:
                recovered.extend(self._call(
                    index, "recover_orphans", now=now,
                    quarantine_after=quarantine_after,
                ))
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
        return recovered

    def note_worker_failure(
        self, job_id: str, worker: Optional[str]
    ) -> Tuple[str, ...]:
        """Record a failed attempt on the job's home shard."""
        return self._scoped(
            self._route(job_id), "note_worker_failure", job_id, worker
        )

    # -- completion -----------------------------------------------------

    def complete(
        self,
        job_id: str,
        *,
        med: Optional[float] = None,
        runtime_seconds: Optional[float] = None,
        cache_hit: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Mark done on the home shard; journal the outcome."""
        now = time.time() if now is None else now
        index = self._route(job_id)
        self._scoped(
            index, "complete", job_id, med=med,
            runtime_seconds=runtime_seconds, cache_hit=cache_hit,
            now=now,
        )
        self._journal_append(index, {
            "op": "done",
            "id": job_id,
            "med": med,
            "runtime_seconds": runtime_seconds,
            "cache_hit": cache_hit,
            "finished_at": now,
        })

    def retry(self, job_id: str, error: str, not_before: float) -> None:
        """Requeue a failed attempt on the home shard (not journaled —
        non-terminal; a rebuild requeues journal-only jobs anyway).
        """
        self._scoped(
            self._route(job_id), "retry", job_id, error, not_before
        )

    def fail(
        self, job_id: str, error: str, now: Optional[float] = None
    ) -> None:
        """Permanently fail on the home shard; journal the outcome."""
        now = time.time() if now is None else now
        index = self._route(job_id)
        self._scoped(index, "fail", job_id, error, now=now)
        self._journal_append(index, {
            "op": "failed", "id": job_id, "error": error,
            "finished_at": now,
        })

    def quarantine(
        self, job_id: str, error: str, now: Optional[float] = None
    ) -> None:
        """Park a poison job on the home shard; journal the outcome."""
        now = time.time() if now is None else now
        index = self._route(job_id)
        self._scoped(index, "quarantine", job_id, error, now=now)
        self._journal_append(index, {
            "op": "quarantined", "id": job_id, "error": error,
            "finished_at": now,
        })

    # -- inspection -----------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """Fetch one job from its home shard."""
        match = _SHARD_ID_RE.match(job_id)
        if match and 0 <= int(match.group(1)) < self.n_shards:
            return self._scoped(int(match.group(1)), "get", job_id)
        for index in self._each_usable():
            try:
                return self._call(index, "get", job_id)
            except JobNotFound:
                continue
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
        raise JobNotFound(job_id)

    def list_jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """All jobs on reachable shards, oldest first."""
        records, _ = self.page_jobs(state=state)
        return records

    @staticmethod
    def _encode_cursor(record: JobRecord) -> str:
        # created_at rides in the cursor as IEEE-754 bits (hex) so any
        # shard can continue from the same global keyset position even
        # when the anchor row's home shard is degraded or rebuilt —
        # pagination never needs to resolve the cursor id
        bits = struct.unpack("<Q", struct.pack("<d", record.created_at))[0]
        return f"{bits:016x}.{record.id}"

    def _decode_cursor(self, cursor: str) -> Tuple[float, str]:
        head, sep, job_id = cursor.partition(".")
        if sep and len(head) == 16:
            try:
                bits = int(head, 16)
            except ValueError:
                bits = None
            if bits is not None:
                created_at = struct.unpack(
                    "<d", struct.pack("<Q", bits)
                )[0]
                return created_at, job_id
        # a plain job-id cursor (pre-sharding client); resolve it
        try:
            record = self.get(cursor)
        except JobNotFound:
            raise ServiceError(
                f"unknown pagination cursor {cursor!r}"
            ) from None
        return record.created_at, record.id

    def page_jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[List[JobRecord], Optional[str]]:
        """One globally-ordered page via cross-shard keyset merge.

        Each reachable shard is asked for its rows strictly after the
        cursor's ``(created_at, id)`` anchor and the streams are
        merged; the returned cursor embeds the anchor itself, so the
        walk stays stable — no skips, no repeats over surviving
        shards — even while a shard is degraded or comes back.
        """
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; states: {JOB_STATES}"
            )
        if limit is not None and limit <= 0:
            raise ServiceError(
                f"limit must be a positive integer, got {limit!r}"
            )
        after = (
            self._decode_cursor(cursor) if cursor is not None else None
        )
        per_shard = None if limit is None else limit + 1
        merged: List[JobRecord] = []
        for index in self._each_usable():
            try:
                records, _ = self._call(
                    index, "page_jobs", state=state, limit=per_shard,
                    after=after,
                )
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
            merged.extend(records)
        merged.sort(key=lambda record: (record.created_at, record.id))
        if limit is None or len(merged) <= limit:
            return merged, None
        merged = merged[:limit]
        return merged, self._encode_cursor(merged[-1])

    def find_by_key(
        self,
        artifact_key: str,
        states: Optional[Sequence[str]] = None,
    ) -> List[JobRecord]:
        """All jobs with this key — they live on exactly one shard."""
        return self._scoped(
            self.shard_for(artifact_key), "find_by_key",
            artifact_key, states,
        )

    def counts(self) -> Dict[str, int]:
        """Jobs per state summed over reachable shards."""
        totals = {job_state: 0 for job_state in JOB_STATES}
        for index in self._each_usable():
            try:
                shard_counts = self._call(index, "counts")
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
            for job_state, count in shard_counts.items():
                totals[job_state] += count
        return totals

    def pending(self) -> int:
        """Queued + running over reachable shards."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    # -- worker registry ------------------------------------------------

    def list_workers(self) -> List[WorkerRecord]:
        """The fleet merged across reachable shards.

        A worker claiming from several shards has a registry row on
        each; the merged view keeps the earliest ``first_seen``, the
        freshest heartbeat, the summed counters, and the current job
        from whichever row holds a live lease.
        """
        merged: Dict[str, WorkerRecord] = {}
        for index in self._each_usable():
            try:
                workers = self._call(index, "list_workers")
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
            for worker in workers:
                prior = merged.get(worker.id)
                if prior is None:
                    merged[worker.id] = worker
                    continue
                newest = (
                    worker
                    if worker.last_heartbeat >= prior.last_heartbeat
                    else prior
                )
                current = next(
                    (
                        w for w in (newest, worker, prior)
                        if w.current_job is not None
                    ),
                    newest,
                )
                merged[worker.id] = WorkerRecord(
                    id=worker.id,
                    kind=newest.kind,
                    first_seen=min(worker.first_seen, prior.first_seen),
                    last_heartbeat=max(
                        worker.last_heartbeat, prior.last_heartbeat
                    ),
                    current_job=current.current_job,
                    jobs_completed=(
                        worker.jobs_completed + prior.jobs_completed
                    ),
                    jobs_failed=worker.jobs_failed + prior.jobs_failed,
                    lease_expires=current.lease_expires,
                )
        return sorted(
            merged.values(), key=lambda w: (w.first_seen, w.id)
        )

    def prune_workers(
        self, idle_seconds: float, now: Optional[float] = None
    ) -> int:
        """Prune idle registry rows on every reachable shard."""
        pruned = 0
        for index in self._each_usable():
            try:
                pruned += self._call(
                    index, "prune_workers", idle_seconds, now=now
                )
            except (sqlite3.OperationalError, JobStoreCorruptError):
                continue
        return pruned

    # -- health surface -------------------------------------------------

    def shard_states(self) -> List[Dict]:
        """Breaker snapshot of every shard (healthz / metrics feed)."""
        with self._lock:
            return [health.to_dict() for health in self._health]

    def degraded_shards(self) -> List[int]:
        """Indices of shards whose circuit is currently open."""
        with self._lock:
            return [
                health.index for health in self._health
                if health.state == "degraded"
            ]

    def reset_shard(self, index: int) -> None:
        """Forget a shard's breaker state and cached handle.

        ``repro admin rebuild`` calls this (via a fresh store) — and a
        long-running service does it implicitly through the half-open
        probe once the rebuilt file answers again.
        """
        if not 0 <= index < self.n_shards:
            raise ServiceError(
                f"shard index {index} out of range 0..{self.n_shards - 1}"
            )
        health = self._health[index]
        with self._lock:
            self._stores[index] = None
            health.state = "healthy"
            health.consecutive_failures = 0
            health.tripped_at = None
            health.last_error = None
            health.last_probe = 0.0


# -- scrub / rebuild ----------------------------------------------------

def scrub_store(
    root: Union[str, Path], shards: Optional[int] = None
) -> Dict:
    """Read-only integrity audit of a service directory.

    Per shard: ``PRAGMA quick_check`` (via a fresh :class:`JobStore`
    open), a journal↔database cross-check (every journaled submit has
    a row), and a done-job↔artifact cross-check (every done row's
    artifact actually exists in the content-addressed store).
    Returns a report dict; ``report["ok"]`` is the overall verdict.
    """
    root = Path(root)
    n_shards = resolve_n_shards(root, shards)
    artifact_keys = set(ArtifactStore(root / "artifacts").keys())
    report: Dict = {"n_shards": n_shards, "ok": True, "shards": []}
    for index in range(n_shards):
        path = shard_db_path(root, index, n_shards)
        journal = (
            shard_journal_path(root, index) if n_shards > 1 else None
        )
        entry: Dict = {
            "index": index,
            "path": str(path),
            "ok": True,
            "jobs": None,
            "findings": [],
        }
        journaled = (
            list(read_journal(journal)) if journal is not None else []
        )
        if not path.exists():
            if journaled:
                entry["findings"].append(
                    "database file missing but journal has "
                    f"{len(journaled)} record(s) — run "
                    f"`repro admin rebuild --shard {index}`"
                )
        else:
            try:
                store = JobStore(path)
                jobs = store.list_jobs()
            except (JobStoreCorruptError, sqlite3.Error) as exc:
                entry["findings"].append(f"integrity: {exc}")
                jobs = None
            if jobs is not None:
                entry["jobs"] = len(jobs)
                present = {job.id for job in jobs}
                missing = [
                    record["id"] for record in journaled
                    if record.get("op") == "submit"
                    and record.get("id")
                    and record["id"] not in present
                ]
                if missing:
                    entry["findings"].append(
                        f"{len(missing)} journaled submit(s) missing "
                        "from the database (first: "
                        f"{missing[0]})"
                    )
                orphaned = [
                    job.id for job in jobs
                    if job.state == "done"
                    and job.artifact_key not in artifact_keys
                ]
                if orphaned:
                    entry["findings"].append(
                        f"{len(orphaned)} done job(s) whose artifact "
                        f"is missing from the store (first: "
                        f"{orphaned[0]})"
                    )
        if entry["findings"]:
            entry["ok"] = False
            report["ok"] = False
        report["shards"].append(entry)
    return report


def rebuild_shard(
    root: Union[str, Path],
    index: int,
    shards: Optional[int] = None,
) -> Dict:
    """Reconstruct one lost/corrupt shard from journal + artifacts.

    The damaged database file (if any) is moved aside to
    ``<name>.corrupt`` and a fresh shard is built by replaying the
    intent journal: journaled terminal outcomes are restored verbatim;
    journaled submits whose artifact already exists in the
    content-addressed store resolve as cache-hit ``done``; everything
    else is requeued with a fresh attempt budget (the decomposition is
    deterministic, so re-execution reproduces byte-identical
    artifacts).  Restores are idempotent per job id, so rebuilding a
    healthy shard is a no-op-shaped audit.
    """
    root = Path(root)
    n_shards = resolve_n_shards(root, shards)
    if n_shards < 2:
        raise ServiceError(
            "rebuild requires a sharded layout (n_shards >= 2); the "
            "single store has no per-shard journal to replay"
        )
    if not 0 <= index < n_shards:
        raise ServiceError(
            f"shard index {index} out of range 0..{n_shards - 1}"
        )
    path = shard_db_path(root, index, n_shards)
    report: Dict = {
        "shard": index,
        "path": str(path),
        "backed_up": None,
        "restored": 0,
        "requeued": 0,
        "done_from_artifact": 0,
        "terminal_from_journal": 0,
    }
    if path.exists():
        backup = path.with_name(path.name + ".corrupt")
        os.replace(path, backup)
        report["backed_up"] = str(backup)
    for suffix in ("-wal", "-shm"):
        sidecar = Path(str(path) + suffix)
        if sidecar.exists():
            sidecar.unlink()
    store = JobStore(path)
    submits: Dict[str, Dict] = {}
    terminals: Dict[str, Dict] = {}
    for record in read_journal(shard_journal_path(root, index)):
        op = record.get("op")
        job_id = record.get("id")
        if not job_id:
            continue
        if op == "submit":
            submits.setdefault(job_id, record)
        elif op in _TERMINAL_OPS:
            terminals[job_id] = record
    artifact_keys = set(ArtifactStore(root / "artifacts").keys())
    for job_id, sub in submits.items():
        base = dict(
            job_id=job_id,
            artifact_key=sub.get("artifact_key", ""),
            spec_wire=sub.get("spec", {}),
            max_attempts=int(sub.get("max_attempts", 1)),
            created_at=float(sub.get("created_at", 0.0)),
        )
        terminal = terminals.get(job_id)
        if terminal is not None:
            store.restore_job(
                state=_TERMINAL_OPS[terminal["op"]],
                attempts=1,
                error=terminal.get("error"),
                med=terminal.get("med"),
                runtime_seconds=terminal.get("runtime_seconds"),
                cache_hit=bool(terminal.get("cache_hit", False)),
                finished_at=terminal.get("finished_at"),
                **base,
            )
            report["terminal_from_journal"] += 1
        elif base["artifact_key"] in artifact_keys:
            # the solve happened — only the `done` row died with the
            # shard; resolve it from the content-addressed cache
            store.restore_job(
                state="done", attempts=1, cache_hit=True, **base
            )
            report["done_from_artifact"] += 1
        else:
            store.restore_job(state="queued", **base)
            report["requeued"] += 1
        report["restored"] += 1
    logger.info(
        "rebuilt shard %d: %d job(s) restored (%d requeued, %d done "
        "from artifacts, %d terminal from journal)",
        index, report["restored"], report["requeued"],
        report["done_from_artifact"], report["terminal_from_journal"],
    )
    return report
