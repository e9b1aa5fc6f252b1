"""Durable job store: a SQLite journal of decomposition jobs.

The store is the single source of truth for the service — submission,
scheduling, worker leases, retries, and telemetry all read and write the
one ``jobs`` table, so any process that can open the database file can
submit, serve, or inspect (the CLI's ``submit`` / ``serve`` / ``status``
commands are separate processes by design).

Job lifecycle::

    queued ──claim──▶ running ──complete──▶ done
      ▲                  │
      │   retry (attempts < max_attempts,
      └──── backoff) ────┤
                         ├──fail──▶ failed
                         └──quarantine──▶ quarantined

``running`` jobs carry a *lease* that the worker renews via progress
heartbeats; a lease that expires without completion marks the worker as
crashed, and :meth:`JobStore.recover_orphans` atomically returns the job
to ``queued`` (or ``failed`` once its attempt budget is exhausted).
Claiming uses ``BEGIN IMMEDIATE`` so exactly one worker wins each job
even across processes.

``quarantined`` is the poison-job terminal state: every failed attempt
records its worker in the ``failed_workers`` column, and once a job has
taken down *N distinct workers* (scheduler policy, default 3) it is
parked instead of being retried — a job that reliably crashes whatever
runs it must not be allowed to cycle through the whole fleet.

Every mutation is a short transaction on a per-call connection (WAL
mode with a ``busy_timeout``), which keeps the store safe under thread
pools, process pools, and abrupt worker death — the crash-tolerance the
service advertises is exactly SQLite's.  Opening a store runs
``PRAGMA quick_check`` once and raises a typed
:class:`~repro.errors.JobStoreCorruptError` on damage, so a corrupt
database surfaces at startup rather than as an arbitrary ``sqlite3``
error mid-claim.
"""

from __future__ import annotations

import json
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import JobNotFound, JobStoreCorruptError, ServiceError
from repro.resilience.faults import active_fault_plan
from repro.service.spec import JobSpec, spec_from_stored

__all__ = [
    "JobStore",
    "JobRecord",
    "WorkerRecord",
    "JOB_STATES",
    "TERMINAL_STATES",
]

JOB_STATES = ("queued", "running", "done", "failed", "quarantined")

#: states a job never leaves on its own
TERMINAL_STATES = ("done", "failed", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              TEXT PRIMARY KEY,
    artifact_key    TEXT NOT NULL,
    spec            TEXT NOT NULL,
    state           TEXT NOT NULL CHECK (state IN
                        ('queued', 'running', 'done', 'failed',
                         'quarantined')),
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL,
    not_before      REAL NOT NULL DEFAULT 0,
    lease_expires   REAL,
    worker          TEXT,
    cache_hit       INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    runtime_seconds REAL,
    med             REAL,
    failed_workers  TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, not_before);
CREATE INDEX IF NOT EXISTS idx_jobs_key ON jobs (artifact_key);
CREATE TABLE IF NOT EXISTS workers (
    id              TEXT PRIMARY KEY,
    kind            TEXT NOT NULL DEFAULT 'local',
    first_seen      REAL NOT NULL,
    last_heartbeat  REAL NOT NULL,
    current_job     TEXT,
    jobs_completed  INTEGER NOT NULL DEFAULT 0,
    jobs_failed     INTEGER NOT NULL DEFAULT 0
);
"""

#: columns shared by the pre-quarantine schema and the current one, in
#: the order the migration copies them
_V1_COLUMNS = (
    "id, artifact_key, spec, state, attempts, max_attempts, not_before, "
    "lease_expires, worker, cache_hit, error, created_at, started_at, "
    "finished_at, runtime_seconds, med"
)


@dataclass(frozen=True)
class JobRecord:
    """Immutable snapshot of one row of the ``jobs`` table."""

    id: str
    artifact_key: str
    spec: JobSpec
    state: str
    attempts: int
    max_attempts: int
    not_before: float
    lease_expires: Optional[float]
    worker: Optional[str]
    cache_hit: bool
    error: Optional[str]
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    runtime_seconds: Optional[float]
    med: Optional[float]
    failed_workers: Tuple[str, ...] = ()

    @property
    def retries(self) -> int:
        """Executed retries (attempts beyond the first)."""
        return max(0, self.attempts - 1)

    def to_dict(self) -> Dict:
        """Plain-JSON snapshot; the gateway's job-status body.

        The spec travels in wire form so a record round-tripped through
        :meth:`from_dict` (the remote ``status`` path) is
        indistinguishable from one read off the local store.
        """
        return {
            "id": self.id,
            "artifact_key": self.artifact_key,
            "spec": self.spec.to_wire(),
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "lease_expires": self.lease_expires,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "runtime_seconds": self.runtime_seconds,
            "med": self.med,
            "failed_workers": list(self.failed_workers),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobRecord":
        """Rebuild a record serialized by :meth:`to_dict`."""
        try:
            return cls(
                id=data["id"],
                artifact_key=data["artifact_key"],
                spec=spec_from_stored(data["spec"]),
                state=data["state"],
                attempts=int(data["attempts"]),
                max_attempts=int(data["max_attempts"]),
                not_before=float(data.get("not_before", 0.0)),
                lease_expires=data.get("lease_expires"),
                worker=data.get("worker"),
                cache_hit=bool(data.get("cache_hit", False)),
                error=data.get("error"),
                created_at=float(data["created_at"]),
                started_at=data.get("started_at"),
                finished_at=data.get("finished_at"),
                runtime_seconds=data.get("runtime_seconds"),
                med=data.get("med"),
                failed_workers=tuple(data.get("failed_workers", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job record: {exc}") from exc


@dataclass(frozen=True)
class WorkerRecord:
    """One row of the ``workers`` registry table.

    Rows are maintained as a *side effect* of the lease API: a claim
    registers (or refreshes) the claiming worker, every heartbeat
    refreshes ``last_heartbeat``, and completion-path transitions bump
    the per-worker counters.  The registry is therefore exactly as
    durable and process-oblivious as the jobs table itself — any
    process reading the store sees the same fleet, which is what the
    ``repro status --workers`` view and the gateway's ``GET
    /v1/workers`` endpoint render.
    """

    id: str
    kind: str
    first_seen: float
    last_heartbeat: float
    current_job: Optional[str]
    jobs_completed: int
    jobs_failed: int
    lease_expires: Optional[float] = None

    def to_dict(self, now: Optional[float] = None) -> Dict:
        """Plain-JSON snapshot (the ``GET /v1/workers`` wire shape)."""
        now = time.time() if now is None else now
        return {
            "id": self.id,
            "kind": self.kind,
            "first_seen": self.first_seen,
            "last_heartbeat": self.last_heartbeat,
            "heartbeat_age_seconds": round(
                max(0.0, now - self.last_heartbeat), 3
            ),
            "current_job": self.current_job,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "lease_expires": self.lease_expires,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkerRecord":
        """Rebuild a record serialized by :meth:`to_dict`."""
        try:
            return cls(
                id=data["id"],
                kind=data.get("kind", "local"),
                first_seen=float(data["first_seen"]),
                last_heartbeat=float(data["last_heartbeat"]),
                current_job=data.get("current_job"),
                jobs_completed=int(data.get("jobs_completed", 0)),
                jobs_failed=int(data.get("jobs_failed", 0)),
                lease_expires=data.get("lease_expires"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed worker record: {exc}") from exc


def _record_from_row(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        id=row["id"],
        artifact_key=row["artifact_key"],
        spec=spec_from_stored(json.loads(row["spec"])),
        state=row["state"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        not_before=row["not_before"],
        lease_expires=row["lease_expires"],
        worker=row["worker"],
        cache_hit=bool(row["cache_hit"]),
        error=row["error"],
        created_at=row["created_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        runtime_seconds=row["runtime_seconds"],
        med=row["med"],
        failed_workers=tuple(json.loads(row["failed_workers"])),
    )


class JobStore:
    """SQLite-backed durable job journal (see module docs)."""

    #: how long a connection waits on a locked database before raising
    BUSY_TIMEOUT_SECONDS = 30.0

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        try:
            # sqlite3's context manager commits but never closes; a
            # connection left to the cyclic GC can later checkpoint its
            # WAL into whatever file then sits at this path
            conn = self._connect()
            try:
                if existed:
                    self._integrity_check(conn)
                    self._migrate(conn)
                conn.executescript(_SCHEMA)
                conn.commit()
            finally:
                conn.close()
        except sqlite3.OperationalError:
            raise  # transient (locked / injected), not corruption
        except sqlite3.DatabaseError as exc:
            # _connect's PRAGMAs hit unreadable files before the
            # quick_check can run; surface those the same typed way
            raise JobStoreCorruptError(
                f"job store {self.path} is not a readable SQLite "
                f"database: {exc}"
            ) from exc

    def _integrity_check(self, conn: sqlite3.Connection) -> None:
        """``PRAGMA quick_check`` once per open; typed error on damage."""
        try:
            rows = conn.execute("PRAGMA quick_check").fetchall()
        except sqlite3.DatabaseError as exc:
            raise JobStoreCorruptError(
                f"job store {self.path} is not a readable SQLite "
                f"database: {exc}"
            ) from exc
        findings = [row[0] for row in rows if row[0] != "ok"]
        if findings:
            raise JobStoreCorruptError(
                f"job store {self.path} failed its integrity check: "
                + "; ".join(findings)
            )

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Rebuild a pre-quarantine ``jobs`` table in place.

        The ``state`` CHECK constraint is baked into the table DDL, so
        admitting the ``quarantined`` state (and the ``failed_workers``
        column) for a database written by an older build requires the
        SQLite rename–copy–drop dance.  Idempotent: a current-schema
        table is left untouched.
        """
        row = conn.execute(
            "SELECT sql FROM sqlite_master "
            "WHERE type = 'table' AND name = 'jobs'"
        ).fetchone()
        if row is None or "quarantined" in (row["sql"] or ""):
            return
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("ALTER TABLE jobs RENAME TO jobs_migrating")
        conn.executescript(_SCHEMA)
        conn.execute(
            f"INSERT INTO jobs ({_V1_COLUMNS}) "
            f"SELECT {_V1_COLUMNS} FROM jobs_migrating"
        )
        conn.execute("DROP TABLE jobs_migrating")
        conn.commit()

    def _connect(self) -> sqlite3.Connection:
        plan = active_fault_plan()
        if plan is not None and plan.should_fire(
            "jobstore.operational_error", detail=str(self.path)
        ):
            raise sqlite3.OperationalError(
                "injected fault: database is locked"
            )
        conn = sqlite3.connect(
            self.path, timeout=self.BUSY_TIMEOUT_SECONDS
        )
        try:
            conn.row_factory = sqlite3.Row
            # a garbage file fails here, on the first statement
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            # explicit busy handler: sqlite3's ``timeout=`` covers the
            # Python wrapper, busy_timeout covers statements SQLite retries
            # internally (WAL checkpoints), and the value survives
            # ``BEGIN IMMEDIATE`` contention between worker processes
            conn.execute(
                f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_SECONDS * 1000)}"
            )
        except BaseException:
            conn.close()
            raise
        return conn

    @contextmanager
    def _txn(self, immediate: bool = False):
        conn = self._connect()
        try:
            if immediate:
                conn.execute("BEGIN IMMEDIATE")
            yield conn
            plan = active_fault_plan()
            if plan is not None and plan.should_fire(
                "jobstore.disk_full", detail=str(self.path)
            ):
                raise sqlite3.OperationalError(
                    "injected fault: database or disk is full"
                )
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
        finally:
            conn.close()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        artifact_key: str,
        now: Optional[float] = None,
        job_id: Optional[str] = None,
    ) -> JobRecord:
        """Enqueue a new job; returns its freshly-created record.

        ``job_id`` lets a caller pre-assign the id — the sharded store
        uses this to tag ids with their home shard (and to journal the
        submission intent before the row exists).
        """
        now = time.time() if now is None else now
        if job_id is None:
            job_id = f"job-{uuid.uuid4().hex[:12]}"
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO jobs (id, artifact_key, spec, state, "
                "max_attempts, created_at) VALUES (?, ?, ?, 'queued', ?, ?)",
                (
                    job_id,
                    artifact_key,
                    json.dumps(spec.to_wire(), sort_keys=True),
                    spec.max_attempts,
                    now,
                ),
            )
        return self.get(job_id)

    def restore_job(
        self,
        *,
        job_id: str,
        artifact_key: str,
        spec_wire: Dict,
        state: str,
        max_attempts: int,
        created_at: float,
        attempts: int = 0,
        error: Optional[str] = None,
        med: Optional[float] = None,
        runtime_seconds: Optional[float] = None,
        cache_hit: bool = False,
        finished_at: Optional[float] = None,
    ) -> None:
        """Insert one job row verbatim (shard rebuild only).

        Unlike :meth:`submit` this writes a row in any state with its
        original id and timestamps — it is how
        :func:`repro.service.shards.rebuild_shard` replays a lost
        shard's intent journal into a fresh database.  Idempotent per
        id: an existing row is left untouched (the rebuild may replay
        a journal that partially overlaps a surviving database).
        """
        if state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; states: {JOB_STATES}"
            )
        with self._txn() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO jobs (id, artifact_key, spec, "
                "state, attempts, max_attempts, cache_hit, error, "
                "created_at, finished_at, runtime_seconds, med) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    artifact_key,
                    json.dumps(spec_wire, sort_keys=True),
                    state,
                    attempts,
                    max_attempts,
                    int(cache_hit),
                    error,
                    created_at,
                    finished_at,
                    runtime_seconds,
                    med,
                ),
            )

    # -- scheduling ----------------------------------------------------

    @staticmethod
    def _upsert_worker(
        conn: sqlite3.Connection,
        worker: str,
        *,
        kind: str,
        now: float,
        job_id: Optional[str] = None,
    ) -> None:
        """Register/refresh one worker row inside an open transaction."""
        conn.execute(
            "INSERT INTO workers (id, kind, first_seen, last_heartbeat, "
            "current_job) VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(id) DO UPDATE SET "
            "kind = excluded.kind, "
            "last_heartbeat = excluded.last_heartbeat, "
            "current_job = COALESCE(excluded.current_job, "
            "workers.current_job)",
            (worker, kind, now, now, job_id),
        )

    def claim(
        self,
        worker: str,
        lease_seconds: float,
        now: Optional[float] = None,
        kind: str = "local",
    ) -> Optional[JobRecord]:
        """Atomically move the oldest eligible queued job to running.

        Returns ``None`` when nothing is eligible (empty queue, or all
        queued jobs still inside their retry-backoff window).  Either
        way the claiming worker is registered/refreshed in the
        ``workers`` table (``kind`` distinguishes local pool threads
        from ``"remote"`` fleet agents claiming over the gateway) — an
        idle worker polling an empty queue is still a live worker.

        Duplicate submissions are *single-flighted*: a queued job whose
        artifact key is already running is never claimed — it waits for
        the in-flight twin, then resolves instantly from the artifact
        cache instead of burning a second solve.  (If the twin fails
        permanently, the key stops being in flight and the waiter runs
        itself.)
        """
        now = time.time() if now is None else now
        with self._txn(immediate=True) as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' AND "
                "not_before <= ? AND artifact_key NOT IN "
                "(SELECT artifact_key FROM jobs WHERE state = 'running') "
                "ORDER BY created_at, id LIMIT 1",
                (now,),
            ).fetchone()
            self._upsert_worker(
                conn, worker, kind=kind, now=now,
                job_id=row["id"] if row is not None else None,
            )
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', attempts = attempts + 1,"
                " worker = ?, started_at = ?, lease_expires = ?, error = NULL"
                " WHERE id = ?",
                (worker, now, now + lease_seconds, row["id"]),
            )
            job_id = row["id"]
        return self.get(job_id)

    def heartbeat(
        self,
        job_id: str,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> None:
        """Renew a running job's lease (driven by progress hooks).

        The holder's registry row is refreshed in the same transaction
        — the fleet view's ``last heartbeat age`` is exactly the lease
        heartbeat, not a second liveness channel that could drift.
        """
        now = time.time() if now is None else now
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE id = ? AND state = 'running'",
                (now + lease_seconds, job_id),
            )
            conn.execute(
                "UPDATE workers SET last_heartbeat = ?, current_job = ? "
                "WHERE id = (SELECT worker FROM jobs "
                "WHERE id = ? AND state = 'running')",
                (now, job_id, job_id),
            )

    def recover_orphans(
        self,
        now: Optional[float] = None,
        quarantine_after: Optional[int] = None,
    ) -> List[str]:
        """Requeue running jobs whose lease expired (crashed workers).

        Each lost worker is recorded in the job's ``failed_workers``
        set; with ``quarantine_after`` set, a job that has now failed
        on that many *distinct* workers moves to ``quarantined``.  A
        job whose attempt budget is already spent moves to ``failed``.
        Returns the ids of every transitioned job.
        """
        now = time.time() if now is None else now
        with self._txn(immediate=True) as conn:
            rows = conn.execute(
                "SELECT id, attempts, max_attempts, worker, "
                "failed_workers FROM jobs "
                "WHERE state = 'running' AND lease_expires < ?",
                (now,),
            ).fetchall()
            return [
                self._release_row(
                    conn,
                    row,
                    now=now,
                    error="worker lost (lease expired)",
                    quarantine_after=quarantine_after,
                )
                for row in rows
            ]

    @staticmethod
    def _release_row(
        conn: sqlite3.Connection,
        row: sqlite3.Row,
        *,
        now: float,
        error: str,
        quarantine_after: Optional[int],
    ) -> str:
        """Route one lost running job: requeue, fail, or quarantine."""
        failed_workers = json.loads(row["failed_workers"])
        if row["worker"] and row["worker"] not in failed_workers:
            failed_workers.append(row["worker"])
        workers_json = json.dumps(failed_workers)
        if (
            quarantine_after is not None
            and len(failed_workers) >= quarantine_after
        ):
            conn.execute(
                "UPDATE jobs SET state = 'quarantined', finished_at = ?, "
                "error = ?, lease_expires = NULL, failed_workers = ? "
                "WHERE id = ?",
                (
                    now,
                    f"{error}; quarantined after failing on "
                    f"{len(failed_workers)} distinct worker(s)",
                    workers_json,
                    row["id"],
                ),
            )
        elif row["attempts"] >= row["max_attempts"]:
            conn.execute(
                "UPDATE jobs SET state = 'failed', finished_at = ?, "
                "error = ?, lease_expires = NULL, failed_workers = ? "
                "WHERE id = ?",
                (
                    now,
                    f"{error}; attempts exhausted",
                    workers_json,
                    row["id"],
                ),
            )
        else:
            conn.execute(
                "UPDATE jobs SET state = 'queued', lease_expires = NULL, "
                "worker = NULL, error = ?, failed_workers = ? "
                "WHERE id = ?",
                (error, workers_json, row["id"]),
            )
        if row["worker"]:
            # Charge the lost attempt to the holder's registry row, but
            # leave last_heartbeat alone — the holder is presumed dead.
            conn.execute(
                "UPDATE workers SET jobs_failed = jobs_failed + 1, "
                "current_job = CASE WHEN current_job = ? THEN NULL "
                "ELSE current_job END WHERE id = ?",
                (row["id"], row["worker"]),
            )
        return row["id"]

    def note_worker_failure(
        self, job_id: str, worker: Optional[str]
    ) -> Tuple[str, ...]:
        """Record that ``worker``'s attempt at ``job_id`` failed.

        Returns the updated set of distinct failed workers — the
        scheduler compares its size against the quarantine threshold.
        """
        with self._txn(immediate=True) as conn:
            row = conn.execute(
                "SELECT failed_workers FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise JobNotFound(job_id)
            failed_workers = json.loads(row["failed_workers"])
            if worker and worker not in failed_workers:
                failed_workers.append(worker)
                conn.execute(
                    "UPDATE jobs SET failed_workers = ? WHERE id = ?",
                    (json.dumps(failed_workers), job_id),
                )
        return tuple(failed_workers)

    # -- completion ----------------------------------------------------

    def complete(
        self,
        job_id: str,
        *,
        med: Optional[float] = None,
        runtime_seconds: Optional[float] = None,
        cache_hit: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Mark a running job done (optionally resolved from the cache)."""
        now = time.time() if now is None else now
        self._transition(
            job_id,
            "UPDATE jobs SET state = 'done', finished_at = ?, med = ?, "
            "runtime_seconds = ?, cache_hit = ?, error = NULL, "
            "lease_expires = NULL WHERE id = ? AND state = 'running'",
            (now, med, runtime_seconds, int(cache_hit), job_id),
            outcome="completed",
            now=now,
        )

    def retry(
        self,
        job_id: str,
        error: str,
        not_before: float,
    ) -> None:
        """Return a failed attempt to the queue with a backoff gate."""
        self._transition(
            job_id,
            "UPDATE jobs SET state = 'queued', error = ?, not_before = ?, "
            "lease_expires = NULL, worker = NULL "
            "WHERE id = ? AND state = 'running'",
            (error, not_before, job_id),
            outcome="failed",
            now=time.time(),
        )

    def fail(
        self, job_id: str, error: str, now: Optional[float] = None
    ) -> None:
        """Permanently fail a running job (attempt budget exhausted)."""
        now = time.time() if now is None else now
        self._transition(
            job_id,
            "UPDATE jobs SET state = 'failed', error = ?, finished_at = ?, "
            "lease_expires = NULL WHERE id = ? AND state = 'running'",
            (error, now, job_id),
            outcome="failed",
            now=now,
        )

    def quarantine(
        self, job_id: str, error: str, now: Optional[float] = None
    ) -> None:
        """Park a running poison job permanently (see module docs)."""
        now = time.time() if now is None else now
        self._transition(
            job_id,
            "UPDATE jobs SET state = 'quarantined', error = ?, "
            "finished_at = ?, lease_expires = NULL "
            "WHERE id = ? AND state = 'running'",
            (error, now, job_id),
            outcome="failed",
            now=now,
        )

    def _transition(
        self,
        job_id: str,
        sql: str,
        params,
        *,
        outcome: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        with self._txn(immediate=True) as conn:
            prior = conn.execute(
                "SELECT state, worker FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if prior is None:
                raise JobNotFound(job_id)
            cursor = conn.execute(sql, params)
            if cursor.rowcount == 0:
                raise ServiceError(
                    f"job {job_id} is {prior['state']!r}; transition refused"
                )
            if outcome is not None and prior["worker"]:
                done = 1 if outcome == "completed" else 0
                conn.execute(
                    "UPDATE workers SET "
                    "jobs_completed = jobs_completed + ?, "
                    "jobs_failed = jobs_failed + ?, "
                    "last_heartbeat = ?, "
                    "current_job = CASE WHEN current_job = ? "
                    "THEN NULL ELSE current_job END "
                    "WHERE id = ?",
                    (
                        done,
                        1 - done,
                        time.time() if now is None else now,
                        job_id,
                        prior["worker"],
                    ),
                )

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """Fetch one job by id; raises :class:`JobNotFound`."""
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobNotFound(job_id)
        return _record_from_row(row)

    def list_jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """All jobs (optionally filtered by state), oldest first."""
        records, _ = self.page_jobs(state=state)
        return records

    def page_jobs(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
        after: Optional[Tuple[float, str]] = None,
    ) -> Tuple[List[JobRecord], Optional[str]]:
        """One page of jobs, oldest first: ``(records, next_cursor)``.

        The cursor is the last-seen job id; pagination continues from
        strictly after that job in ``(created_at, id)`` order, which is
        stable under concurrent submissions — rows never shift under a
        paginating reader the way OFFSET pages do, so no job is skipped
        or repeated.  ``next_cursor`` is ``None`` on the final page.
        ``limit=None`` returns everything in one page (legacy shape).
        An unknown ``cursor`` or ``state`` raises
        :class:`~repro.errors.ServiceError`.

        ``after`` is an explicit ``(created_at, id)`` anchor used
        instead of cursor resolution — the sharded store's cross-shard
        keyset merge passes it so every shard can continue from the
        same global position even when the anchor row lives (or lived)
        on a different shard.
        """
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; states: {JOB_STATES}"
            )
        if limit is not None and limit <= 0:
            raise ServiceError(
                f"limit must be a positive integer, got {limit!r}"
            )
        clauses: List[str] = []
        params: List = []
        with self._txn() as conn:
            if cursor is not None and after is None:
                anchor = conn.execute(
                    "SELECT created_at, id FROM jobs WHERE id = ?",
                    (cursor,),
                ).fetchone()
                if anchor is None:
                    raise ServiceError(
                        f"unknown pagination cursor {cursor!r}"
                    )
                after = (anchor["created_at"], cursor)
            if after is not None:
                clauses.append(
                    "(created_at > ? OR (created_at = ? AND id > ?))"
                )
                params.extend([after[0], after[0], after[1]])
            if state is not None:
                clauses.append("state = ?")
                params.append(state)
            query = "SELECT * FROM jobs"
            if clauses:
                query += " WHERE " + " AND ".join(clauses)
            query += " ORDER BY created_at, id"
            if limit is not None:
                # one extra row tells us whether a next page exists
                query += " LIMIT ?"
                params.append(limit + 1)
            rows = conn.execute(query, tuple(params)).fetchall()
        next_cursor: Optional[str] = None
        if limit is not None and len(rows) > limit:
            rows = rows[:limit]
            next_cursor = rows[-1]["id"]
        return [_record_from_row(row) for row in rows], next_cursor

    def find_by_key(
        self,
        artifact_key: str,
        states: Optional[Sequence[str]] = None,
    ) -> List[JobRecord]:
        """All jobs with this artifact key, oldest first.

        ``states`` optionally restricts the search — the idempotent
        submission path asks for ``("queued", "running", "done")`` to
        find a live twin while ignoring failed attempts.
        """
        query = "SELECT * FROM jobs WHERE artifact_key = ?"
        params: List = [artifact_key]
        if states is not None:
            for state in states:
                if state not in JOB_STATES:
                    raise ServiceError(
                        f"unknown job state {state!r}; states: {JOB_STATES}"
                    )
            placeholders = ", ".join("?" for _ in states)
            query += f" AND state IN ({placeholders})"
            params.extend(states)
        query += " ORDER BY created_at, id"
        with self._txn() as conn:
            rows = conn.execute(query, tuple(params)).fetchall()
        return [_record_from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (all states present, zero-filled)."""
        with self._txn() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def pending(self) -> int:
        """Jobs still owed a result (queued or running)."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    # -- worker registry -----------------------------------------------

    def list_workers(self) -> List[WorkerRecord]:
        """Every worker ever seen by this store, oldest first.

        ``lease_expires`` is joined in from the worker's current
        *running* job (``None`` for idle workers), so callers can show
        lease health without a second query.
        """
        with self._txn() as conn:
            rows = conn.execute(
                "SELECT w.*, j.lease_expires AS lease_expires "
                "FROM workers AS w LEFT JOIN jobs AS j "
                "ON j.id = w.current_job AND j.state = 'running' "
                "ORDER BY w.first_seen, w.id"
            ).fetchall()
        return [
            WorkerRecord(
                id=row["id"],
                kind=row["kind"],
                first_seen=row["first_seen"],
                last_heartbeat=row["last_heartbeat"],
                current_job=row["current_job"],
                jobs_completed=row["jobs_completed"],
                jobs_failed=row["jobs_failed"],
                lease_expires=row["lease_expires"],
            )
            for row in rows
        ]

    def prune_workers(
        self, idle_seconds: float, now: Optional[float] = None
    ) -> int:
        """Drop idle registry rows not heard from in ``idle_seconds``.

        Workers with a current job are never pruned — their fate is
        decided by lease expiry, not registry housekeeping.  Returns
        the number of rows removed.
        """
        now = time.time() if now is None else now
        with self._txn(immediate=True) as conn:
            cursor = conn.execute(
                "DELETE FROM workers WHERE current_job IS NULL "
                "AND last_heartbeat < ?",
                (now - idle_seconds,),
            )
            return cursor.rowcount
