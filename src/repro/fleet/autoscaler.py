"""Queue-depth-driven autoscaling of the local worker pool.

:class:`PoolAutoscaler` replaces the fixed ``n_workers`` of a
``serve`` process with a control loop: every tick it compares the
queue depth (queued + running jobs) against the pool's size and calls
:meth:`~repro.service.worker.WorkerPool.resize` within
``[min_workers, max_workers]``.  Scale-up is immediate, with fresh
worker names; scale-down retires one loop after its current job, and
only once the queue has been at-or-below the target for
``scale_down_idle_seconds``, which keeps a bursty queue from thrashing
worker churn.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.errors import ServiceError
from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics
from repro.service.worker import WorkerPool

logger = get_logger("repro.fleet.autoscaler")

__all__ = ["PoolAutoscaler"]


class PoolAutoscaler:
    """Elastic size for one worker pool.

    Parameters
    ----------
    pool:
        The pool to resize (its scheduler's store gives the depth).
    min_workers, max_workers:
        Inclusive bounds on the pool's size; ``min_workers`` may be 0
        (fully elastic — nothing runs while the queue is empty).
    interval_seconds:
        Control-loop tick.
    scale_down_idle_seconds:
        How long the queue must stay at-or-below the pool's size
        before one loop is retired.
    """

    def __init__(
        self,
        pool: WorkerPool,
        min_workers: int = 0,
        max_workers: int = 4,
        *,
        interval_seconds: float = 0.25,
        scale_down_idle_seconds: float = 2.0,
    ) -> None:
        if min_workers < 0:
            raise ServiceError(
                f"min_workers must be >= 0, got {min_workers}"
            )
        if max_workers < max(1, min_workers):
            raise ServiceError(
                f"max_workers must be >= max(1, min_workers), got "
                f"{max_workers} (min {min_workers})"
            )
        self.pool = pool
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.interval_seconds = interval_seconds
        self.scale_down_idle_seconds = scale_down_idle_seconds
        #: the size the pool was last resized to
        self.n_live = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._busy_since: Optional[float] = None

    def snapshot(self) -> Dict:
        """Control-loop state for status displays and tests."""
        return {
            "live": self.n_live,
            "retiring": self.pool.retiring,
            "min": self.min_workers,
            "max": self.max_workers,
            "spawned_total": self.pool.spawned,
        }

    # -- control loop --------------------------------------------------

    def _depth(self) -> Optional[int]:
        try:
            counts = self.pool.scheduler.store.counts()
        except Exception as exc:  # noqa: BLE001 — store may be locked
            logger.warning("autoscaler: cannot read depth (%s)", exc)
            return None
        return counts["queued"] + counts["running"]

    def _resize(self, size: int) -> None:
        name = (
            "fleet_scale_ups_total" if size > self.n_live
            else "fleet_scale_downs_total"
        )
        get_metrics().counter(
            name, help="worker loops started or retired"
        ).inc(abs(size - self.n_live))
        logger.info(
            "autoscaler: scaling %d -> %d worker(s)", self.n_live, size
        )
        self.pool.resize(size)
        self.n_live = size

    def tick(self, now: Optional[float] = None) -> None:
        """One control-loop step (public for deterministic tests)."""
        now = time.monotonic() if now is None else now
        depth = self._depth()
        if depth is None:
            return
        target = min(self.max_workers, max(self.min_workers, depth))
        if target > self.n_live:
            self._busy_since = now
            self._resize(target)
        elif self.n_live > target:
            if self._busy_since is None:
                self._busy_since = now
            elif now - self._busy_since >= self.scale_down_idle_seconds:
                self._resize(self.n_live - 1)
                self._busy_since = now
        else:
            self._busy_since = None
        get_metrics().gauge(
            "fleet_pool_units", help="live autoscaled worker loops"
        ).set(self.n_live)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.tick()
            self._stop.wait(self.interval_seconds)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "PoolAutoscaler":
        """Start the control loop (and the minimum loops) in background."""
        if self._thread is not None:
            raise ServiceError("autoscaler already started")
        if self.min_workers:
            self._resize(self.min_workers)
        self._thread = threading.Thread(
            target=self._loop, name=f"{self.pool.name}-autoscaler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the control loop and every pool loop (joins current
        jobs for up to ``timeout`` seconds)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.pool.stop(timeout)
        self.n_live = 0
