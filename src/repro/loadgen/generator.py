"""The open-loop traffic generator (no coordinated omission).

Arrival times are decided *before* any request is sent: request ``i``
of a stage at ``rps`` is due at ``start + i / rps`` on a monotonic
clock.  Sender threads pull the next due index, sleep until its
scheduled instant, fire exactly one attempt, and record both clocks:

* ``latency`` — send → response ("service latency", what the server
  saw);
* ``open_loop_latency`` — *scheduled* → response, which additionally
  charges any lateness caused by all senders being busy.  This is the
  honest number: a closed-loop driver silently converts server
  slowness into a lower arrival rate and reports flattering
  percentiles; the open-loop number keeps the debt on the books.

One attempt per arrival, ever — the submitting client must be built
with ``RetryPolicy(max_retries=0)``.  A retry would be a second
arrival the rate clock never scheduled, turning the generator into its
own retry storm exactly when the server is saturated.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import GatewayError
from repro.gateway.client import GatewayClient
from repro.loadgen.mixes import MixProfile
from repro.service.spec import JobSpec

__all__ = [
    "MixSubmitter",
    "OpenLoopGenerator",
    "RequestSample",
    "StageResult",
    "SubmitOutcome",
    "collect_completion_latencies",
]


@dataclass(frozen=True)
class SubmitOutcome:
    """What one submission attempt came back with."""

    status: int  # HTTP status; 0 = no response (connection-level)
    ok: bool
    deduplicated: bool = False
    job_id: Optional[str] = None
    error_code: Optional[str] = None


@dataclass(frozen=True)
class RequestSample:
    """One scheduled arrival, fully accounted (never omitted).

    All times are seconds relative to the stage start.
    """

    mix: str
    index: int
    scheduled: float
    sent: float
    latency: float
    open_loop_latency: float
    status: int
    ok: bool
    deduplicated: bool
    job_id: Optional[str]
    error_code: Optional[str]

    @property
    def lateness(self) -> float:
        """Seconds the send lagged its scheduled instant (>= 0)."""
        return max(0.0, self.sent - self.scheduled)


@dataclass
class StageResult:
    """Everything recorded at one (mix, offered RPS) operating point."""

    mix: str
    offered_rps: float
    duration_seconds: float
    elapsed_seconds: float
    samples: List[RequestSample] = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        """Requests that got *any* HTTP response, per elapsed second."""
        answered = sum(1 for s in self.samples if s.status > 0)
        return answered / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def accepted_rps(self) -> float:
        """Successful submissions (201 or dedup 200) per second."""
        accepted = sum(1 for s in self.samples if s.ok)
        return accepted / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def job_ids(self) -> List[str]:
        """Unique accepted job ids, first-seen order."""
        seen: Dict[str, None] = {}
        for sample in self.samples:
            if sample.job_id is not None:
                seen.setdefault(sample.job_id, None)
        return list(seen)


class MixSubmitter:
    """Adapts ``(client, mix, config)`` to the generator's submit hook.

    Specs are prebuilt in :meth:`prepare` so spec construction (Ising
    problem docs, truth tables) never runs inside the timed loop.  The
    client should carry ``RetryPolicy(max_retries=0)`` — see module
    docs.
    """

    def __init__(
        self,
        client: GatewayClient,
        mix: MixProfile,
        config,
    ) -> None:
        self.client = client
        self.mix = mix
        self.config = config
        self._specs: List[JobSpec] = []

    def prepare(self, total: int) -> None:
        """Build the first ``total`` specs up front."""
        while len(self._specs) < total:
            self._specs.append(
                self.mix.build(len(self._specs), self.config)
            )

    def spec(self, index: int) -> JobSpec:
        self.prepare(index + 1)
        return self._specs[index]

    def __call__(self, index: int) -> SubmitOutcome:
        spec = self.spec(index)
        try:
            record, deduplicated = self.client.submit(spec)
        except GatewayError as exc:
            return SubmitOutcome(
                status=exc.status,
                ok=False,
                error_code=exc.code,
            )
        return SubmitOutcome(
            status=200 if deduplicated else 201,
            ok=True,
            deduplicated=deduplicated,
            job_id=record.id,
        )


class OpenLoopGenerator:
    """Drive one submit hook at a fixed arrival rate (module docs).

    Parameters
    ----------
    submit:
        ``index -> SubmitOutcome``; typically a :class:`MixSubmitter`.
    concurrency:
        Sender threads.  Bounds in-flight requests; when all senders
        are busy, arrivals go out late and the lateness is *recorded*
        (open-loop latency), never dropped.
    clock, sleep:
        Injection points for tests (monotonic seconds).
    """

    def __init__(
        self,
        submit: Callable[[int], SubmitOutcome],
        *,
        mix_name: str = "custom",
        concurrency: int = 8,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.submit = submit
        self.mix_name = mix_name
        self.concurrency = concurrency
        self._clock = clock
        self._sleep = sleep

    def run(
        self, *, rps: float, duration_seconds: float
    ) -> StageResult:
        """One stage: ``round(rps * duration)`` scheduled arrivals."""
        if rps <= 0:
            raise ValueError(f"rps must be positive, got {rps}")
        total = max(1, int(round(rps * duration_seconds)))
        if isinstance(self.submit, MixSubmitter):
            self.submit.prepare(total)
        samples: List[Optional[RequestSample]] = [None] * total
        lock = threading.Lock()
        cursor = {"next": 0}
        start = self._clock()

        def sender() -> None:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= total:
                        return
                    cursor["next"] = index + 1
                scheduled = start + index / rps
                now = self._clock()
                if scheduled > now:
                    self._sleep(scheduled - now)
                sent = self._clock()
                outcome = self.submit(index)
                done = self._clock()
                samples[index] = RequestSample(
                    mix=self.mix_name,
                    index=index,
                    scheduled=scheduled - start,
                    sent=sent - start,
                    latency=done - sent,
                    open_loop_latency=done - scheduled,
                    status=outcome.status,
                    ok=outcome.ok,
                    deduplicated=outcome.deduplicated,
                    job_id=outcome.job_id,
                    error_code=outcome.error_code,
                )

        threads = [
            threading.Thread(target=sender, name=f"loadgen-{i}")
            for i in range(min(self.concurrency, total))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = self._clock() - start
        return StageResult(
            mix=self.mix_name,
            offered_rps=float(rps),
            duration_seconds=float(duration_seconds),
            elapsed_seconds=elapsed,
            samples=[s for s in samples if s is not None],
        )


def collect_completion_latencies(
    client: GatewayClient,
    job_ids: Sequence[str],
    *,
    timeout_seconds: float = 60.0,
    poll_seconds: float = 0.25,
) -> List[float]:
    """Submit→done latencies (server-side clocks) for finished jobs.

    Completion latency is derived from the job records'
    ``finished_at - created_at`` — queueing plus execution as the
    *server* measured it, which needs no extra instrumentation and is
    immune to client-side send lateness.  Jobs still pending at the
    deadline (or failed) are simply not in the returned list; callers
    report coverage via the list length vs ``len(job_ids)``.
    """
    deadline = time.monotonic() + timeout_seconds
    pending = list(dict.fromkeys(job_ids))
    latencies: List[float] = []
    while pending and time.monotonic() < deadline:
        still = []
        for job_id in pending:
            record = client.job(job_id)
            if record.state == "done" and record.finished_at is not None:
                latencies.append(record.finished_at - record.created_at)
            elif record.state in ("failed", "quarantined"):
                pass  # terminal without a completion — excluded
            else:
                still.append(job_id)
        pending = still
        if pending:
            time.sleep(poll_seconds)
    return latencies
