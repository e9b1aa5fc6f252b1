"""Soak mode: a fixed-RPS plateau with the chaos seams armed.

The soak's claim is the strongest one the serving stack makes: **load
and faults change *when* results arrive, never *what* they are.**  A
plateau of submissions runs with a :class:`FaultPlan` installed
(worker crashes, client connection drops — the PR 5 seams), every job
is then driven to completion, and each artifact is byte-compared
against a fresh, unloaded, fault-free local solve of the identical
spec.  Artifact keys content-address (table, semantic config) and the
seeded search is replay-exact, so any byte difference is a real
determinism regression — not noise.

Unlike the sweep generator (one attempt per arrival), the soak
submitter *retries*: submission is idempotent end to end, so a
connection-dropped submit is safely replayed, and what we measure here
is eventual artifact identity, not per-arrival latency honesty.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import GatewayError
from repro.gateway.client import GatewayClient
from repro.loadgen.generator import OpenLoopGenerator, MixSubmitter, StageResult
from repro.loadgen.mixes import MixProfile
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.service.scheduler import SchedulerPolicy
from repro.service.service import DecompositionService

__all__ = ["default_soak_plan", "run_soak"]


def default_soak_plan(seed: int = 0) -> FaultPlan:
    """The standard soak chaos: 2 worker crashes + 2 connection drops.

    Deterministic call ordinals (not probabilities) so every soak run
    injects the same story; bounded so the default job retry budget
    (``max_attempts=3``) always survives it.
    """
    return FaultPlan(
        [
            FaultRule(site="worker.crash", at_calls=(1, 3)),
            FaultRule(site="client.connection_drop", at_calls=(2, 5)),
        ],
        seed=seed,
    )


def _canonical(design: Dict) -> str:
    return json.dumps(design, sort_keys=True)


def run_soak(
    client: GatewayClient,
    mix: MixProfile,
    config,
    *,
    rps: float,
    duration_seconds: float,
    baseline_dir: Union[str, Path],
    plan: Optional[FaultPlan] = None,
    concurrency: int = 8,
    wait_timeout_seconds: float = 300.0,
    baseline_workers: int = 2,
) -> Tuple[Dict, StageResult]:
    """Run the plateau and byte-compare artifacts (module docs).

    Parameters
    ----------
    client:
        A *retrying* gateway client (default :class:`RetryPolicy` is
        right) — the armed ``client.connection_drop`` seam depends on
        retries to make submission eventually succeed.
    mix, config:
        The traffic profile and its base framework config.
    baseline_dir:
        Fresh directory for the unloaded local comparison service.
    plan:
        Fault plan to arm during the loaded phase
        (default :func:`default_soak_plan`); cleared before the
        completion/baseline phases.

    Returns ``(summary, stage)`` — the JSON-ready soak block and the
    raw stage for SLO evaluation.
    """
    plan = plan if plan is not None else default_soak_plan()
    submitter = MixSubmitter(client, mix, config)
    generator = OpenLoopGenerator(
        submitter,
        mix_name=mix.name,
        concurrency=concurrency,
    )
    with fault_injection(plan):
        stage = generator.run(rps=rps, duration_seconds=duration_seconds)

    # chaos is disarmed from here on: drive every scheduled spec to an
    # accepted job (idempotent resubmission repairs any arrival whose
    # retries were exhausted mid-drop), then to completion
    total = len(stage.samples)
    job_by_index: Dict[int, str] = {
        s.index: s.job_id
        for s in stage.samples
        if s.job_id is not None
    }
    resubmitted = 0
    for index in range(total):
        if index not in job_by_index:
            record, _ = client.submit(submitter.spec(index))
            job_by_index[index] = record.id
            resubmitted += 1

    completed: Dict[int, str] = {}
    failures: Dict[int, str] = {}
    for index, job_id in sorted(job_by_index.items()):
        try:
            record = client.wait(
                job_id, timeout_seconds=wait_timeout_seconds
            )
        except GatewayError as exc:
            failures[index] = f"wait failed: {exc}"
            continue
        if record.state != "done":
            failures[index] = (
                f"terminal state {record.state!r}: {record.error}"
            )
            continue
        completed[index] = _canonical(
            client.result(job_id)["design"]
        )

    # the unloaded control: same specs, fresh service, no faults
    baseline = DecompositionService(
        baseline_dir,
        n_workers=baseline_workers,
        policy=SchedulerPolicy(
            retry_backoff_seconds=0.01, poll_interval_seconds=0.01
        ),
    )
    baseline_jobs = {
        index: baseline.submit_idempotent(submitter.spec(index))[0].id
        for index in sorted(completed)
    }
    baseline.run_until_drained(timeout=wait_timeout_seconds)
    mismatches = []
    for index, loaded_design in sorted(completed.items()):
        envelope = baseline.fetch_envelope(baseline_jobs[index])
        if _canonical(envelope["design"]) != loaded_design:
            mismatches.append(index)
    byte_identical = (
        not mismatches and not failures and len(completed) == total
    )
    with contextlib.suppress(Exception):
        baseline.pool.stop()
    summary = {
        "mix": mix.name,
        "offered_rps": round(stage.offered_rps, 3),
        "duration_seconds": round(stage.duration_seconds, 3),
        "requests": total,
        "accepted_during_load": sum(1 for s in stage.samples if s.ok),
        "resubmitted_after_chaos": resubmitted,
        "completed": len(completed),
        "failed": dict(sorted(failures.items())),
        "compared": len(completed),
        "mismatches": mismatches,
        "byte_identical": byte_identical,
        "fault_plan": plan.to_spec(),
    }
    return summary, stage
