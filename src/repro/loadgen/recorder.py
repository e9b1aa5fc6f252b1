"""Stage summaries, knee detection, and the BENCH_load payload.

The knee methodology: stages are run in ascending offered-RPS order;
the first stage is the *base* operating point.  A stage "holds" when

* its p95 open-loop latency stays within ``knee_factor`` × the base
  stage's p95,
* it achieves at least ``min_achieved_ratio`` of the offered rate, and
* its shed rate (429 + 503 responses) stays at or under
  ``max_shed_rate``.

The knee is the **last stage that holds** before the first one that
does not; when every stage holds, the sweep never saturated and the
knee block says so (``saturated: false``) — the harness still reports
the highest clean operating point instead of inventing a violation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.loadgen.generator import StageResult

__all__ = [
    "build_report",
    "find_knee",
    "latency_summary",
    "percentile",
    "summarize_stage",
]

_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 on an empty series."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return float(
        ordered[lower] * (1.0 - weight) + ordered[upper] * weight
    )


def latency_summary(seconds: Sequence[float]) -> Optional[Dict]:
    """Percentile block in milliseconds, or ``None`` without data."""
    if not seconds:
        return None
    block = {
        f"p{int(q)}_ms": round(percentile(seconds, q) * 1000.0, 3)
        for q in _PERCENTILES
    }
    block["max_ms"] = round(max(seconds) * 1000.0, 3)
    block["count"] = len(seconds)
    return block


def summarize_stage(
    stage: StageResult,
    completion_latencies: Optional[Sequence[float]] = None,
) -> Dict:
    """One JSON row of the latency-vs-offered-RPS curve.

    ``error_rate`` counts every request that did not succeed;
    ``shed_rate`` counts 429 + 503 (the gateway protecting itself),
    which the knee rule treats separately from hard errors.
    """
    samples = stage.samples
    total = len(samples)
    ok = [s for s in samples if s.ok]
    shed = [s for s in samples if s.status in (429, 503)]
    errors = [
        s
        for s in samples
        if not s.ok and s.status not in (429, 503)
    ]
    summary = {
        "offered_rps": round(stage.offered_rps, 3),
        "achieved_rps": round(stage.achieved_rps, 3),
        "accepted_rps": round(stage.accepted_rps, 3),
        "duration_seconds": round(stage.duration_seconds, 3),
        "elapsed_seconds": round(stage.elapsed_seconds, 3),
        "requests": total,
        "ok": len(ok),
        "deduplicated": sum(1 for s in ok if s.deduplicated),
        "shed": len(shed),
        "errors": len(errors),
        "rate_429": sum(1 for s in samples if s.status == 429),
        "rate_503": sum(1 for s in samples if s.status == 503),
        "connection_failures": sum(
            1 for s in samples if s.status == 0
        ),
        "shed_rate": round(len(shed) / total, 4) if total else 0.0,
        "error_rate": round((total - len(ok)) / max(1, total), 4),
        "mean_lateness_ms": (
            round(
                sum(s.lateness for s in samples) / total * 1000.0, 3
            )
            if total
            else 0.0
        ),
        "service_latency": latency_summary(
            [s.latency for s in samples if s.status > 0]
        ),
        "open_loop_latency": latency_summary(
            [s.open_loop_latency for s in samples if s.status > 0]
        ),
        "completion_latency": (
            latency_summary(list(completion_latencies))
            if completion_latencies is not None
            else None
        ),
    }
    return summary


def _p95_open_loop(summary: Dict) -> Optional[float]:
    block = summary.get("open_loop_latency")
    if block is None:
        return None
    return block.get("p95_ms")


def find_knee(
    stage_summaries: Sequence[Dict],
    *,
    knee_factor: float = 3.0,
    min_achieved_ratio: float = 0.9,
    max_shed_rate: float = 0.1,
) -> Dict:
    """Identify the knee of one mix's sweep (module docs).

    ``stage_summaries`` must be in ascending offered-RPS order.  The
    returned block always exists — ``saturated`` says whether any
    stage actually violated the hold conditions.
    """
    if not stage_summaries:
        return {"saturated": False, "offered_rps": None, "reason": "no stages"}
    base_p95 = _p95_open_loop(stage_summaries[0])
    knee = stage_summaries[0]
    violated: Optional[Dict] = None
    reason = "all stages held"
    for summary in stage_summaries:
        p95 = _p95_open_loop(summary)
        holds = True
        why = []
        if (
            base_p95 is not None
            and p95 is not None
            and base_p95 > 0
            and p95 > knee_factor * base_p95
        ):
            holds = False
            why.append(
                f"p95 {p95:.1f}ms > {knee_factor:g}x base {base_p95:.1f}ms"
            )
        if summary["achieved_rps"] < min_achieved_ratio * summary[
            "offered_rps"
        ]:
            holds = False
            why.append(
                f"achieved {summary['achieved_rps']:.2f} < "
                f"{min_achieved_ratio:g}x offered "
                f"{summary['offered_rps']:.2f}"
            )
        if summary["shed_rate"] > max_shed_rate:
            holds = False
            why.append(
                f"shed rate {summary['shed_rate']:.2f} > "
                f"{max_shed_rate:g}"
            )
        if holds:
            if violated is None:
                knee = summary
        elif violated is None:
            violated = summary
            reason = "; ".join(why)
    return {
        "saturated": violated is not None,
        "offered_rps": knee["offered_rps"],
        "achieved_rps": knee["achieved_rps"],
        "p95_open_loop_ms": _p95_open_loop(knee),
        "first_violation_rps": (
            violated["offered_rps"] if violated is not None else None
        ),
        "reason": reason,
        "criteria": {
            "knee_factor": knee_factor,
            "min_achieved_ratio": min_achieved_ratio,
            "max_shed_rate": max_shed_rate,
        },
    }


def build_report(
    mixes: Dict[str, Dict],
    slo_block: Optional[Dict] = None,
    soak_block: Optional[Dict] = None,
    context: Optional[Dict] = None,
) -> Dict:
    """Assemble the full ``BENCH_load.json`` payload.

    ``mixes`` maps mix name to ``{"summary", "stages", "knee"}``;
    the SLO and soak blocks slot in verbatim when present.
    """
    report: Dict = {"mixes": mixes}
    if context:
        report["context"] = context
    report["slo"] = slo_block
    report["soak"] = soak_block
    return report
