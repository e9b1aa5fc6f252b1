"""SLO definitions and burn-rate evaluation over recorded series.

An :class:`SLOSpec` states two objectives over the load harness's
recorded samples:

* **availability** — the fraction of submissions that must succeed;
* **latency** — a p95 bound on service latency (send → response).

On top of the point-in-time availability check sits a **burn rate**:
the error budget of an availability target ``A`` is ``1 - A``; a
window whose error rate is ``r`` burns budget at ``r / (1 - A)`` — the
standard SRE multiple (burn rate 1 = exactly spending the budget;
2 = spending it twice as fast).  Samples are bucketed into
``window_seconds`` windows along the *scheduled* (open-loop) time
axis, per stage, and the verdict reports the worst window.  A short
violent error burst inside an otherwise-green stage fails the burn
check even when overall availability still clears the target — which
is exactly the regression a mean would hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.loadgen.generator import StageResult
from repro.loadgen.recorder import percentile

__all__ = ["SLOSpec", "evaluate_slo", "parse_slo"]


@dataclass(frozen=True)
class SLOSpec:
    """Availability + latency objectives (module docs)."""

    availability: float = 0.99
    latency_p95_ms: float = 1000.0
    window_seconds: float = 5.0
    max_burn_rate: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability < 1.0:
            raise ConfigurationError(
                f"availability must be in (0, 1), got {self.availability}"
            )
        if self.latency_p95_ms <= 0:
            raise ConfigurationError(
                f"latency_p95_ms must be positive, got {self.latency_p95_ms}"
            )
        if self.window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.max_burn_rate <= 0:
            raise ConfigurationError(
                f"max_burn_rate must be positive, got {self.max_burn_rate}"
            )

    def to_dict(self) -> Dict:
        return {
            "availability": self.availability,
            "latency_p95_ms": self.latency_p95_ms,
            "window_seconds": self.window_seconds,
            "max_burn_rate": self.max_burn_rate,
        }


#: accepted ``--slo`` keys -> SLOSpec field
_SLO_KEYS = {
    "availability": "availability",
    "p95_ms": "latency_p95_ms",
    "latency_p95_ms": "latency_p95_ms",
    "window_s": "window_seconds",
    "window_seconds": "window_seconds",
    "max_burn": "max_burn_rate",
    "max_burn_rate": "max_burn_rate",
}


def parse_slo(text: str) -> SLOSpec:
    """Parse ``"availability=0.995,p95_ms=500,window_s=5,max_burn=2"``.

    Unknown keys and malformed values raise
    :class:`~repro.errors.ConfigurationError`; omitted keys keep the
    :class:`SLOSpec` defaults.
    """
    values: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"malformed SLO clause {part!r}; expected key=value"
            )
        key, _, raw = part.partition("=")
        field = _SLO_KEYS.get(key.strip())
        if field is None:
            raise ConfigurationError(
                f"unknown SLO key {key.strip()!r}; "
                f"keys: {', '.join(sorted(_SLO_KEYS))}"
            )
        try:
            values[field] = float(raw.strip())
        except ValueError:
            raise ConfigurationError(
                f"SLO value for {key.strip()!r} must be a number, "
                f"got {raw.strip()!r}"
            ) from None
    return SLOSpec(**values)


def _burn_windows(
    stage: StageResult, slo: SLOSpec
) -> List[Dict]:
    """Per-window error rates and burn rates for one stage."""
    samples = stage.samples
    if not samples:
        return []
    horizon = max(s.scheduled for s in samples) + 1e-9
    n_windows = max(1, int(horizon / slo.window_seconds) + 1)
    buckets: List[List[bool]] = [[] for _ in range(n_windows)]
    for sample in samples:
        slot = min(
            n_windows - 1, int(sample.scheduled / slo.window_seconds)
        )
        buckets[slot].append(sample.ok)
    budget = 1.0 - slo.availability
    windows = []
    for slot, outcomes in enumerate(buckets):
        if not outcomes:
            continue
        error_rate = 1.0 - (sum(outcomes) / len(outcomes))
        windows.append(
            {
                "window": slot,
                "requests": len(outcomes),
                "error_rate": round(error_rate, 4),
                "burn_rate": round(error_rate / budget, 3),
            }
        )
    return windows


def evaluate_slo(
    slo: SLOSpec, stages: Sequence[StageResult]
) -> Dict:
    """The verdict block for one recorded series (module docs).

    ``stages`` may span several operating points of one mix (or one
    soak plateau); windows never straddle stage boundaries.
    """
    all_samples = [s for stage in stages for s in stage.samples]
    total = len(all_samples)
    ok = sum(1 for s in all_samples if s.ok)
    observed_availability = ok / total if total else 1.0
    latencies = [s.latency for s in all_samples if s.status > 0]
    observed_p95_ms = percentile(latencies, 95.0) * 1000.0
    windows = [
        window
        for stage in stages
        for window in _burn_windows(stage, slo)
    ]
    max_burn = max((w["burn_rate"] for w in windows), default=0.0)
    availability_ok = observed_availability >= slo.availability
    latency_ok = (
        not latencies or observed_p95_ms <= slo.latency_p95_ms
    )
    burn_ok = max_burn <= slo.max_burn_rate
    return {
        "objective": slo.to_dict(),
        "availability": {
            "observed": round(observed_availability, 5),
            "target": slo.availability,
            "requests": total,
            "ok": availability_ok,
        },
        "latency": {
            "observed_p95_ms": round(observed_p95_ms, 3),
            "target_p95_ms": slo.latency_p95_ms,
            "ok": latency_ok,
        },
        "burn_rate": {
            "max": max_burn,
            "limit": slo.max_burn_rate,
            "windows": len(windows),
            "window_seconds": slo.window_seconds,
            "ok": burn_ok,
        },
        "ok": availability_ok and latency_ok and burn_ok,
    }
