"""repro.loadgen — an open-loop load harness for the HTTP gateway.

The harness answers the question micro-benchmarks cannot: *where is
the knee* — the offered request rate past which latency departs from
its flat base and the gateway starts shedding.  It is open-loop in the
Locust sense: arrival times are fixed up front from a constant-rate
clock (``start + i / rps``) and are **never gated on responses**, so a
slow server cannot slow the arrival process down and hide its own
latency (the classic coordinated-omission trap of closed-loop drivers).

Pieces (each its own module):

* :mod:`~repro.loadgen.mixes` — declarative job-mix profiles
  (dedup-heavy, cache-cold, mixed spin sizes).
* :mod:`~repro.loadgen.instances` — the canonical raw Ising problem
  documents the mixed-sizes mix submits (also ``python -m``).
* :mod:`~repro.loadgen.generator` — the fixed-rate open-loop submitter
  (one attempt per scheduled arrival, no client retries) and the
  completion-latency collector.
* :mod:`~repro.loadgen.recorder` — per-stage summaries (achieved vs
  offered RPS, shed/error rates, latency percentiles) and knee
  detection over an RPS sweep.
* :mod:`~repro.loadgen.slo` — availability + latency objectives with
  windowed burn-rate evaluation over the recorded series.
* :mod:`~repro.loadgen.soak` — a fixed-RPS plateau with the chaos
  seams armed, asserting artifacts stay byte-identical to an unloaded
  solve.
* :mod:`~repro.loadgen.report` — human-readable rendering of the
  ``BENCH_load.json`` payload.

Entry points: ``repro loadtest --remote URL --rps ... --mix ...``
(see :mod:`repro.cli`) and ``benchmarks/test_bench_load.py`` which
writes ``BENCH_load.json``.
"""

from repro.loadgen.generator import (
    OpenLoopGenerator,
    RequestSample,
    StageResult,
    MixSubmitter,
    collect_completion_latencies,
)
from repro.loadgen.mixes import MixProfile, default_load_config, get_mix, mix_names
from repro.loadgen.recorder import build_report, find_knee, summarize_stage
from repro.loadgen.report import render_load_report
from repro.loadgen.slo import SLOSpec, evaluate_slo, parse_slo
from repro.loadgen.soak import default_soak_plan, run_soak

__all__ = [
    "MixProfile",
    "MixSubmitter",
    "OpenLoopGenerator",
    "RequestSample",
    "SLOSpec",
    "StageResult",
    "build_report",
    "collect_completion_latencies",
    "default_load_config",
    "default_soak_plan",
    "evaluate_slo",
    "find_knee",
    "get_mix",
    "mix_names",
    "parse_slo",
    "render_load_report",
    "run_soak",
    "summarize_stage",
]
