"""Declarative job-mix profiles for the load harness.

A :class:`MixProfile` maps a request index to one :class:`JobSpec`, so
a mix is *reproducible by construction*: the same ``(mix, index,
config)`` always yields the byte-identical spec, which is what lets
the soak mode re-derive exactly the jobs a loaded run submitted and
byte-compare their artifacts against an unloaded solve.

The shipped profiles each stress a different serving path:

``dedup-heavy``
    Cycles a pool of 4 seeds, so most submissions hit the idempotent
    dedup path (``200 deduplicated``) instead of enqueueing work —
    the cheapest possible request, bounded queue growth.
``cache-cold``
    A fresh seed per request: every submission is new work, the queue
    grows at the offered rate, and backpressure (503) is reachable.
``mixed-sizes``
    Raw Ising problems rotating through three spin counts (16/24/40
    spins via :func:`~repro.loadgen.instances.separate_mode_instance`
    at ``n_inputs`` 5/6/7), so request payloads and solve costs vary
    the way a multi-tenant queue's would.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List

from repro.core.config import CoreSolverConfig, FrameworkConfig
from repro.errors import ConfigurationError
from repro.service.spec import JobSpec

__all__ = [
    "MixProfile",
    "MIXES",
    "default_load_config",
    "get_mix",
    "mix_names",
]

#: seeds the dedup-heavy mix cycles through (a tiny working set)
_DEDUP_POOL = 4

#: (n_inputs, free_size) rotation for the mixed-sizes Ising mix —
#: 16 / 24 / 40 spins respectively
_SIZE_LADDER = ((5, 2), (6, 2), (7, 2))


def default_load_config(seed: int = 3) -> FrameworkConfig:
    """A deliberately small config so jobs finish in ~100 ms.

    Load testing measures the *serving stack* — queueing, dedup,
    backpressure, the HTTP layer — not solver quality, so the solve
    itself is kept cheap (2 partitions, 1 round, 200 iterations).
    """
    return FrameworkConfig(
        mode="joint",
        free_size=2,
        n_partitions=2,
        n_rounds=1,
        seed=seed,
        solver=CoreSolverConfig(max_iterations=200, n_replicas=2),
    )


@dataclass(frozen=True)
class MixProfile:
    """One named traffic profile.

    Attributes
    ----------
    name, summary:
        Registry key and the one-line description shown in reports.
    build:
        ``(index, base_config) -> JobSpec`` — must be deterministic in
        its arguments (see module docs).
    """

    name: str
    summary: str
    build: Callable[[int, FrameworkConfig], JobSpec]


@lru_cache(maxsize=None)
def _ising_problem(n_inputs: int, free_size: int) -> Dict:
    # built once per size — problem construction is pure but not free,
    # and must never run inside the timed send loop
    from repro.loadgen.instances import separate_mode_instance

    return separate_mode_instance(
        workload="cos", n_inputs=n_inputs, free_size=free_size
    )


def _dedup_heavy(index: int, config: FrameworkConfig) -> JobSpec:
    seeded = dataclasses.replace(
        config, seed=config.seed + (index % _DEDUP_POOL)
    )
    return JobSpec(workload="cos", n_inputs=6, config=seeded)


def _cache_cold(index: int, config: FrameworkConfig) -> JobSpec:
    seeded = dataclasses.replace(config, seed=config.seed + 1000 + index)
    return JobSpec(workload="cos", n_inputs=6, config=seeded)


def _mixed_sizes(index: int, config: FrameworkConfig) -> JobSpec:
    n_inputs, free_size = _SIZE_LADDER[index % len(_SIZE_LADDER)]
    seeded = dataclasses.replace(config, seed=config.seed + 2000 + index)
    return JobSpec(
        ising=_ising_problem(n_inputs, free_size), config=seeded
    )


MIXES: Dict[str, MixProfile] = {
    profile.name: profile
    for profile in (
        MixProfile(
            name="dedup-heavy",
            summary=(
                f"{_DEDUP_POOL}-seed working set; most submissions "
                "dedup against a live twin"
            ),
            build=_dedup_heavy,
        ),
        MixProfile(
            name="cache-cold",
            summary="fresh seed per request; every submission is new work",
            build=_cache_cold,
        ),
        MixProfile(
            name="mixed-sizes",
            summary=(
                "raw Ising solves rotating 16/24/40-spin problems"
            ),
            build=_mixed_sizes,
        ),
    )
}


def mix_names() -> List[str]:
    """Registered mix names, stable order."""
    return sorted(MIXES)


def get_mix(name: str) -> MixProfile:
    """Look up one mix; unknown names raise ConfigurationError."""
    try:
        return MIXES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown job mix {name!r}; mixes: {', '.join(mix_names())}"
        ) from None
