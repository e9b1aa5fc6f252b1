"""Configuration dataclasses for the core solver and framework.

The defaults follow the paper's experimental setup where one exists:
dynamic-stop parameters ``f = s = 20`` (the paper's n = 9 setting; use
:meth:`CoreSolverConfig.paper_large_scale` for the n = 16 setting
``f = s = 10``), energy-variance threshold ``eps = 1e-8``, ``P = 1000``
candidate partitions and ``R = 5`` rounds for the framework.  Benchmarks
scale ``P`` down for laptop runtimes; the dataclasses accept the paper
values unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["CoreSolverConfig", "FrameworkConfig", "SWEEP_AUTO_CHUNKS"]

_VALID_MODES = ("separate", "joint")


def _checked_fields(cls, data: dict) -> dict:
    """Validate that ``data`` holds only fields of ``cls``."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{cls.__name__} payload must be a mapping, "
            f"got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} fields: {', '.join(unknown)}"
        )
    return dict(data)

#: default chunk count of the candidate sweep (``sweep_chunk_size=None``);
#: a fixed constant so the chunk structure — and with it the per-chunk
#: RNG spawn — never depends on how many workers happen to run the chunks
SWEEP_AUTO_CHUNKS = 8


@dataclass(frozen=True)
class CoreSolverConfig:
    """Parameters of the bSB-based core-COP solver.

    Attributes
    ----------
    sample_every:
        ``f`` — energy sampling period of the dynamic stop (Sec. 3.3.1).
    window:
        ``s`` — variance window of the dynamic stop.
    variance_threshold:
        ``eps`` — variance threshold (paper: 1e-8).
    max_iterations:
        Hard Euler-iteration cap.
    pump_ramp_iterations:
        Length of the linear pump ramp.  ``None`` resolves to
        ``max(100, max_iterations // 4)``.  The dynamic stop never
        fires before the ramp completes: during the ramp the system is
        non-stationary by construction, and a small energy variance
        merely reflects the pre-bifurcation plateau (stopping there
        returns the un-bifurcated state — a measurable quality loss,
        see the stop-criterion ablation benchmark).
    use_dynamic_stop:
        ``False`` reproduces the fixed-iteration baseline for ablations.
    use_intervention:
        Enable the Theorem-3 column-type reset (Sec. 3.3.2).
    n_replicas:
        Parallel oscillator networks per solve.
    dt / a0:
        bSB Euler step and detuning.
    polish:
        Run one alternating-refinement pass (Theorem 3 in both
        directions) on the decoded setting.  An extension beyond the
        paper — off by default; benchmarked in the ablations.
    symmetry_breaking_init:
        Initialize the ``V2`` oscillators as the negation of the ``V1``
        oscillators.  The core-COP energy is invariant under exchanging
        ``(V1, V2)`` together with complementing ``T``, and with
        identical biases on ``V1`` and ``V2`` the early (pre-bifurcation)
        dynamics otherwise lock the two pattern blocks together —
        anti-symmetric initialization breaks this degeneracy and
        measurably improves solution quality on near-decomposable
        instances (see the heuristic ablation benchmark).
    backend:
        Compute-kernel backend for the fused bSB step
        (:mod:`repro.ising.kernels`): ``"numpy64"`` (reference,
        bit-for-bit the historical inline loop), ``"numpy32"``
        (float32 stepping, float64 scoring), or ``"native32"``
        (compiled float32 tile engine; degrades to ``numpy64`` with a
        warning when no C compiler is found).  Any other name fails
        validation with :class:`~repro.errors.ConfigurationError`.
        ``None`` resolves through the ``REPRO_SB_BACKEND`` environment
        variable, which — when set — overrides this field too.
    trace_every:
        Keep every ``trace_every``-th sampled energy in the solver's
        ``energy_trace`` (1, the default, keeps every sample — the
        historical behavior).  Purely observational: sampling,
        interventions, and the dynamic stop are unaffected, so
        ``trace_every`` is excluded from :meth:`FrameworkConfig.
        semantic_dict` and does not change artifact keys.
    numeric_guard:
        Check the kernel state at every sampling point and escalate a
        non-finite/diverging reduced-precision (``numpy32``) run to
        the ``numpy64`` reference backend instead of returning garbage
        (see :class:`repro.ising.solvers.bsb.BallisticSBSolver`).
        Stays in :meth:`FrameworkConfig.semantic_dict`: when the guard
        fires it restarts the trajectory, so it can change results.
    """

    sample_every: int = 20
    window: int = 20
    variance_threshold: float = 1e-8
    max_iterations: int = 2000
    pump_ramp_iterations: Optional[int] = None
    use_dynamic_stop: bool = True
    use_intervention: bool = True
    n_replicas: int = 4
    dt: float = 0.25
    a0: float = 1.0
    polish: bool = False
    symmetry_breaking_init: bool = True
    backend: Optional[str] = None
    trace_every: int = 1
    numeric_guard: bool = True

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ConfigurationError(
                f"sample_every must be positive, got {self.sample_every}"
            )
        if self.window < 2:
            raise ConfigurationError(
                f"window must be >= 2, got {self.window}"
            )
        if self.variance_threshold < 0:
            raise ConfigurationError(
                "variance_threshold must be non-negative, "
                f"got {self.variance_threshold}"
            )
        if self.max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.n_replicas <= 0:
            raise ConfigurationError(
                f"n_replicas must be positive, got {self.n_replicas}"
            )
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.pump_ramp_iterations is not None and (
            self.pump_ramp_iterations <= 0
            or self.pump_ramp_iterations > self.max_iterations
        ):
            raise ConfigurationError(
                "pump_ramp_iterations must be in (0, max_iterations], got "
                f"{self.pump_ramp_iterations}"
            )
        if self.trace_every < 1:
            raise ConfigurationError(
                f"trace_every must be >= 1, got {self.trace_every}"
            )
        if self.backend is not None:
            from repro.ising.kernels import known_backends

            if self.backend not in known_backends():
                raise ConfigurationError(
                    f"backend must be one of {known_backends()} or None, "
                    f"got {self.backend!r}"
                )

    @property
    def resolved_ramp_iterations(self) -> int:
        """The effective pump ramp length (see ``pump_ramp_iterations``)."""
        if self.pump_ramp_iterations is not None:
            return self.pump_ramp_iterations
        return min(self.max_iterations, max(100, self.max_iterations // 4))

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreSolverConfig":
        """Rebuild from :meth:`to_dict` output; rejects unknown keys."""
        return cls(**_checked_fields(cls, data))

    @classmethod
    def paper_small_scale(cls) -> "CoreSolverConfig":
        """The paper's n = 9 setting: ``f = s = 20``, ``eps = 1e-8``."""
        return cls(sample_every=20, window=20, variance_threshold=1e-8)

    @classmethod
    def paper_large_scale(cls) -> "CoreSolverConfig":
        """The paper's n = 16 setting: ``f = s = 10``, ``eps = 1e-8``."""
        return cls(sample_every=10, window=10, variance_threshold=1e-8)

    def with_updates(self, **changes) -> "CoreSolverConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)


#: engine-equivalent backends collapsed for artifact hashing: every
#: float32 engine shares the ``numpy32`` tolerance contract (decoded
#: settings are float64-scored), so results are interchangeable and the
#: content-addressed cache must treat them as one backend
_SEMANTIC_BACKEND_CLASS = {
    "native32": "numpy32",
}


def semantic_backend_name(backend: "Optional[str]") -> str:
    """The resolved backend's *tolerance class* for artifact keys.

    Resolves ``backend`` (including the ``REPRO_SB_BACKEND`` override
    and unavailable-backend fallback), then maps the compiled float32
    engine onto ``numpy32`` so cache keys do not fork on whether a C
    compiler happened to be present.  ``numpy64`` keeps its own name.
    """
    from repro.ising.kernels import resolve_backend

    resolved = resolve_backend(backend)
    return _SEMANTIC_BACKEND_CLASS.get(resolved, resolved)


@dataclass(frozen=True)
class FrameworkConfig:
    """Parameters of the DALTA-style outer decomposition loop.

    Attributes
    ----------
    mode:
        ``"separate"`` (per-component ER, Eq. 9) or ``"joint"``
        (whole-word MED, Eq. 16).
    free_size:
        ``|A|`` — number of free-set variables (paper: 4 for n = 9,
        7 for n = 16).
    n_partitions:
        ``P`` — candidate partitions tried per component optimization
        (paper: 1000).
    n_rounds:
        ``R`` — sequential optimization rounds (paper: 5).
    solver:
        Core-COP solver configuration.
    seed:
        Base RNG seed for partition sampling and the stochastic solver.
    prescreen_keep:
        When set, candidate partitions are pre-scored with the cheap
        alternating heuristic and only the best ``prescreen_keep`` are
        handed to bSB.  An extension beyond the paper — ``None`` (off)
        reproduces the published procedure.
    stop_when_stalled:
        End early when a full round improves nothing.
    batched:
        Solve all ``P`` candidate partitions of a component in one
        vectorized bSB run (:mod:`repro.core.batch`).  Identical
        search semantics apart from the stop rule: the batch always
        integrates the full ``max_iterations`` budget, since a global
        dynamic stop would couple unrelated instances.
    n_workers:
        Process-level parallelism of the candidate sweep.  Each
        component's candidate partitions are split into chunks (see
        ``sweep_chunk_size``) solved as independent core-COP batches;
        with ``n_workers > 1`` the chunks fan out over a
        ``ProcessPoolExecutor`` of ``min(n_workers, os.cpu_count())``
        processes.  Chunking and per-chunk RNG spawning are
        *independent of the worker count*, so any ``n_workers`` under
        one seed selects identical partitions and settings.
    sweep_chunk_size:
        Partitions per sweep chunk.  ``None`` auto-splits into
        :data:`SWEEP_AUTO_CHUNKS` equal chunks (fewer when ``P`` is
        small).  Must not depend on ``n_workers`` — it is part of the
        seeded search definition.
    """

    mode: str = "joint"
    free_size: int = 4
    n_partitions: int = 20
    n_rounds: int = 5
    solver: CoreSolverConfig = field(default_factory=CoreSolverConfig)
    seed: Optional[int] = None
    prescreen_keep: Optional[int] = None
    stop_when_stalled: bool = True
    batched: bool = False
    n_workers: int = 1
    sweep_chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in _VALID_MODES:
            raise ConfigurationError(
                f"mode must be one of {_VALID_MODES}, got {self.mode!r}"
            )
        if self.free_size <= 0:
            raise ConfigurationError(
                f"free_size must be positive, got {self.free_size}"
            )
        if self.n_partitions <= 0:
            raise ConfigurationError(
                f"n_partitions must be positive, got {self.n_partitions}"
            )
        if self.n_rounds <= 0:
            raise ConfigurationError(
                f"n_rounds must be positive, got {self.n_rounds}"
            )
        if self.prescreen_keep is not None and self.prescreen_keep <= 0:
            raise ConfigurationError(
                f"prescreen_keep must be positive, got {self.prescreen_keep}"
            )
        if self.n_workers <= 0:
            raise ConfigurationError(
                f"n_workers must be positive, got {self.n_workers}"
            )
        if self.sweep_chunk_size is not None and self.sweep_chunk_size <= 0:
            raise ConfigurationError(
                "sweep_chunk_size must be positive, got "
                f"{self.sweep_chunk_size}"
            )

    def resolved_chunk_count(self, n_partitions: int) -> int:
        """Number of sweep chunks for ``n_partitions`` candidates.

        Deterministic and independent of ``n_workers`` by design (the
        chunk structure feeds the per-chunk RNG spawn, so it is part of
        the seeded search semantics, not a scheduling detail).
        """
        if n_partitions <= 0:
            return 0
        if self.sweep_chunk_size is not None:
            return -(-n_partitions // self.sweep_chunk_size)
        return min(n_partitions, SWEEP_AUTO_CHUNKS)

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        data = asdict(self)
        data["solver"] = self.solver.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FrameworkConfig":
        """Rebuild from :meth:`to_dict` output; rejects unknown keys."""
        payload = _checked_fields(cls, data)
        if "solver" in payload and not isinstance(
            payload["solver"], CoreSolverConfig
        ):
            payload["solver"] = CoreSolverConfig.from_dict(payload["solver"])
        return cls(**payload)

    def semantic_dict(self) -> dict:
        """The fields that define the *seeded search*, scheduling removed.

        Two configs with equal semantic dicts produce bit-identical
        (float64) or tolerance-equivalent (float32) decompositions of
        the same table: ``n_workers`` only schedules the deterministic
        sweep chunks, so it is dropped; the solver's ``trace_every``
        only thins the retained energy trace, so it is dropped too; and
        the solver ``backend`` is resolved (including the
        ``REPRO_SB_BACKEND`` override) and then collapsed to its
        *tolerance class* by :func:`semantic_backend_name`, because the
        dtype changes float32-path numerics but which float32 engine
        (``numpy32`` / ``native32``) happened to run must not fork
        artifact keys.  This is the payload the service's
        content-addressed artifact store hashes.
        """
        data = self.to_dict()
        data.pop("n_workers")
        data["solver"].pop("trace_every")
        data["solver"]["backend"] = semantic_backend_name(
            self.solver.backend
        )
        return data

    @classmethod
    def paper_small_scale(cls, mode: str = "joint") -> "FrameworkConfig":
        """Paper setup for n = 9: ``|A| = 4``, ``P = 1000``, ``R = 5``."""
        return cls(
            mode=mode,
            free_size=4,
            n_partitions=1000,
            n_rounds=5,
            solver=CoreSolverConfig.paper_small_scale(),
        )

    @classmethod
    def paper_large_scale(cls, mode: str = "joint") -> "FrameworkConfig":
        """Paper setup for n = 16: ``|A| = 7``, ``P = 1000``, ``R = 5``."""
        return cls(
            mode=mode,
            free_size=7,
            n_partitions=1000,
            n_rounds=5,
            solver=CoreSolverConfig.paper_large_scale(),
        )

    def with_updates(self, **changes) -> "FrameworkConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)
