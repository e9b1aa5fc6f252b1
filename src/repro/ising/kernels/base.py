"""Backend registry for the fused simulated-bifurcation kernels.

The ballistic-SB hot loop is a handful of dense linear-algebra passes
repeated thousands of times; how those passes are scheduled (dtype,
temporaries, fusion) dominates wall clock long before the algorithm
does.  This module decouples the *dynamics* (owned by the solvers) from
the *arithmetic* (owned by a :class:`BipartiteSBKernel` backend):

* ``numpy64`` — float64 reference backend.  Bit-for-bit identical to
  the historical inline NumPy loop (property-tested), so every other
  backend has a trusted baseline to diff against.
* ``numpy32`` — the same fused step in float32: half the memory
  traffic, roughly double the GEMM throughput.  Decoded settings agree
  with ``numpy64`` in practice but trajectories are *not* bitwise
  reproducible across BLAS builds; see ``docs/architecture.md``.
* ``native32`` — a runtime-compiled float32 tile engine
  (:mod:`repro.ising.kernels.native`).  Without a C compiler it
  registers as unavailable, and requesting it falls back to
  ``numpy64`` with a warning rather than failing.

Selection order: the ``REPRO_SB_BACKEND`` environment variable (when
set) overrides everything, then the explicit ``backend=`` argument
(usually fed from :attr:`repro.core.config.CoreSolverConfig.backend`),
then the ``numpy64`` default.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DimensionError,
    UnknownBackendError,
)
from repro.obs.logconfig import get_logger

logger = get_logger("repro.ising.kernels")

__all__ = [
    "BipartiteSBKernel",
    "BackendInfo",
    "ENV_BACKEND",
    "DEFAULT_BACKEND",
    "available_backends",
    "known_backends",
    "backend_info",
    "backend_infos",
    "register_backend",
    "resolve_backend",
    "reset_fallback_warnings",
    "make_kernel",
]

#: environment variable overriding every programmatic backend selection
ENV_BACKEND = "REPRO_SB_BACKEND"

#: the reference backend every installation has
DEFAULT_BACKEND = "numpy64"

# name -> kernel factory (weights -> BipartiteSBKernel)
_REGISTRY: Dict[str, Callable[[np.ndarray], "BipartiteSBKernel"]] = {}
# name -> human-readable reason a known backend is not usable here
_UNAVAILABLE: Dict[str, str] = {}
# name -> descriptive metadata (dtype, summary), for list-kernels and
# the dtype a result reports
_INFO: Dict[str, "BackendInfo"] = {}
# unavailable backends already warned about this process (warn once —
# the batched planner resolves backends per batch, and a missing
# compiler must not spam one warning per batch)
_WARNED_FALLBACKS: Set[str] = set()


@dataclass(frozen=True)
class BackendInfo:
    """Descriptive metadata of one registered kernel backend."""

    name: str
    available: bool
    dtype: str
    summary: str
    unavailable_reason: Optional[str] = None


def register_backend(
    name: str,
    factory: Optional[Callable[[np.ndarray], "BipartiteSBKernel"]] = None,
    *,
    unavailable_reason: Optional[str] = None,
    dtype: str = "float64",
    summary: str = "",
) -> None:
    """Register a kernel backend (or record why it cannot be used).

    Exactly one of ``factory`` / ``unavailable_reason`` must be given.
    Backends whose dependencies are missing register a reason instead of
    a factory so :func:`resolve_backend` can degrade gracefully.  The
    keyword metadata feeds ``repro list-kernels``.
    """
    if (factory is None) == (unavailable_reason is None):
        raise ConfigurationError(
            "register_backend needs a factory or an unavailable_reason"
        )
    if factory is not None:
        _REGISTRY[name] = factory
        _UNAVAILABLE.pop(name, None)
    else:
        _UNAVAILABLE[name] = unavailable_reason
    _INFO[name] = BackendInfo(
        name=name,
        available=factory is not None,
        dtype=dtype,
        summary=summary,
        unavailable_reason=unavailable_reason,
    )


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this environment."""
    return tuple(sorted(_REGISTRY))


def known_backends() -> Tuple[str, ...]:
    """All recognized backend names, including unavailable ones."""
    return tuple(sorted({*_REGISTRY, *_UNAVAILABLE}))


def backend_info(name: str) -> "BackendInfo":
    """Metadata of one known backend (raises on unknown names)."""
    try:
        return _INFO[name]
    except KeyError:
        raise UnknownBackendError(name, known_backends()) from None


def backend_infos() -> Tuple["BackendInfo", ...]:
    """Metadata of every known backend, name-sorted."""
    return tuple(_INFO[name] for name in known_backends())


def reset_fallback_warnings() -> None:
    """Forget which unavailable-backend fallbacks were already warned
    about (test hook)."""
    _WARNED_FALLBACKS.clear()


def resolve_backend(
    backend: Optional[str] = None, *, ignore_env: bool = False
) -> str:
    """Resolve a backend request to the name of a usable backend.

    ``REPRO_SB_BACKEND`` (when set and non-empty) overrides ``backend``;
    an unavailable-but-known backend (e.g. ``native32`` without a C
    compiler) falls back to :data:`DEFAULT_BACKEND` with a warning
    emitted once per process; an unknown name raises
    :class:`~repro.errors.UnknownBackendError` listing the valid names
    (environment-variable typos must fail loudly, not silently fall
    back).

    ``ignore_env`` skips the environment override — the numerical
    guards use it to *force* the float64 reference backend when a
    lower-precision trajectory diverged, which must win even under a
    ``REPRO_SB_BACKEND=numpy32`` blanket override.
    """
    env = "" if ignore_env else os.environ.get(ENV_BACKEND, "").strip()
    requested = (env or backend or DEFAULT_BACKEND).strip().lower()
    if requested in _REGISTRY:
        return requested
    if requested in _UNAVAILABLE:
        if requested not in _WARNED_FALLBACKS:
            _WARNED_FALLBACKS.add(requested)
            logger.warning(
                "SB backend %r is unavailable (%s); falling back to %r",
                requested,
                _UNAVAILABLE[requested],
                DEFAULT_BACKEND,
            )
        return DEFAULT_BACKEND
    raise UnknownBackendError(requested, known_backends())


def make_kernel(
    weights: np.ndarray,
    backend: Optional[str] = None,
    *,
    ignore_env: bool = False,
) -> "BipartiteSBKernel":
    """Build a kernel for a bipartite weight matrix (or stack thereof).

    ``weights`` is the core-COP weight matrix ``W`` with shape
    ``(r, c)`` for a single problem or ``(P, r, c)`` for a stacked
    batch.  ``backend`` goes through :func:`resolve_backend`
    (``ignore_env`` forwarded — see there).
    """
    return _REGISTRY[resolve_backend(backend, ignore_env=ignore_env)](
        weights
    )


class BipartiteSBKernel(abc.ABC):
    """Fused ballistic-SB arithmetic for bipartite core-COP dynamics.

    A kernel owns the coupling data (``K = W / 4`` and its row sums) in
    its backend dtype plus the per-state scratch buffers, and exposes
    the whole per-iteration state update as one call so backends can
    fuse and preallocate freely.  States have shape ``(..., N)`` with
    ``N = 2 r + c``; the leading axes are ``(n_replicas,)`` for a
    single problem or ``(P, n_replicas)`` for a stacked batch, matching
    the ``weights`` rank passed at construction.

    The contract with the solvers:

    * :meth:`prepare_state` converts freshly initialized float64
      positions/momenta into the kernel's dtype/layout (and sizes the
      scratch buffers) — call once per solve;
    * :meth:`step` advances ``(x, y)`` **in place** by one symplectic
      Euler step including the inelastic walls;
    * :meth:`readout` / :meth:`energy` / :meth:`fields` evaluate the
      sign decode, Ising energies, and local fields of a state.

    :meth:`readout` returns an internal buffer that the next call
    overwrites — copy before storing.
    """

    #: registry name, set by concrete backends
    name: str = "abstract"

    def __init__(self, weights: np.ndarray, dtype: np.dtype) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim not in (2, 3):
            raise DimensionError(
                "weights must be (r, c) or stacked (P, r, c), got "
                f"ndim={w.ndim}"
            )
        self.dtype = np.dtype(dtype)
        self.stacked = w.ndim == 3
        # K = W / 4 exactly as the structured model computes it (the
        # division by a power of two is lossless, so numpy64 kernels see
        # the same couplings as the historical inline path)
        self.k = np.ascontiguousarray(w / 4.0, dtype=self.dtype)
        self.a = self.k.sum(axis=-1)
        self.neg_a = -self.a
        self.n_rows = int(w.shape[-2])
        self.n_cols = int(w.shape[-1])
        self.n_problems = int(w.shape[0]) if self.stacked else 1
        self.n_spins = 2 * self.n_rows + self.n_cols
        self.offsets: Optional[np.ndarray] = None

    # -- shape helpers -------------------------------------------------

    def split(self, x: np.ndarray):
        """Split a ``(..., N)`` array into ``(v1, v2, t)`` views."""
        r = self.n_rows
        return x[..., :r], x[..., r : 2 * r], x[..., 2 * r :]

    def expected_state_ndim(self) -> int:
        """State rank: 2 for a single problem, 3 for a stacked batch."""
        return 3 if self.stacked else 2

    def coupling_rms(self) -> float:
        """RMS coupling over ordered spin pairs, without densifying.

        For a stacked kernel this is the RMS across the whole stack
        (every problem shares one ``c0`` so the batch stays one fused
        update).
        """
        n = self.n_spins
        if n < 2:
            return 0.0
        k64 = np.asarray(self.k, dtype=np.float64)
        if self.stacked:
            per_problem = 4.0 * (k64**2).sum(axis=(1, 2))
            return float(np.sqrt(per_problem.mean() / (n * (n - 1))))
        total = 4.0 * float((k64**2).sum())
        return float(np.sqrt(total / (n * (n - 1))))

    # -- numerical health ----------------------------------------------

    def check_state(
        self,
        x: np.ndarray,
        y: np.ndarray,
        divergence_limit: float = 1e6,
    ) -> Optional[str]:
        """Cheap health check of a live state; ``None`` means healthy.

        Returns ``"nonfinite"`` when positions or momenta contain
        NaN/inf (float32 overflow, broken couplings, injected faults)
        or ``"diverged"`` when a momentum magnitude exceeds
        ``divergence_limit`` — positions are wall-clamped to ±1, so an
        exploding trajectory shows up in ``y`` long before it reaches
        inf.  The sums below reduce without allocating boolean temps;
        NaN/inf propagate through them, and a sum that overflows to inf
        only does so when the state is diverging anyway, which is
        exactly the verdict returned.
        """
        x_sum = float(np.sum(x, dtype=np.float64))
        y_abs_max = float(np.max(np.abs(y)))
        if not (np.isfinite(x_sum) and np.isfinite(y_abs_max)):
            return "nonfinite"
        if y_abs_max > divergence_limit:
            return "diverged"
        return None

    # -- Theorem-3 reset -----------------------------------------------

    def assign_types(self, x, y, types: np.ndarray) -> None:
        """Overwrite the type-spin block in place (Theorem-3 reset).

        ``types`` is a 0/1 host array over the type columns; positions
        become ``2 * types - 1`` and the corresponding momenta zero.
        """
        r = self.n_rows
        x[..., 2 * r :] = 2.0 * types - 1.0
        y[..., 2 * r :] = 0.0

    # -- abstract arithmetic -------------------------------------------

    @abc.abstractmethod
    def prepare_state(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cast a freshly drawn state into kernel dtype/layout."""

    @abc.abstractmethod
    def step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        a_t: float,
        dt: float,
        a0: float,
        c0,
    ) -> None:
        """One fused in-place bSB step (momentum, position, walls).

        ``c0`` is a scalar coupling scale, or — for stacked kernels
        whose problems were packed from different sweeps — a ``(P,)``
        vector with one scale per stacked problem.
        """

    @abc.abstractmethod
    def readout(self, x: np.ndarray) -> np.ndarray:
        """Sign readout ``±1`` of a position state (buffered)."""

    @abc.abstractmethod
    def energy(self, spins: np.ndarray) -> np.ndarray:
        """Ising energies of a spin state, shape = leading axes."""

    @abc.abstractmethod
    def fields(self, x: np.ndarray) -> np.ndarray:
        """Local fields of a position state, same shape as ``x``."""

    def __repr__(self) -> str:
        shape = (
            f"P={self.n_problems}, " if self.stacked else ""
        ) + f"r={self.n_rows}, c={self.n_cols}"
        return f"{type(self).__name__}({shape})"
