"""Fused simulated-bifurcation kernels.

See :mod:`repro.ising.kernels.base` for the backend contract and the
selection rules (``CoreSolverConfig.backend`` / ``REPRO_SB_BACKEND``).
Importing this package registers every backend; a known-but-unavailable
backend (``native32`` without a compiler) degrades to ``numpy64`` at
resolution time with a single warning, while unknown names raise
:class:`repro.errors.UnknownBackendError`.

Backends registered here:

========== ======= ==============================================
name       dtype   notes
========== ======= ==============================================
numpy64    float64 reference; bit-for-bit the historical loop
numpy32    float32 tolerance contract, float64 scoring
native32   float32 runtime-compiled C tile engine
========== ======= ==============================================

Stacking a component's chunk sweeps into one kernel call lives in
:mod:`repro.core.batch`.
"""

from repro.ising.kernels.base import (
    DEFAULT_BACKEND,
    ENV_BACKEND,
    BackendInfo,
    BipartiteSBKernel,
    available_backends,
    backend_info,
    backend_infos,
    known_backends,
    make_kernel,
    register_backend,
    reset_fallback_warnings,
    resolve_backend,
)
from repro.ising.kernels.numpy_backend import NumPyBipartiteKernel
from repro.ising.kernels import native  # noqa: F401  (registration)
from repro.ising.kernels.native import NATIVE_PROBED_AVAILABLE

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "NATIVE_PROBED_AVAILABLE",
    "BackendInfo",
    "BipartiteSBKernel",
    "NumPyBipartiteKernel",
    "available_backends",
    "backend_info",
    "backend_infos",
    "known_backends",
    "make_kernel",
    "register_backend",
    "reset_fallback_warnings",
    "resolve_backend",
]
