"""Runtime-compiled C tile engine for the float32 bSB hot path.

Why this exists
---------------

Profiling the batched candidate sweep on CPU shows two costs that NumPy
cannot remove:

* **Per-call dispatch** — the fused NumPy step still issues ~15 ufunc /
  matmul calls per iteration; at the framework's default ``n_replicas=4``
  the arrays are small enough that dispatch and memory passes dominate
  the arithmetic.
* **Coupling-matrix streaming** — advancing a stack of problems in
  lockstep re-reads every problem's ``K`` matrix from memory on every
  iteration (a ``(r, c)`` float32 ``K`` at the benchmark's reference
  shape is 256 KiB; sixteen of them evict each other from L2).  The
  per-problem loop keeps ``K`` cache-hot but pays the dispatch overhead
  instead.

The tile engine removes both at once: a small C library (compiled once
per machine with the system C compiler, cached, loaded via ``ctypes``)
runs a *tile* of iterations for each problem back-to-back — ``K`` stays
hot in cache across the whole tile — and fuses every element-wise pass
(fields, momentum/position update, inelastic walls) into a single sweep
over the state.  The two bipartite mat-vecs call the BLAS ``sgemm``
bundled with NumPy/SciPy through a function pointer, chunked to at most
8 rows per call (this BLAS's skinny-GEMM kernels are ~2x faster per
element at M=8 than at M=16).

Numerics: ``native32`` is a float32 backend under the same tolerance
contract as ``numpy32`` (float32 trajectories are not bitwise portable
across BLAS builds anyway); decoded settings are scored in float64 by
the callers, and the PR 5 numeric guard covers divergence.  The
``numpy64`` reference path never routes through this module.

Availability: requires a C compiler (``$CC``, else ``gcc``/``cc``/
``clang``) and a discoverable OpenBLAS shared library.  When either is
missing the backend registers as unavailable and resolution degrades to
``numpy64`` with a single warning; when compilation fails late despite
the probe, kernel construction falls back to the ``numpy32``
implementation (same tolerance class) and logs once.  Set
``REPRO_NATIVE_CACHE`` to override the compile cache directory.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ising.kernels.base import register_backend
from repro.ising.kernels.numpy_backend import NumPyBipartiteKernel
from repro.obs.logconfig import get_logger

logger = get_logger("repro.ising.kernels.native")

__all__ = [
    "NATIVE_PROBED_AVAILABLE",
    "NativeBipartiteKernel",
    "NativeEngine",
    "native_engine",
    "native_engine_error",
]

_C_SOURCE = r"""
#include <stdint.h>

#define ROWMAJOR 101
#define NOTRANS 111
#define TRANS 112

/* Largest row count per sgemm call: this BLAS's skinny-GEMM kernels
   run ~2x faster per element at M=8 than at M=16. */
#define GEMM_ROW_CHUNK 8

typedef void (*sgemm32_t)(int order, int ta, int tb, int m, int n, int k,
                          float alpha, const float *a, int lda,
                          const float *b, int ldb, float beta,
                          float *c, int ldc);
typedef void (*sgemm64_t)(int64_t order, int64_t ta, int64_t tb,
                          int64_t m, int64_t n, int64_t k,
                          float alpha, const float *a, int64_t lda,
                          const float *b, int64_t ldb, float beta,
                          float *c, int64_t ldc);

static void sgemm(void *fn, int ilp64, int tb, int m, int n, int k,
                  const float *a, int lda, const float *b, int ldb,
                  float *c, int ldc)
{
    if (ilp64)
        ((sgemm64_t)fn)(ROWMAJOR, NOTRANS, tb, m, n, k, 1.0f,
                        a, lda, b, ldb, 0.0f, c, ldc);
    else
        ((sgemm32_t)fn)(ROWMAJOR, NOTRANS, tb, m, n, k, 1.0f,
                        a, lda, b, ldb, 0.0f, c, ldc);
}

/* Advance `tile` ballistic-SB iterations for each of `B` bipartite
   problems, one problem at a time so its coupling block stays hot in
   cache across the whole tile.

   Layouts (all C-contiguous float32):
     x, y     (B, R, n)  positions / momenta, n = 2r + c
     k        (B, r, c)  couplings K = W / 4
     a        (B, r)     row sums of K
     c0       (B,)       per-problem coupling scale
     kt       (R, r)     scratch: K t
     dr       (R, r)     scratch: v1 - v2
     ft       (R, c)     scratch: (v1 - v2) K
     damp_dt  (tile,)    -(a0 - a_t) * dt per tile iteration

   Per iteration and oscillator the update is
     y += damp_dt * x + dt * c0 * field;  x += dt_a0 * y
   followed by perfectly inelastic walls (clamp x to [-1, 1], zero the
   crossing momentum) — the same symplectic Euler scheme as the NumPy
   backends, with the element-wise passes fused into one sweep. */
void sb_tile_f32(void *sgemm_fn, int64_t ilp64,
                 float *x, float *y,
                 const float *k, const float *a, const float *c0,
                 float *kt, float *dr, float *ft,
                 const float *damp_dt,
                 int64_t tile, int64_t B, int64_t R,
                 int64_t r, int64_t c, float dt, float dt_a0)
{
    const int64_t n = 2 * r + c;
    for (int64_t b = 0; b < B; ++b) {
        float *xb = x + b * R * n;
        float *yb = y + b * R * n;
        const float *kb = k + b * r * c;
        const float *ab = a + b * r;
        const float dtc0 = dt * c0[b];
        for (int64_t it = 0; it < tile; ++it) {
            const float damp = damp_dt[it];
            /* kt = t @ K^T : (R, c) @ (c, r), K row-major (r, c) */
            for (int64_t r0 = 0; r0 < R; r0 += GEMM_ROW_CHUNK) {
                int m = (int)(R - r0 < GEMM_ROW_CHUNK ? R - r0
                                                      : GEMM_ROW_CHUNK);
                sgemm(sgemm_fn, (int)ilp64, TRANS, m, (int)r, (int)c,
                      xb + r0 * n + 2 * r, (int)n, kb, (int)c,
                      kt + r0 * r, (int)r);
            }
            for (int64_t rep = 0; rep < R; ++rep) {
                const float *xr = xb + rep * n;
                float *d = dr + rep * r;
                for (int64_t i = 0; i < r; ++i)
                    d[i] = xr[i] - xr[r + i];
            }
            /* ft = dr @ K : (R, r) @ (r, c) */
            for (int64_t r0 = 0; r0 < R; r0 += GEMM_ROW_CHUNK) {
                int m = (int)(R - r0 < GEMM_ROW_CHUNK ? R - r0
                                                      : GEMM_ROW_CHUNK);
                sgemm(sgemm_fn, (int)ilp64, NOTRANS, m, (int)c, (int)r,
                      dr + r0 * r, (int)r, kb, (int)c, ft + r0 * c,
                      (int)c);
            }
            for (int64_t rep = 0; rep < R; ++rep) {
                float *xr = xb + rep * n;
                float *yr = yb + rep * n;
                const float *ktr = kt + rep * r;
                const float *ftr = ft + rep * c;
                for (int64_t i = 0; i < r; ++i) {
                    float f = dtc0 * (ktr[i] - ab[i]);
                    float yy = yr[i] + damp * xr[i] + f;
                    float xx = xr[i] + dt_a0 * yy;
                    if (xx > 1.0f) { xx = 1.0f; yy = 0.0f; }
                    else if (xx < -1.0f) { xx = -1.0f; yy = 0.0f; }
                    xr[i] = xx; yr[i] = yy;
                }
                for (int64_t i = 0; i < r; ++i) {
                    float f = dtc0 * (-ktr[i] - ab[i]);
                    float yy = yr[r + i] + damp * xr[r + i] + f;
                    float xx = xr[r + i] + dt_a0 * yy;
                    if (xx > 1.0f) { xx = 1.0f; yy = 0.0f; }
                    else if (xx < -1.0f) { xx = -1.0f; yy = 0.0f; }
                    xr[r + i] = xx; yr[r + i] = yy;
                }
                for (int64_t i = 0; i < c; ++i) {
                    float f = dtc0 * ftr[i];
                    float yy = yr[2 * r + i] + damp * xr[2 * r + i] + f;
                    float xx = xr[2 * r + i] + dt_a0 * yy;
                    if (xx > 1.0f) { xx = 1.0f; yy = 0.0f; }
                    else if (xx < -1.0f) { xx = -1.0f; yy = 0.0f; }
                    xr[2 * r + i] = xx; yr[2 * r + i] = yy;
                }
            }
        }
    }
}
"""

# BLAS shared-library glob patterns, tried inside every */site-packages
# "*.libs" directory numpy/scipy vendor their BLAS into
_BLAS_GLOBS = ("libscipy_openblas*.so*", "libopenblas*.so*")
# (symbol, is_ilp64) in preference order: LP64 CBLAS first
_SGEMM_SYMBOLS = (
    ("scipy_cblas_sgemm", False),
    ("cblas_sgemm", False),
    ("scipy_cblas_sgemm64_", True),
    ("cblas_sgemm64_", True),
)

_f32 = np.ctypeslib.ndpointer(np.float32, flags="C")
_i64 = ctypes.c_int64

_ENGINE_LOCK = threading.Lock()
_ENGINE: Optional["NativeEngine"] = None
_ENGINE_ERROR: Optional[str] = None
_ENGINE_BUILT = False
_FALLBACK_WARNED = False


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "gcc", "cc", "clang"):
        if candidate and shutil.which(candidate):
            return shutil.which(candidate)
    return None


def _blas_candidates() -> List[str]:
    """Paths of vendored BLAS shared libraries, numpy's first."""
    roots = []
    for module in (np,):
        roots.append(os.path.dirname(os.path.dirname(module.__file__)))
    paths: List[str] = []
    for root in roots:
        for libs_dir in sorted(glob.glob(os.path.join(root, "*.libs"))):
            for pattern in _BLAS_GLOBS:
                paths.extend(
                    sorted(glob.glob(os.path.join(libs_dir, pattern)))
                )
    # de-duplicate, order-preserving
    seen = set()
    unique = []
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _load_sgemm() -> Tuple[ctypes.c_void_p, bool, str]:
    """(function pointer, is_ilp64, lib path) of a usable ``sgemm``."""
    errors = []
    for path in _blas_candidates():
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            errors.append(f"{path}: {exc}")
            continue
        for symbol, ilp64 in _SGEMM_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return ctypes.cast(fn, ctypes.c_void_p), ilp64, path
        errors.append(f"{path}: no cblas sgemm symbol")
    raise OSError(
        "no BLAS sgemm found"
        + (f" ({'; '.join(errors)})" if errors else " (no candidate libs)")
    )


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "native")


def _compile_library(cc: str) -> str:
    """Compile the tile engine (cached by source+compiler hash)."""
    tag = hashlib.sha256(
        (_C_SOURCE + "\0" + cc).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"sb_tile_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    src_path = os.path.join(cache, f"sb_tile_{tag}.c")
    with open(src_path, "w") as handle:
        handle.write(_C_SOURCE)
    fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    base_cmd = [cc, "-O3", "-funroll-loops", "-shared", "-fPIC",
                "-o", tmp_so, src_path]
    attempts = (
        base_cmd[:1] + ["-march=native"] + base_cmd[1:],
        base_cmd,
    )
    last_error = ""
    for cmd in attempts:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = str(exc)
            continue
        if proc.returncode == 0:
            os.replace(tmp_so, so_path)
            logger.info("compiled native SB tile engine: %s", so_path)
            return so_path
        last_error = (proc.stderr or proc.stdout or "").strip()
    try:
        os.unlink(tmp_so)
    except OSError:
        pass
    raise OSError(f"C compilation failed: {last_error}")


class NativeEngine:
    """Handle to the compiled tile library plus the BLAS entry point."""

    def __init__(self) -> None:
        cc = _find_compiler()
        if cc is None:
            raise OSError("no C compiler found ($CC, gcc, cc, clang)")
        self.sgemm_ptr, self.ilp64, self.blas_path = _load_sgemm()
        self.so_path = _compile_library(cc)
        self.lib = ctypes.CDLL(self.so_path)
        fn = self.lib.sb_tile_f32
        fn.argtypes = (
            [ctypes.c_void_p, _i64]      # sgemm fn, ilp64 flag
            + [_f32] * 8                 # x y k a c0 kt dr ft
            + [_f32]                     # damp_dt
            + [_i64] * 5                 # tile B R r c
            + [ctypes.c_float] * 2       # dt, dt*a0
        )
        fn.restype = None
        self._fn = fn

    def sb_tile(
        self,
        x: np.ndarray,
        y: np.ndarray,
        k: np.ndarray,
        a: np.ndarray,
        c0: np.ndarray,
        kt: np.ndarray,
        dr: np.ndarray,
        ft: np.ndarray,
        damp_dt: np.ndarray,
        dt: float,
        dt_a0: float,
    ) -> None:
        """Run ``len(damp_dt)`` fused iterations over a ``(B, R, n)``
        state stack (see the C docstring for layouts)."""
        n_problems, n_replicas, _ = x.shape
        n_rows, n_cols = k.shape[-2], k.shape[-1]
        self._fn(
            self.sgemm_ptr, int(self.ilp64),
            x, y, k, a, c0, kt, dr, ft, damp_dt,
            len(damp_dt), n_problems, n_replicas, n_rows, n_cols,
            ctypes.c_float(dt), ctypes.c_float(dt_a0),
        )


def native_engine() -> Optional[NativeEngine]:
    """The process-wide engine, built on first use (``None`` on failure).

    Thread-safe; a failed build is remembered and not retried (see
    :func:`native_engine_error` for the reason).
    """
    global _ENGINE, _ENGINE_ERROR, _ENGINE_BUILT
    with _ENGINE_LOCK:
        if not _ENGINE_BUILT:
            _ENGINE_BUILT = True
            try:
                _ENGINE = NativeEngine()
            except Exception as exc:  # any failure → unavailable
                _ENGINE = None
                _ENGINE_ERROR = f"{type(exc).__name__}: {exc}"
        return _ENGINE


def native_engine_error() -> Optional[str]:
    """Why the engine build failed (``None`` before/without failure)."""
    return _ENGINE_ERROR


class NativeBipartiteKernel(NumPyBipartiteKernel):
    """Float32 kernel backed by the compiled tile engine.

    Inherits readout/energy/fields (host NumPy) from the float32 NumPy
    kernel; :meth:`step` and :meth:`run_tile` route through the C
    library.  Works for single problems and stacked batches; ``c0`` may
    be a scalar or a per-problem vector.
    """

    def __init__(self, weights: np.ndarray, engine: NativeEngine) -> None:
        super().__init__(weights, np.float32)
        self.name = "native32"
        self.engine = engine
        # (B, r, c) / (B, r) views for the C call; the base class made
        # self.k C-contiguous float32 already
        self._k3 = self.k if self.stacked else self.k[np.newaxis]
        self._a3 = np.ascontiguousarray(
            self.a if self.stacked else self.a[np.newaxis], np.float32
        )
        self._scratch_r = -1
        self._kt = self._dr_buf = self._ft_buf = None

    def _ensure_scratch(self, n_replicas: int) -> None:
        if n_replicas == self._scratch_r:
            return
        r, c = self.n_rows, self.n_cols
        self._kt = np.empty((n_replicas, r), np.float32)
        self._dr_buf = np.empty((n_replicas, r), np.float32)
        self._ft_buf = np.empty((n_replicas, c), np.float32)
        self._scratch_r = n_replicas

    def _c0_vector(self, c0, n_problems: int) -> np.ndarray:
        if np.ndim(c0) > 0:
            return np.ascontiguousarray(c0, np.float32)
        return np.full(n_problems, c0, np.float32)

    def run_tile(
        self,
        x: np.ndarray,
        y: np.ndarray,
        a_ts: Sequence[float],
        dt: float,
        a0: float,
        c0,
    ) -> None:
        """Advance ``len(a_ts)`` iterations in one compiled pass.

        Problems are stepped one at a time with their couplings hot in
        cache — this is where the batched path's speedup comes from, so
        callers should pass the longest tile their sampling cadence
        allows.
        """
        self._ensure_buffers(x.shape)
        x3 = x if self.stacked else x[np.newaxis]
        y3 = y if self.stacked else y[np.newaxis]
        self._ensure_scratch(x3.shape[1])
        damp = np.ascontiguousarray(
            [-(a0 - a_t) * dt for a_t in a_ts], np.float32
        )
        self.engine.sb_tile(
            x3, y3, self._k3, self._a3,
            self._c0_vector(c0, x3.shape[0]),
            self._kt, self._dr_buf, self._ft_buf,
            damp, float(dt), float(dt * a0),
        )

    def step(self, x, y, a_t, dt, a0, c0) -> None:
        self.run_tile(x, y, (a_t,), dt, a0, c0)


def _make_native(weights: np.ndarray) -> NumPyBipartiteKernel:
    """Factory: native kernel, degrading to numpy32 if the build fails.

    The import-time probe only checks that a compiler and a BLAS
    library *look* present; if the actual compile/load then fails, fall
    back to the same-tolerance-class float32 NumPy kernel (warn once)
    instead of failing kernel construction mid-solve.
    """
    global _FALLBACK_WARNED
    engine = native_engine()
    if engine is not None:
        return NativeBipartiteKernel(weights, engine)
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        logger.warning(
            "native32 engine build failed (%s); using numpy32 arithmetic",
            native_engine_error(),
        )
    kernel = NumPyBipartiteKernel(weights, np.float32)
    kernel.name = "native32"
    return kernel


def _probe() -> Optional[str]:
    """Cheap import-time availability check (no compilation)."""
    if _find_compiler() is None:
        return "no C compiler found ($CC, gcc, cc, clang)"
    if not _blas_candidates():
        return "no vendored BLAS shared library found"
    return None


_PROBE_REASON = _probe()
NATIVE_PROBED_AVAILABLE = _PROBE_REASON is None

_NATIVE_SUMMARY = (
    "compiled float32 tile engine (cache-blocked, fused element-wise)"
)
if NATIVE_PROBED_AVAILABLE:
    register_backend(
        "native32",
        _make_native,
        dtype="float32",
        summary=_NATIVE_SUMMARY,
    )
else:
    register_backend(
        "native32",
        unavailable_reason=_PROBE_REASON,
        dtype="float32",
        summary=_NATIVE_SUMMARY,
    )
