"""NumPy kernel backends: fused, preallocated bSB stepping.

The historical inline loop spent most of its non-GEMM time allocating:
``model.fields`` built three fresh blocks plus a concatenation, and the
Euler update created four more temporaries per iteration.  The fused
kernel preallocates one fields buffer, one element-wise scratch buffer,
two mat-vec buffers, and a wall mask, and performs every update with
``out=``-style ufuncs and matmuls — zero allocations per iteration.

``numpy64`` keeps the exact float64 operation order of the inline loop
(each fused ufunc computes the same IEEE operation on the same
operands), so its trajectories are **bit-for-bit** identical to the
pre-kernel solver — the equivalence test in
``tests/ising/test_kernels.py`` locks this in.  ``numpy32`` is the same
code in float32.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DimensionError
from repro.ising.kernels.base import BipartiteSBKernel, register_backend

__all__ = ["NumPyBipartiteKernel"]


class NumPyBipartiteKernel(BipartiteSBKernel):
    """Fused bipartite bSB kernel on NumPy, dtype-parametric.

    Works for single problems (states ``(R, N)``, weights ``(r, c)``)
    and stacked batches (states ``(P, R, N)``, weights ``(P, r, c)``)
    through matmul broadcasting.
    """

    def __init__(self, weights: np.ndarray, dtype=np.float64) -> None:
        super().__init__(weights, dtype)
        self.name = f"numpy{np.dtype(dtype).itemsize * 8}"
        # broadcastable (-a) for stacked states: (P, r) -> (P, 1, r)
        self._neg_a_b = (
            self.neg_a[:, np.newaxis, :] if self.stacked else self.neg_a
        )
        self._one = self.dtype.type(1.0)
        self._buf_shape: Tuple[int, ...] = ()
        self._f = self._tmp = self._kt = self._dr = None
        self._ft = self._spins = self._inside = None

    # ------------------------------------------------------------------

    def _ensure_buffers(self, shape: Tuple[int, ...]) -> None:
        if shape == self._buf_shape:
            return
        if len(shape) != self.expected_state_ndim() or (
            shape[-1] != self.n_spins
            or (self.stacked and shape[0] != self.n_problems)
        ):
            raise DimensionError(
                f"state shape {shape} does not match kernel "
                f"{self!r} (N={self.n_spins})"
            )
        lead = shape[:-1]
        r, c = self.n_rows, self.n_cols
        self._f = np.empty(shape, self.dtype)        # fused local fields
        self._tmp = np.empty(shape, self.dtype)      # element-wise scratch
        self._kt = np.empty(lead + (r,), self.dtype)     # K @ t
        self._dr = np.empty(lead + (r,), self.dtype)     # v1 - v2
        self._ft = np.empty(lead + (c,), self.dtype)     # (v1 - v2) K
        self._spins = np.empty(shape, self.dtype)    # readout buffer
        self._inside = np.empty(shape, bool)         # |x| <= 1 mask
        self._buf_shape = shape

    def prepare_state(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        x = np.array(x, dtype=self.dtype, order="C", copy=True)
        y = np.array(y, dtype=self.dtype, order="C", copy=True)
        self._ensure_buffers(x.shape)
        return x, y

    # ------------------------------------------------------------------

    def step(self, x, y, a_t, dt, a0, c0) -> None:
        self._ensure_buffers(x.shape)
        r = self.n_rows
        f, tmp, kt, dr, ft = self._f, self._tmp, self._kt, self._dr, self._ft
        v1, v2, t = self.split(x)

        # local fields, block-wise into the preallocated buffer; the
        # per-element operations are identical to the allocating
        # ``-a + kt`` / ``-a - kt`` / ``(v1 - v2) @ K`` expressions
        np.matmul(t, np.swapaxes(self.k, -1, -2), out=kt)
        np.add(self._neg_a_b, kt, out=f[..., :r])
        np.subtract(self._neg_a_b, kt, out=f[..., r : 2 * r])
        np.subtract(v1, v2, out=dr)
        np.matmul(dr, self.k, out=ft)
        f[..., 2 * r :] = ft

        # y += dt * (-(a0 - a_t) * x + c0 * f);  x += (dt * a0) * y
        dtp = self.dtype.type
        if np.ndim(c0) > 0:
            # per-problem coupling scales of a cross-sweep packed stack;
            # broadcasting multiplies each (R, N) slice by its own
            # scalar with the same IEEE operation as the scalar path
            np.multiply(
                f,
                np.asarray(c0, dtype=self.dtype)[:, np.newaxis, np.newaxis],
                out=f,
            )
        else:
            np.multiply(f, dtp(c0), out=f)
        np.multiply(x, dtp(-(a0 - a_t)), out=tmp)
        np.add(tmp, f, out=tmp)
        np.multiply(tmp, dtp(dt), out=tmp)
        np.add(y, tmp, out=y)
        np.multiply(y, dtp(dt * a0), out=tmp)
        np.add(x, tmp, out=x)

        # perfectly inelastic walls: clamp positions, zero the momenta
        # of every oscillator that crossed, in one fused pass
        np.abs(x, out=tmp)
        np.less_equal(tmp, self._one, out=self._inside)
        if not self._inside.all():
            np.clip(x, -self._one, self._one, out=x)
            np.multiply(y, self._inside, out=y)

    def readout(self, x: np.ndarray) -> np.ndarray:
        self._ensure_buffers(x.shape)
        spins = self._spins
        np.greater_equal(x, 0.0, out=self._inside)
        np.multiply(self._inside, self.dtype.type(2.0), out=spins)
        np.subtract(spins, self._one, out=spins)
        return spins

    def energy(self, spins: np.ndarray) -> np.ndarray:
        v1, v2, t = self.split(np.asarray(spins, dtype=self.dtype))
        kt = t @ np.swapaxes(self.k, -1, -2)
        if self.stacked:
            linear = np.einsum("pr,pRr->pR", self.a, v1 + v2)
        else:
            linear = (v1 + v2) @ self.a
        cross = ((v2 - v1) * kt).sum(axis=-1)
        return linear + cross

    def fields(self, x: np.ndarray) -> np.ndarray:
        v1, v2, t = self.split(np.asarray(x, dtype=self.dtype))
        kt = t @ np.swapaxes(self.k, -1, -2)
        neg_a = self._neg_a_b
        f_v1 = neg_a + kt
        f_v2 = neg_a - kt
        f_t = (v1 - v2) @ self.k
        return np.concatenate([f_v1, f_v2, f_t], axis=-1)


register_backend(
    "numpy64",
    lambda w: NumPyBipartiteKernel(w, np.float64),
    dtype="float64",
    summary="float64 reference; bit-for-bit the historical inline loop",
)
register_backend(
    "numpy32",
    lambda w: NumPyBipartiteKernel(w, np.float32),
    dtype="float32",
    summary="float32 stepping, float64 scoring (tolerance contract)",
)
