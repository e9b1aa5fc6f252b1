"""Tests for the compiled ``native32`` tile backend.

The native kernel is a perf backend under the float32 tolerance
contract: its trajectories must track the ``numpy32`` kernel within
short-horizon tolerance, its ``run_tile`` window pass must be
bit-identical to its own per-step loop (tiling is a scheduling choice,
never an arithmetic one), and its per-problem ``c0`` vector path must
be bit-identical to running each problem alone.  When the engine
cannot be built the factory must degrade to numpy32 arithmetic under
the ``native32`` name with a single warning.
"""

import numpy as np
import pytest

from repro.ising.kernels import (
    NATIVE_PROBED_AVAILABLE,
    backend_info,
    make_kernel,
)
from repro.ising.kernels import native as native_mod
from repro.ising.kernels.native import (
    NativeBipartiteKernel,
    _make_native,
    native_engine,
)
from repro.ising.schedules import LinearPump


needs_engine = pytest.mark.skipif(
    not (NATIVE_PROBED_AVAILABLE and native_engine() is not None),
    reason="native engine not buildable in this environment",
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _run_steps(kernel, x, y, n_steps, dt, a0, c0, pump):
    for iteration in range(1, n_steps + 1):
        kernel.step(x, y, pump(iteration), dt, a0, c0)


class TestMetadata:
    def test_registered_with_metadata(self):
        info = backend_info("native32")
        assert info.dtype == "float32"
        # availability matches the import-time probe
        assert info.available == NATIVE_PROBED_AVAILABLE

    @needs_engine
    def test_make_kernel_builds_native(self, rng):
        kernel = make_kernel(rng.normal(size=(4, 6)), backend="native32")
        assert isinstance(kernel, NativeBipartiteKernel)
        assert kernel.name == "native32"
        assert kernel.dtype == np.float32


@needs_engine
class TestNumerics:
    def test_short_trajectory_close_to_numpy32(self, rng):
        """Same tolerance class as numpy32: close over a short horizon."""
        w = rng.normal(size=(6, 10))
        k32 = make_kernel(w, backend="numpy32")
        knat = make_kernel(w, backend="native32")
        n = k32.n_spins
        x0 = rng.uniform(-0.1, 0.1, (2, n))
        y0 = rng.uniform(-0.1, 0.1, (2, n))
        pump = LinearPump(1.0, 30)
        x32, y32 = k32.prepare_state(x0.copy(), y0.copy())
        xn, yn = knat.prepare_state(x0.copy(), y0.copy())
        _run_steps(k32, x32, y32, 20, 0.25, 1.0, 0.3, pump)
        _run_steps(knat, xn, yn, 20, 0.25, 1.0, 0.3, pump)
        assert np.allclose(xn, x32, atol=1e-4)
        assert np.allclose(yn, y32, atol=1e-4)

    def test_run_tile_bit_identical_to_step_loop(self, rng):
        """Tiling must only change scheduling, never arithmetic."""
        w = rng.normal(size=(3, 5, 8))  # stacked (P, r, c)
        kernel = make_kernel(w, backend="native32")
        n = kernel.n_spins
        x0 = rng.uniform(-0.1, 0.1, (3, 2, n))
        y0 = rng.uniform(-0.1, 0.1, (3, 2, n))
        pump = LinearPump(1.0, 40)
        a_ts = [pump(i) for i in range(1, 31)]

        xt, yt = kernel.prepare_state(x0.copy(), y0.copy())
        kernel.run_tile(xt, yt, a_ts, 0.25, 1.0, 0.3)

        xs, ys = kernel.prepare_state(x0.copy(), y0.copy())
        for a_t in a_ts:
            kernel.step(xs, ys, a_t, 0.25, 1.0, 0.3)

        assert np.array_equal(xt, xs)
        assert np.array_equal(yt, ys)

    def test_vector_c0_bit_identical_to_solo_runs(self, rng):
        """A stacked run with per-problem c0 equals each solo run."""
        stack = rng.normal(size=(3, 4, 7))
        c0s = np.array([0.2, 0.5, 0.9], np.float32)
        n = 2 * 4 + 7
        x0 = rng.uniform(-0.1, 0.1, (3, 2, n))
        y0 = rng.uniform(-0.1, 0.1, (3, 2, n))
        pump = LinearPump(1.0, 25)
        a_ts = [pump(i) for i in range(1, 21)]

        packed = make_kernel(stack, backend="native32")
        xp, yp = packed.prepare_state(x0.copy(), y0.copy())
        packed.run_tile(xp, yp, a_ts, 0.25, 1.0, c0s)

        for p in range(3):
            solo = make_kernel(stack[p], backend="native32")
            xs, ys = solo.prepare_state(x0[p].copy(), y0[p].copy())
            solo.run_tile(xs, ys, a_ts, 0.25, 1.0, float(c0s[p]))
            assert np.array_equal(xp[p], xs)
            assert np.array_equal(yp[p], ys)

    def test_energy_close_to_float64_reference(self, rng):
        stack = rng.normal(size=(2, 3, 5))
        kernel = make_kernel(stack, backend="native32")
        ref = make_kernel(stack, backend="numpy64")
        spins = rng.choice([-1.0, 1.0], size=(2, 2, kernel.n_spins))
        assert np.allclose(
            np.asarray(kernel.energy(spins), dtype=float),
            ref.energy(spins),
            rtol=1e-5,
        )


class TestFallback:
    def test_build_failure_degrades_to_numpy32(self, monkeypatch, rng,
                                               caplog):
        monkeypatch.setattr(native_mod, "native_engine", lambda: None)
        monkeypatch.setattr(native_mod, "_FALLBACK_WARNED", False)
        with caplog.at_level("WARNING", logger="repro.ising.kernels"):
            kernel = _make_native(rng.normal(size=(3, 5)))
        assert not isinstance(kernel, NativeBipartiteKernel)
        assert kernel.name == "native32"
        assert kernel.dtype == np.float32
        assert any("native32" in rec.getMessage()
                   for rec in caplog.records)
        # ... and warns only once per process
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.ising.kernels"):
            _make_native(rng.normal(size=(3, 5)))
        assert not caplog.records
