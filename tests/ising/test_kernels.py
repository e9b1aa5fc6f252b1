"""Unit tests for :mod:`repro.ising.kernels`.

The load-bearing guarantee is the first class: the ``numpy64`` backend
must be *bit-for-bit* identical to the historical inline NumPy loop it
replaced (frozen here as a reference implementation), so that the
kernel refactor is invisible to every seeded experiment.
"""

import numpy as np
import pytest

from repro.core.config import CoreSolverConfig
from repro.errors import ConfigurationError, UnknownBackendError
from repro.ising.kernels import (
    DEFAULT_BACKEND,
    ENV_BACKEND,
    available_backends,
    backend_info,
    known_backends,
    make_kernel,
    register_backend,
    reset_fallback_warnings,
    resolve_backend,
)
from repro.ising.kernels import base as kernel_base
from repro.ising.schedules import LinearPump
from repro.ising.solvers.bsb import BallisticSBSolver
from repro.ising.stop_criteria import FixedIterations
from repro.ising.structured import BipartiteDecompositionModel


def _inline_reference_run(weights, x, y, n_steps, dt, a0, c0, pump):
    """The seed repo's inline bSB loop, frozen verbatim as reference.

    Mirrors the pre-kernel arithmetic exactly: fields built by
    concatenation with fresh temporaries, float64 throughout, walls as
    boolean-mask assignment.
    """
    w = np.asarray(weights, dtype=float)
    k = w / 4.0
    a = k.sum(axis=1)
    r = w.shape[0]
    x = x.copy()
    y = y.copy()

    def fields(positions):
        v1 = positions[..., :r]
        v2 = positions[..., r : 2 * r]
        t = positions[..., 2 * r :]
        kt = t @ k.T
        return np.concatenate(
            [-a + kt, -a - kt, (v1 - v2) @ k], axis=-1
        )

    for iteration in range(1, n_steps + 1):
        a_t = pump(iteration)
        y += dt * (-(a0 - a_t) * x + c0 * fields(x))
        x += dt * a0 * y
        outside = np.abs(x) > 1.0
        if outside.any():
            np.clip(x, -1.0, 1.0, out=x)
            y[outside] = 0.0
    return x, y


class _HiddenKernelModel:
    """Duck-typed view of a model *without* ``make_kernel``.

    Forces :class:`BallisticSBSolver` onto its generic inline path so
    the kernel path can be diffed against it end to end.
    """

    def __init__(self, model):
        self._model = model
        self.n_spins = model.n_spins
        self.offset = model.offset

    def energy(self, spins):
        return self._model.energy(spins)

    def fields(self, x):
        return self._model.fields(x)

    def coupling_rms(self):
        return self._model.coupling_rms()


class TestBitForBit:
    def test_numpy64_step_matches_inline_reference(self, rng):
        w = rng.normal(size=(5, 9))
        kernel = make_kernel(w, backend="numpy64")
        n = kernel.n_spins
        x0 = rng.uniform(-0.1, 0.1, (3, n))
        y0 = rng.uniform(-0.1, 0.1, (3, n))
        dt, a0, c0 = 0.25, 1.0, 0.31
        pump = LinearPump(a0, 80)

        ref_x, ref_y = _inline_reference_run(
            w, x0, y0, 200, dt, a0, c0, pump
        )
        x, y = kernel.prepare_state(x0.copy(), y0.copy())
        for iteration in range(1, 201):
            kernel.step(x, y, pump(iteration), dt, a0, c0)

        # bitwise, not allclose: the kernel is the same arithmetic
        assert np.array_equal(x, ref_x)
        assert np.array_equal(y, ref_y)

    def test_stacked_numpy64_matches_per_problem_inline(self, rng):
        stack = rng.normal(size=(4, 3, 6))
        kernel = make_kernel(stack, backend="numpy64")
        n = kernel.n_spins
        x0 = rng.uniform(-0.1, 0.1, (4, 2, n))
        y0 = rng.uniform(-0.1, 0.1, (4, 2, n))
        dt, a0, c0 = 0.25, 1.0, 0.4
        pump = LinearPump(a0, 50)

        x, y = kernel.prepare_state(x0.copy(), y0.copy())
        for iteration in range(1, 121):
            kernel.step(x, y, pump(iteration), dt, a0, c0)

        for p in range(4):
            ref_x, ref_y = _inline_reference_run(
                stack[p], x0[p], y0[p], 120, dt, a0, c0, pump
            )
            assert np.array_equal(x[p], ref_x)
            assert np.array_equal(y[p], ref_y)

    def test_solver_kernel_path_matches_inline_path(self, rng):
        """Whole-solve equivalence: same rng, same trace, same spins."""
        model = BipartiteDecompositionModel(
            rng.normal(size=(4, 7)), offset=1.5
        )
        solver_args = dict(
            stop=FixedIterations(300, sample_every=25),
            dt=0.25,
            n_replicas=3,
        )
        kernel_result = BallisticSBSolver(
            backend="numpy64", **solver_args
        ).solve(model, np.random.default_rng(7))
        inline_result = BallisticSBSolver(**solver_args).solve(
            _HiddenKernelModel(model), np.random.default_rng(7)
        )
        assert kernel_result.energy == inline_result.energy
        assert kernel_result.objective == inline_result.objective
        assert kernel_result.energy_trace == inline_result.energy_trace
        assert np.array_equal(kernel_result.spins, inline_result.spins)

    def test_energy_matches_model(self, rng):
        w = rng.normal(size=(4, 6))
        model = BipartiteDecompositionModel(w)
        kernel = make_kernel(w, backend="numpy64")
        spins = rng.choice([-1.0, 1.0], size=(5, kernel.n_spins))
        assert np.allclose(kernel.energy(spins), model.energy(spins))

    def test_readout_is_sign(self, rng):
        kernel = make_kernel(rng.normal(size=(3, 4)), backend="numpy64")
        x, _ = kernel.prepare_state(
            rng.normal(size=(2, kernel.n_spins)),
            np.zeros((2, kernel.n_spins)),
        )
        spins = kernel.readout(x)
        assert np.array_equal(spins, np.where(x >= 0, 1.0, -1.0))


class TestNumpy32:
    def test_prepare_state_casts(self, rng):
        kernel = make_kernel(rng.normal(size=(3, 5)), backend="numpy32")
        x, y = kernel.prepare_state(
            rng.normal(size=(2, kernel.n_spins)),
            rng.normal(size=(2, kernel.n_spins)),
        )
        assert x.dtype == np.float32 and y.dtype == np.float32

    def test_short_trajectory_close_to_numpy64(self, rng):
        """float32 stepping tracks the reference over a short horizon."""
        w = rng.normal(size=(6, 10))
        k64 = make_kernel(w, backend="numpy64")
        k32 = make_kernel(w, backend="numpy32")
        n = k64.n_spins
        x0 = rng.uniform(-0.1, 0.1, (2, n))
        y0 = rng.uniform(-0.1, 0.1, (2, n))
        pump = LinearPump(1.0, 30)
        x64, y64 = k64.prepare_state(x0.copy(), y0.copy())
        x32, y32 = k32.prepare_state(x0.copy(), y0.copy())
        for iteration in range(1, 21):
            k64.step(x64, y64, pump(iteration), 0.25, 1.0, 0.3)
            k32.step(x32, y32, pump(iteration), 0.25, 1.0, 0.3)
        assert np.allclose(x32, x64, atol=1e-4)
        assert np.allclose(y32, y64, atol=1e-4)

    def test_decoded_objective_scored_in_float64(self, rng):
        """Backend numpy32 still reports exact float64 objectives."""
        model = BipartiteDecompositionModel(
            rng.normal(size=(3, 6)), offset=0.25
        )
        result = BallisticSBSolver(
            stop=FixedIterations(200, sample_every=20),
            n_replicas=2,
            backend="numpy32",
        ).solve(model, np.random.default_rng(11))
        assert set(np.unique(result.spins)) <= {-1.0, 1.0}
        # the reported energy is the float64 model energy of the spins
        assert result.energy == pytest.approx(
            float(model.energy(result.spins)), abs=0.0
        )

    def test_stacked_energy_scored_in_float64(self, rng):
        stack = rng.normal(size=(3, 4, 5))
        kernel = make_kernel(stack, backend="numpy32")
        spins = rng.choice(
            [-1.0, 1.0], size=(3, 2, kernel.n_spins)
        )
        ref = make_kernel(stack, backend="numpy64")
        # stepping dtype is float32 but scoring goes through float64
        assert kernel.k.dtype == np.float32
        assert np.allclose(
            np.asarray(kernel.energy(spins), dtype=float),
            ref.energy(spins),
            rtol=1e-5,
        )


class TestRegistry:
    def test_numpy_backends_always_available(self):
        assert "numpy64" in available_backends()
        assert "numpy32" in available_backends()

    @pytest.mark.parametrize("name", ["numba", "torch", "cupy"])
    def test_removed_backends_are_unknown(self, monkeypatch, name):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert name not in known_backends()
        with pytest.raises(UnknownBackendError):
            resolve_backend(name)
        with pytest.raises(ConfigurationError):
            CoreSolverConfig(backend=name)
        monkeypatch.setenv(ENV_BACKEND, name)
        with pytest.raises(UnknownBackendError):
            resolve_backend(None)

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None) == DEFAULT_BACKEND
        assert resolve_backend("numpy32") == "numpy32"

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "numpy32")
        assert resolve_backend("numpy64") == "numpy32"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        with pytest.raises(ConfigurationError):
            resolve_backend("cuda")

    def test_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            CoreSolverConfig(backend="not-a-backend")
        assert CoreSolverConfig(backend="numpy32").backend == "numpy32"

    def test_unavailable_backend_falls_back_warning_once(
        self, monkeypatch, rng, caplog
    ):
        # a private copy of the registry tables keeps the registration
        # below from leaking into other tests
        for table in ("_REGISTRY", "_UNAVAILABLE", "_INFO"):
            monkeypatch.setattr(
                kernel_base, table, dict(getattr(kernel_base, table))
            )
        register_backend(
            "offline32",
            unavailable_reason="needs hardware this host lacks",
            dtype="float32",
        )
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert "offline32" in known_backends()
        assert not backend_info("offline32").available
        reset_fallback_warnings()
        with caplog.at_level("WARNING", logger="repro.ising.kernels"):
            assert resolve_backend("offline32") == DEFAULT_BACKEND
        assert any(
            "offline32" in record.getMessage() for record in caplog.records
        )
        # the fallback warns exactly once per process, not once per
        # resolve/batch — repeated resolutions stay silent
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.ising.kernels"):
            assert resolve_backend("offline32") == DEFAULT_BACKEND
            kernel = make_kernel(
                rng.normal(size=(2, 3)), backend="offline32"
            )
        assert not caplog.records
        assert kernel.dtype == np.float64
        reset_fallback_warnings()
        with caplog.at_level("WARNING", logger="repro.ising.kernels"):
            assert resolve_backend("offline32") == DEFAULT_BACKEND
        assert any(
            "offline32" in record.getMessage() for record in caplog.records
        )
