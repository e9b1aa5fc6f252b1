"""In-job chunk stacking: a component's prepared sweeps run together.

The load-bearing guarantee: advancing a component's chunk sweeps
through one :func:`run_prepared_sweeps` call (what the framework's
``batched`` path does) is **bit-identical** to advancing each sweep
through its own call.  Float64 sweeps step one by one; two or more
float32 sweeps step as one stacked kernel (:func:`stack_states`) whose
per-slice arithmetic is unchanged.  Sweeps that do not share one solver
config and ``(r, c)`` shape are refused, never regrouped.
"""

import numpy as np
import pytest

from repro.boolean.random_functions import random_function
from repro.core.batch import (
    advance_window,
    prepare_sweep,
    run_prepared_sweeps,
    stack_states,
)
from repro.core.config import CoreSolverConfig
from repro.core.partitions import sample_partitions
from repro.errors import DimensionError
from repro.ising.kernels import NATIVE_PROBED_AVAILABLE, make_kernel
from repro.ising.kernels.native import native_engine
from repro.ising.schedules import LinearPump
from repro.obs.probe import RecordingSolverProbe, set_probe_factory

FAST = CoreSolverConfig(max_iterations=300, n_replicas=2)

FLOAT32_BACKENDS = [
    "numpy32",
    pytest.param(
        "native32",
        marks=pytest.mark.skipif(
            not (NATIVE_PROBED_AVAILABLE and native_engine() is not None),
            reason="native engine not buildable in this environment",
        ),
    ),
]


def _sweeps(config_seeds, n_inputs=6, free=3, n_partitions=3):
    """Prepare one sweep per (config, seed) pair over a fixed problem."""
    table_rng = np.random.default_rng(2)
    table = random_function(n_inputs, 2, table_rng)
    partitions = sample_partitions(
        n_inputs, free, n_partitions, np.random.default_rng(3)
    )
    return [
        prepare_sweep(
            config, table, table, 0, partitions, "joint",
            rng=np.random.default_rng(seed),
        )
        for config, seed in config_seeds
    ]


def _results(sweep):
    return [
        (
            solution.objective,
            solution.setting.pattern1.tolist(),
            solution.setting.pattern2.tolist(),
            solution.setting.column_types.tolist(),
        )
        for solution in sweep.finalize()
    ]


class TestFusedBitIdentity:
    def test_fused_run_matches_solo_runs_float64(self):
        pairs = [(FAST, 5), (FAST, 6), (FAST, 7)]
        fused = _sweeps(pairs)
        run_prepared_sweeps(fused)

        solo = _sweeps(pairs)
        for sweep in solo:
            run_prepared_sweeps([sweep])

        for f, s in zip(fused, solo):
            assert _results(f) == _results(s)

    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_fused_run_matches_solo_runs_float32_stack(self, backend):
        cfg = CoreSolverConfig(
            max_iterations=300, n_replicas=2, backend=backend
        )
        pairs = [(cfg, 5), (cfg, 6)]
        fused = _sweeps(pairs)
        run_prepared_sweeps(fused)
        # the sweeps really stepped as one stack: views of one array
        assert fused[0].x.base is not None
        assert fused[0].x.base is fused[1].x.base

        solo = _sweeps(pairs)
        for sweep in solo:
            run_prepared_sweeps([sweep])

        # stacked float32 slices perform the same per-slice IEEE ops,
        # so the end-to-end results are identical here too
        for f, s in zip(fused, solo):
            assert _results(f) == _results(s)

    def test_float64_sweeps_always_step_alone(self):
        """Float64 sweeps keep their own state arrays (never packed)."""
        fused = _sweeps([(FAST, 5), (FAST, 6), (FAST, 7)])
        own = [(sweep.x, sweep.y) for sweep in fused]
        run_prepared_sweeps(fused)
        for sweep, (x, y) in zip(fused, own):
            assert sweep.x is x and sweep.y is y
            assert sweep.x.base is None and sweep.y.base is None

    def test_float64_solo_sweeps_are_bit_identical(self):
        """Float64 sweeps of one call end with the exact states of
        sweeps advanced through calls of their own."""
        pairs = [(FAST, 5), (FAST, 6), (FAST, 7)]
        fused = _sweeps(pairs)
        run_prepared_sweeps(fused)
        solo = _sweeps(pairs)
        for sweep in solo:
            run_prepared_sweeps([sweep])
        for sweep, alone in zip(fused, solo):
            assert np.array_equal(sweep.x, alone.x)
            assert np.array_equal(sweep.y, alone.y)

    def test_mixed_configs_raise_dimension_error(self):
        """Sweeps of different solver configs (schedule, replicas,
        backend) or shapes are refused rather than grouped."""
        mixed = [
            CoreSolverConfig(max_iterations=400, n_replicas=2),
            CoreSolverConfig(max_iterations=300, n_replicas=3),
            CoreSolverConfig(
                max_iterations=300, n_replicas=2, backend="numpy32"
            ),
        ]
        for other in mixed:
            with pytest.raises(DimensionError, match="one solver config"):
                run_prepared_sweeps(_sweeps([(FAST, 5), (other, 6)]))
        [wide] = _sweeps([(FAST, 6)], free=2)
        with pytest.raises(DimensionError, match="shape"):
            run_prepared_sweeps(_sweeps([(FAST, 5)]) + [wide])

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(DimensionError):
            run_prepared_sweeps([])

    def test_probes_never_change_results(self):
        pairs = [(FAST, 5), (FAST, 6)]
        bare = _sweeps(pairs)
        run_prepared_sweeps(bare)
        set_probe_factory(RecordingSolverProbe)
        try:
            probed = _sweeps(pairs)
            assert all(s.probe is not None for s in probed)
            run_prepared_sweeps(probed)
        finally:
            set_probe_factory(None)
        for b, p in zip(bare, probed):
            assert _results(b) == _results(p)
        # the probe actually observed the schedule
        probe = probed[0].probe
        assert probe.energy_trace
        assert probe.kernel_steps > 0
        assert probe.n_iterations == FAST.max_iterations


A_TS = [LinearPump(1.0, 30)(i) for i in range(1, 21)]
DT, A0 = 0.25, 1.0


class TestStackStates:
    """The stacking helper against per-problem stepping, state by state."""

    @staticmethod
    def _problem(rng, backend, p, r, c, reps=2, c0=0.3):
        w = rng.normal(size=(p, r, c))
        kernel = make_kernel(w, backend=backend)
        n = kernel.n_spins
        x = rng.uniform(-0.1, 0.1, (p, reps, n))
        y = rng.uniform(-0.1, 0.1, (p, reps, n))
        x, y = kernel.prepare_state(x, y)
        return w, kernel, x, y, c0

    @pytest.mark.parametrize("n_members", [1, 2, 16])
    @pytest.mark.parametrize("backend", FLOAT32_BACKENDS)
    def test_same_shape_members_match_solo_bitwise(self, backend, n_members):
        rng = np.random.default_rng(41)
        problems = [
            self._problem(rng, backend, p=2, r=4, c=6, c0=0.2 + 0.1 * i)
            for i in range(n_members)
        ]
        kernel, x, y, c0 = stack_states(
            backend,
            [w for w, _, _, _, _ in problems],
            [px for _, _, px, _, _ in problems],
            [py for _, _, _, py, _ in problems],
            [pc0 for _, _, _, _, pc0 in problems],
        )
        assert c0.shape == (2 * n_members,)
        advance_window(kernel, x, y, A_TS, DT, A0, c0)
        start = 0
        for _, solo_kernel, px, py, pc0 in problems:
            xs, ys = px.copy(), py.copy()
            advance_window(solo_kernel, xs, ys, A_TS, DT, A0, pc0)
            assert np.array_equal(x[start : start + 2], xs)
            assert np.array_equal(y[start : start + 2], ys)
            start += 2
