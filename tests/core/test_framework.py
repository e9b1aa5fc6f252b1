"""Tests for :class:`repro.core.framework.IsingDecomposer`."""

import numpy as np
import pytest

from repro.boolean.boolean_matrix import BooleanMatrix
from repro.boolean.decomposition import has_column_decomposition
from repro.boolean.metrics import mean_error_distance
from repro.boolean.random_functions import (
    flip_cells,
    random_decomposable_function,
)
from repro.boolean.truth_table import TruthTable
from repro.core.config import CoreSolverConfig, FrameworkConfig
from repro.core.framework import IsingDecomposer
from repro.errors import DimensionError
from repro.ising.kernels import ENV_BACKEND, resolve_backend

FAST_SOLVER = CoreSolverConfig(max_iterations=400, n_replicas=2)


def fast_config(**overrides):
    base = dict(
        mode="joint",
        free_size=2,
        n_partitions=4,
        n_rounds=2,
        seed=0,
        solver=FAST_SOLVER,
    )
    base.update(overrides)
    return FrameworkConfig(**base)


@pytest.fixture(scope="module")
def square_result():
    table = TruthTable.from_integer_function(
        lambda x: (x * x) % 32, n_inputs=5, n_outputs=5
    )
    return table, IsingDecomposer(fast_config()).decompose(table)


class TestDecompose:
    def test_every_component_has_a_setting(self, square_result):
        table, result = square_result
        assert sorted(result.components) == list(range(5))

    def test_every_component_is_decomposable(self, square_result):
        _, result = square_result
        for k, accepted in result.components.items():
            matrix = BooleanMatrix.from_function(
                result.approx, k, accepted.partition
            )
            assert has_column_decomposition(matrix)

    def test_med_matches_tables(self, square_result):
        table, result = square_result
        assert np.isclose(
            result.med, mean_error_distance(table, result.approx)
        )

    def test_med_trace_monotone_in_joint_mode(self, square_result):
        _, result = square_result
        trace = result.med_trace
        assert all(
            trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1)
        )

    def test_lut_accounting(self, square_result):
        _, result = square_result
        assert result.flat_lut_bits == 5 * 32
        # each component cascade: c + 2r with r=4, c=8 -> 16 bits
        assert result.total_lut_bits == 5 * 16
        assert np.isclose(result.compression_ratio, 2.0)

    def test_free_size_bound_checked(self):
        table = TruthTable.random(3, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            IsingDecomposer(fast_config(free_size=3)).decompose(table)

    def test_deterministic_given_seed(self):
        table = TruthTable.from_integer_function(
            lambda x: (x * 3) % 16, n_inputs=4, n_outputs=4
        )
        a = IsingDecomposer(fast_config(n_partitions=2)).decompose(table)
        b = IsingDecomposer(fast_config(n_partitions=2)).decompose(table)
        assert np.isclose(a.med, b.med)
        assert np.array_equal(a.approx.outputs, b.approx.outputs)


class TestKnownOptima:
    def test_exactly_decomposable_function_gets_zero_med(self, rng):
        """All components decomposable -> the framework should find MED 0
        when the true partitions are in the candidate pool (exhaustive P).
        """
        table, _ = random_decomposable_function(5, 3, 2, rng)
        config = fast_config(
            n_partitions=10,  # C(5,2) = 10 -> exhaustive
            n_rounds=1,
            solver=CoreSolverConfig(max_iterations=800, n_replicas=4),
        )
        result = IsingDecomposer(config).decompose(table)
        assert np.isclose(result.med, 0.0, atol=1e-12)

    def test_near_decomposable_error_bounded_by_flips(self, rng):
        """Flipping f cells bounds the best ER by the flipped mass."""
        table, partitions = random_decomposable_function(5, 1, 2, rng)
        noisy = flip_cells(table, 0, 2, rng)
        config = fast_config(
            mode="separate",
            n_partitions=10,
            n_rounds=1,
            solver=CoreSolverConfig(max_iterations=800, n_replicas=4),
        )
        result = IsingDecomposer(config).decompose(noisy)
        # flipped mass = 2 / 32
        assert result.error_rates[0] <= 2 / 32 + 1e-12


class TestModes:
    def test_separate_mode_runs(self):
        table = TruthTable.from_integer_function(
            lambda x: (x + 7) % 16, n_inputs=4, n_outputs=4
        )
        result = IsingDecomposer(
            fast_config(mode="separate", n_rounds=1)
        ).decompose(table)
        assert sorted(result.components) == list(range(4))

    def test_joint_beats_separate_on_med_typically(self):
        """Joint mode optimizes MED directly, so it should not lose badly."""
        table = TruthTable.from_integer_function(
            lambda x: (x * 5 + 3) % 32, n_inputs=5, n_outputs=5
        )
        joint = IsingDecomposer(fast_config(seed=3)).decompose(table)
        separate = IsingDecomposer(
            fast_config(mode="separate", seed=3)
        ).decompose(table)
        assert joint.med <= separate.med * 1.5 + 1e-9


class TestExtensions:
    def test_prescreen_runs_and_returns_valid_result(self):
        table = TruthTable.from_integer_function(
            lambda x: (x * x + 1) % 16, n_inputs=4, n_outputs=4
        )
        config = fast_config(n_partitions=4, prescreen_keep=2, n_rounds=1)
        result = IsingDecomposer(config).decompose(table)
        assert sorted(result.components) == list(range(4))

    def test_stall_stops_early(self):
        """A function solved exactly in round 1 stalls in round 2."""
        rng = np.random.default_rng(0)
        table, _ = random_decomposable_function(5, 2, 2, rng)
        config = fast_config(
            n_partitions=10, n_rounds=5,
            solver=CoreSolverConfig(max_iterations=800, n_replicas=4),
        )
        result = IsingDecomposer(config).decompose(table)
        if np.isclose(result.med, 0.0):
            assert result.rounds_used < 5


class TestHooks:
    """Progress/cancellation hooks (service-layer integration points)."""

    def _table(self):
        return TruthTable.from_integer_function(
            lambda x: (x * 7 + 1) % 16, n_inputs=4, n_outputs=4
        )

    def test_progress_events_cover_components_and_rounds(self):
        events = []
        config = fast_config(n_rounds=1, stop_when_stalled=False)
        IsingDecomposer(config).decompose(
            self._table(), progress=events.append
        )
        kinds = [event["event"] for event in events]
        assert kinds.count("component") == 4
        assert kinds.count("round") == 1
        assert all(event["round"] == 1 for event in events)
        round_event = [e for e in events if e["event"] == "round"][0]
        assert round_event["med"] >= 0.0
        # round one must accept every component
        component_events = [e for e in events if e["event"] == "component"]
        assert all(e["accepted"] for e in component_events)

    def test_hooks_do_not_perturb_results(self):
        table = self._table()
        observed = IsingDecomposer(fast_config()).decompose(
            table, progress=lambda event: None, should_cancel=lambda: False
        )
        plain = IsingDecomposer(fast_config()).decompose(table)
        assert np.array_equal(observed.approx.outputs, plain.approx.outputs)
        assert observed.med == plain.med
        for k in plain.components:
            assert np.array_equal(
                observed.components[k].setting.pattern1,
                plain.components[k].setting.pattern1,
            )
            assert observed.components[k].partition.free == (
                plain.components[k].partition.free
            )

    def test_cancellation_raises_operation_cancelled(self):
        from repro.errors import OperationCancelled

        with pytest.raises(OperationCancelled, match="cancelled"):
            IsingDecomposer(fast_config()).decompose(
                self._table(), should_cancel=lambda: True
            )

    def test_cancellation_mid_run(self):
        from repro.errors import OperationCancelled

        calls = {"n": 0}

        def cancel_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        with pytest.raises(OperationCancelled):
            IsingDecomposer(
                fast_config(n_rounds=3, stop_when_stalled=False)
            ).decompose(self._table(), should_cancel=cancel_after_two)


class TestReportedDtype:
    """Sweep metadata names the dtype of the backend that actually ran."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("backend", ["numpy64", "numpy32", "native32"])
    def test_dtype_follows_the_resolved_backend(
        self, monkeypatch, backend, batched
    ):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        table = TruthTable.from_integer_function(
            lambda x: (x * x) % 32, n_inputs=5, n_outputs=5
        )
        config = fast_config(
            n_partitions=2,
            batched=batched,
            solver=CoreSolverConfig(
                max_iterations=60, n_replicas=2, backend=backend
            ),
        )
        solution = IsingDecomposer(config)._optimize_component(
            table, table, 0,
            np.random.default_rng(1), np.random.default_rng(2),
        )
        metadata = solution.solve_result.metadata
        # native32 resolves to numpy64 on a host without a C compiler
        ran = resolve_backend(backend)
        assert metadata["backend"] == ran
        assert metadata["dtype"] == (
            "float64" if ran == "numpy64" else "float32"
        )
