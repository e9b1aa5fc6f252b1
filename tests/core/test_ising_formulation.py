"""Tests for Eqs. 3-16: the Ising formulations of the core COP.

The central invariants (property-tested):

* the separate-mode model's objective equals the true per-component
  error rate of the decoded setting;
* the joint-mode model's objective equals the true whole-word MED with
  the other components frozen;
* spins <-> setting encode/decode is a bijection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.metrics import error_rate_per_output, mean_error_distance
from repro.boolean.random_functions import (
    random_column_setting,
    random_function,
    random_partition,
)
from repro.boolean.synthesis import apply_column_setting
from repro.core.ising_formulation import (
    build_core_cop_model,
    joint_mode_weights,
    linear_error_terms,
    separate_mode_weights,
    setting_from_spins,
    spins_from_setting,
)
from repro.errors import ConfigurationError, DimensionError


def random_instance(seed, n_max=6, m_max=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    table = random_function(n, m, rng, random_distribution=True)
    partition = random_partition(n, int(rng.integers(1, n)), rng)
    component = int(rng.integers(0, m))
    return rng, table, partition, component


def joint_weights_from_outputs(exact_table, approx_table, component,
                               partition):
    """Eq. 16 with both tables' words recomputed from their outputs by an
    integer matmul: the construction resident words replaced."""
    out_weights = 1 << np.arange(exact_table.n_outputs, dtype=np.int64)
    exact_words = exact_table.outputs.astype(np.int64) @ out_weights
    approx_words = approx_table.outputs.astype(np.int64) @ out_weights
    approx_without_k = approx_words - (
        approx_table.outputs[:, component].astype(np.int64) << component
    )
    k_weight = float(1 << component)
    deviation_flat = (approx_without_k - exact_words).astype(float)
    cells = partition.index_of_cell
    deviation = deviation_flat[cells]
    probs = np.empty(cells.shape)
    probs[:] = exact_table.probabilities[cells]
    inner = (deviation >= -k_weight) & (deviation <= 0.0)
    q = np.where(
        inner, k_weight + 2.0 * deviation, k_weight * np.sign(deviation)
    )
    cell_constant = np.where(inner, -deviation, np.abs(deviation))
    weights = probs * q
    offset = float((probs * cell_constant).sum()) + float(weights.sum()) / 2.0
    return weights, offset


class TestSeparateMode:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_objective_equals_component_error_rate(self, seed):
        rng, table, partition, k = random_instance(seed)
        model = build_core_cop_model(table, table, k, partition, "separate")
        for _ in range(5):
            setting = random_column_setting(
                model.n_rows, model.n_cols, rng
            )
            objective = model.objective(spins_from_setting(setting))
            approx = apply_column_setting(table, k, partition, setting)
            true_er = error_rate_per_output(table, approx)[k]
            assert np.isclose(objective, true_er)

    def test_perfect_setting_gives_zero(self, rng):
        """Encoding the exact matrix as a setting yields ER = 0."""
        from repro.boolean.boolean_matrix import BooleanMatrix
        from repro.boolean.decomposition import column_setting_from_matrix
        from repro.boolean.random_functions import (
            random_decomposable_function,
        )

        table, partitions = random_decomposable_function(5, 2, 2, rng)
        k = 0
        matrix = BooleanMatrix.from_function(table, k, partitions[k])
        setting = column_setting_from_matrix(matrix)
        model = build_core_cop_model(
            table, table, k, partitions[k], "separate"
        )
        assert np.isclose(
            model.objective(spins_from_setting(setting)), 0.0
        )

    def test_weights_shape(self, small_table, small_partition):
        from repro.boolean.boolean_matrix import BooleanMatrix

        matrix = BooleanMatrix.from_function(small_table, 0, small_partition)
        weights, offset = separate_mode_weights(matrix)
        assert weights.shape == (4, 8)
        assert np.isfinite(offset)


class TestJointMode:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_objective_equals_whole_word_med(self, seed):
        rng, table, partition, k = random_instance(seed)
        # perturb other components to simulate mid-framework state
        approx = table
        for other in range(table.n_outputs):
            if other == k:
                continue
            other_partition = random_partition(
                table.n_inputs, len(partition.free), rng
            )
            approx = apply_column_setting(
                approx, other, other_partition,
                random_column_setting(
                    other_partition.n_rows, other_partition.n_cols, rng
                ),
            )
        model = build_core_cop_model(table, approx, k, partition, "joint")
        for _ in range(5):
            setting = random_column_setting(model.n_rows, model.n_cols, rng)
            objective = model.objective(spins_from_setting(setting))
            candidate = apply_column_setting(approx, k, partition, setting)
            assert np.isclose(
                objective, mean_error_distance(table, candidate)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_weights_bit_equal_to_words_from_outputs(self, seed):
        """Resident words give the weights of words recomputed per call."""
        rng, table, partition, k = random_instance(seed, n_max=8, m_max=6)
        approx = table
        for _ in range(int(rng.integers(0, 2 * table.n_outputs))):
            other = random_partition(table.n_inputs, len(partition.free), rng)
            approx = apply_column_setting(
                approx, int(rng.integers(0, table.n_outputs)), other,
                random_column_setting(other.n_rows, other.n_cols, rng),
            )
        weights, offset = joint_mode_weights(table, approx, k, partition)
        want_weights, want_offset = joint_weights_from_outputs(
            table, approx, k, partition
        )
        assert np.array_equal(weights, want_weights)
        assert offset == want_offset

    def test_first_round_uses_exact_others(self, rng):
        """With approx == exact, joint objective is MED of replacing k."""
        table = random_function(5, 3, rng)
        partition = random_partition(5, 2, rng)
        model = build_core_cop_model(table, table, 2, partition, "joint")
        setting = random_column_setting(model.n_rows, model.n_cols, rng)
        candidate = apply_column_setting(table, 2, partition, setting)
        assert np.isclose(
            model.objective(spins_from_setting(setting)),
            mean_error_distance(table, candidate),
        )

    def test_msb_weighting(self, rng):
        """An error on component k costs 2^k in the joint objective."""
        table = random_function(4, 3, rng)
        partition = random_partition(4, 2, rng)
        for k in range(3):
            weights, _ = joint_mode_weights(table, table, k, partition)
            # all deviations D are 0 at the exact state, so q = +-2^k
            assert np.allclose(
                np.abs(weights / table.probabilities[partition.index_of_cell]),
                float(1 << k),
            )

    def test_shape_mismatch_rejected(self, rng):
        a = random_function(4, 3, rng)
        b = random_function(4, 2, rng)
        partition = random_partition(4, 2, rng)
        with pytest.raises(DimensionError):
            joint_mode_weights(a, b, 0, partition)

    def test_component_range_checked(self, rng):
        table = random_function(4, 2, rng)
        partition = random_partition(4, 2, rng)
        with pytest.raises(DimensionError):
            joint_mode_weights(table, table, 5, partition)


class TestLinearErrorTerms:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_linear_form_matches_model(self, seed):
        """constant + sum(W * O_hat) == model objective for any setting."""
        rng, table, partition, k = random_instance(seed)
        for mode in ("separate", "joint"):
            weights, constant = linear_error_terms(
                table, table, k, partition, mode
            )
            model = build_core_cop_model(table, table, k, partition, mode)
            setting = random_column_setting(model.n_rows, model.n_cols, rng)
            direct = constant + float(
                (weights * setting.reconstruct()).sum()
            )
            assert np.isclose(
                direct, model.objective(spins_from_setting(setting))
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_constant_is_partition_independent(self, seed):
        """The constant (and total weight) do not depend on the partition."""
        rng, table, _, k = random_instance(seed)
        n = table.n_inputs
        w1 = random_partition(n, 1, rng)
        w2 = random_partition(n, n - 1, rng)
        for mode in ("separate", "joint"):
            _, c1 = linear_error_terms(table, table, k, w1, mode)
            _, c2 = linear_error_terms(table, table, k, w2, mode)
            assert np.isclose(c1, c2)

    def test_unknown_mode_rejected(self, rng):
        table = random_function(4, 2, rng)
        partition = random_partition(4, 2, rng)
        with pytest.raises(ConfigurationError):
            linear_error_terms(table, table, 0, partition, "fused")
        with pytest.raises(ConfigurationError):
            build_core_cop_model(table, table, 0, partition, "fused")


class TestSpinEncoding:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        setting = random_column_setting(r, c, rng)
        decoded = setting_from_spins(spins_from_setting(setting), r, c)
        assert np.array_equal(decoded.pattern1, setting.pattern1)
        assert np.array_equal(decoded.pattern2, setting.pattern2)
        assert np.array_equal(decoded.column_types, setting.column_types)

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            setting_from_spins(np.ones(5), 2, 2)
