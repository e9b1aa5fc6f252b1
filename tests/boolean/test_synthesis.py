"""Unit tests for :mod:`repro.boolean.synthesis`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.boolean_matrix import BooleanMatrix
from repro.boolean.decomposition import (
    ColumnSetting,
    column_setting_from_matrix,
    row_setting_from_matrix,
)
from repro.boolean.partition import InputPartition
from repro.boolean.random_functions import (
    random_column_setting,
    random_partition,
)
from repro.boolean.synthesis import (
    DecomposedComponent,
    apply_column_setting,
    apply_row_setting,
    component_from_column_setting,
)
from repro.boolean.truth_table import TruthTable
from repro.errors import DecompositionError


class TestDecomposedComponent:
    def test_shape_validation(self, small_partition):
        with pytest.raises(DecompositionError):
            DecomposedComponent(
                small_partition,
                phi=np.zeros(3, dtype=int),  # wrong: needs n_cols = 8
                f_table=np.zeros((2, 4), dtype=int),
            )
        with pytest.raises(DecompositionError):
            DecomposedComponent(
                small_partition,
                phi=np.zeros(8, dtype=int),
                f_table=np.zeros((2, 5), dtype=int),
            )

    def test_lut_bits(self, small_partition):
        component = DecomposedComponent(
            small_partition,
            phi=np.zeros(8, dtype=int),
            f_table=np.zeros((2, 4), dtype=int),
        )
        assert component.lut_bits == 8 + 2 * 4
        assert component.flat_lut_bits == 32

    def test_fig1_economics(self):
        """The paper's Fig. 1: 5-input LUT, 3/2 split -> 32 vs 16 bits."""
        w = InputPartition(free=(3, 4), bound=(0, 1, 2), n_inputs=5)
        component = DecomposedComponent(
            w, phi=np.zeros(8, dtype=int), f_table=np.zeros((2, 4), dtype=int)
        )
        assert component.flat_lut_bits == 32
        assert component.lut_bits == 16


class TestCascadeEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_cascade_equals_reconstruction(self, seed):
        """F(phi(B), A) evaluates exactly to the setting's matrix."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        w = random_partition(n, int(rng.integers(1, n)), rng)
        setting = random_column_setting(w.n_rows, w.n_cols, rng)
        component = component_from_column_setting(w, setting)
        matrix = setting.reconstruct()
        vector = component.to_truth_vector()
        for idx in range(1 << n):
            row, col = w.cell_of_index(idx)
            assert vector[idx] == matrix[row, col]

    def test_shape_mismatch_rejected(self, small_partition):
        setting = ColumnSetting(
            np.zeros(2, dtype=int), np.zeros(2, dtype=int),
            np.zeros(2, dtype=int),
        )
        with pytest.raises(DecompositionError):
            component_from_column_setting(small_partition, setting)


class TestApplySettings:
    def test_apply_column_setting_replaces_component(
        self, small_table, small_partition
    ):
        setting = random_column_setting(
            small_partition.n_rows, small_partition.n_cols,
            np.random.default_rng(0),
        )
        updated = apply_column_setting(small_table, 1, small_partition,
                                       setting)
        # untouched components identical
        assert np.array_equal(updated.component(0), small_table.component(0))
        # replaced component is exactly decomposable with the setting
        matrix = BooleanMatrix.from_function(updated, 1, small_partition)
        assert np.array_equal(matrix.values, setting.reconstruct())

    def test_apply_row_setting_matches_column_route(
        self, small_table, small_partition
    ):
        """Applying equivalent row/column settings gives identical tables."""
        matrix, _ = (
            BooleanMatrix.from_function(small_table, 0, small_partition),
            None,
        )
        col_setting = random_column_setting(
            small_partition.n_rows, small_partition.n_cols,
            np.random.default_rng(3),
        )
        via_column = apply_column_setting(
            small_table, 0, small_partition, col_setting
        )
        row_setting = row_setting_from_matrix(col_setting.reconstruct())
        via_row = apply_row_setting(
            small_table, 0, small_partition, row_setting
        )
        assert np.array_equal(via_column.outputs, via_row.outputs)

    def test_apply_row_setting_shape_check(self, small_table):
        wrong_partition = InputPartition((0, 1, 2), (3, 4), 5)
        setting = row_setting_from_matrix(np.zeros((4, 8), dtype=int))
        with pytest.raises(DecompositionError):
            apply_row_setting(small_table, 0, wrong_partition, setting)

    def test_idempotent_on_decomposable_component(
        self, small_table, small_partition
    ):
        """Applying a component's own exact setting changes nothing."""
        setting = random_column_setting(
            small_partition.n_rows, small_partition.n_cols,
            np.random.default_rng(9),
        )
        once = apply_column_setting(small_table, 2, small_partition, setting)
        matrix = BooleanMatrix.from_function(once, 2, small_partition)
        extracted = column_setting_from_matrix(matrix)
        twice = apply_column_setting(once, 2, small_partition, extracted)
        assert np.array_equal(once.outputs, twice.outputs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_truth_vector_matches_cascade_evaluation(seed):
    """The one-gather truth vector equals the cascade at every input."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    partition = random_partition(n, int(rng.integers(1, n)), rng)
    setting = random_column_setting(partition.n_rows, partition.n_cols, rng)
    component = component_from_column_setting(partition, setting)
    vector = component.to_truth_vector()
    assert vector.dtype == np.uint8
    assert np.array_equal(vector, component.evaluate(np.arange(1 << n)))
