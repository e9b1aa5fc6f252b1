"""Tests for the non-disjoint decomposition extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.metrics import error_rate_per_output, mean_error_distance
from repro.boolean.overlapping import OverlappingPartition
from repro.boolean.random_functions import (
    random_column_setting,
    random_function,
)
from repro.core.config import CoreSolverConfig, FrameworkConfig
from repro.core.framework import IsingDecomposer
from repro.core.ising_formulation import spins_from_setting
from repro.core.nondisjoint import (
    NonDisjointDecomposer,
    apply_overlapping_setting,
    build_overlapping_core_cop_model,
    overlapping_component,
    sample_overlapping_partitions,
)
from repro.errors import DimensionError, PartitionError

FAST = CoreSolverConfig(max_iterations=400, n_replicas=2)


class TestOverlappingPartition:
    def test_disjoint_special_case(self):
        w = OverlappingPartition(free=(0, 1), bound=(2, 3), n_inputs=4)
        assert w.is_disjoint
        assert w.consistent_mask.all()

    def test_shared_variables(self):
        w = OverlappingPartition(free=(0, 1), bound=(1, 2), n_inputs=3)
        assert w.shared == (1,)
        # half the 4x4 cells are reachable (must agree on x2)
        assert w.consistent_mask.sum() == 8

    def test_consistency_agrees_on_shared_bits(self):
        w = OverlappingPartition(free=(0, 1), bound=(1, 2), n_inputs=3)
        # free order (0,1): x2 is the LSB of the row index
        # bound order (1,2): x2 is the MSB of the column index
        rows, cols = np.nonzero(w.consistent_mask)
        for row, col in zip(rows, cols):
            assert (row & 1) == (col >> 1)

    def test_cell_bijection_with_inputs(self):
        w = OverlappingPartition(free=(0, 2, 3), bound=(1, 2, 3),
                                 n_inputs=4)
        cells = w.index_of_cell[w.consistent_mask]
        assert np.array_equal(np.sort(cells), np.arange(16))

    def test_cover_required(self):
        with pytest.raises(PartitionError):
            OverlappingPartition(free=(0,), bound=(1,), n_inputs=3)

    def test_repeats_within_set_rejected(self):
        with pytest.raises(PartitionError):
            OverlappingPartition(free=(0, 0, 1), bound=(2,), n_inputs=3)

    def test_lut_bits(self):
        w = OverlappingPartition(free=(0, 1), bound=(1, 2), n_inputs=3)
        assert w.lut_bits() == 4 + 2 * 4


class TestMaskedFormulation:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_objective_equals_true_error(self, seed):
        """The core identity survives the masking, both modes."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        table = random_function(n, 2, rng, random_distribution=True)
        # free = first ceil(n/2)+1 vars with one shared variable
        shared = int(rng.integers(0, n))
        free = tuple(sorted({shared} | set(
            int(v) for v in rng.choice(n, size=max(1, n // 2),
                                       replace=False)
        )))
        bound = tuple(sorted(set(range(n)) - set(free) | {shared}))
        w = OverlappingPartition(free, bound, n)
        for mode in ("separate", "joint"):
            model = build_overlapping_core_cop_model(
                table, table, 1, w, mode
            )
            setting = random_column_setting(w.n_rows, w.n_cols, rng)
            objective = model.objective(spins_from_setting(setting))
            approx = apply_overlapping_setting(table, 1, w, setting)
            if mode == "separate":
                truth = error_rate_per_output(table, approx)[1]
            else:
                truth = mean_error_distance(table, approx)
            assert np.isclose(objective, truth)

    def test_inconsistent_cells_have_zero_weight(self, rng):
        table = random_function(4, 2, rng)
        w = OverlappingPartition(free=(0, 1), bound=(1, 2, 3), n_inputs=4)
        from repro.core.nondisjoint import overlapping_error_terms

        weights, _ = overlapping_error_terms(table, table, 0, w,
                                             "separate")
        assert np.allclose(weights[~w.consistent_mask], 0.0)

    def test_cascade_matches_table_route(self, rng):
        w = OverlappingPartition(free=(0, 1, 2), bound=(2, 3), n_inputs=4)
        table = random_function(4, 1, rng)
        setting = random_column_setting(w.n_rows, w.n_cols, rng)
        cascade = overlapping_component(w, setting)
        applied = apply_overlapping_setting(table, 0, w, setting)
        assert np.array_equal(
            cascade.to_truth_vector(), applied.component(0)
        )


class TestSampling:
    def test_zero_overlap_is_disjoint(self, rng):
        partitions = sample_overlapping_partitions(6, 3, 0, 5, rng)
        assert all(p.is_disjoint for p in partitions)

    def test_overlap_size_respected(self, rng):
        partitions = sample_overlapping_partitions(6, 3, 2, 5, rng)
        assert all(len(p.shared) == 2 for p in partitions)
        assert all(len(p.free) == 3 for p in partitions)

    def test_validation(self, rng):
        with pytest.raises(PartitionError):
            sample_overlapping_partitions(5, 0, 0, 3, rng)
        with pytest.raises(PartitionError):
            sample_overlapping_partitions(5, 3, 3, 3, rng)
        with pytest.raises(PartitionError):
            sample_overlapping_partitions(5, 2, 1, 0, rng)


class TestNonDisjointDecomposer:
    def test_end_to_end(self):
        from repro.boolean.truth_table import TruthTable

        table = TruthTable.from_integer_function(
            lambda x: (x * x + 3) % 32, n_inputs=5, n_outputs=5
        )
        config = FrameworkConfig(
            mode="joint", free_size=3, n_partitions=4, n_rounds=1,
            seed=0, solver=FAST,
        )
        result = NonDisjointDecomposer(config, overlap=1).decompose(table)
        assert sorted(result.components) == list(range(5))
        assert np.isclose(
            result.med, mean_error_distance(table, result.approx)
        )
        # overlap of 1 on a 3-of-5 free set: phi LUT 2^3, F LUT 2^4
        for accepted in result.components.values():
            assert accepted.lut_bits == 8 + 16

    def test_overlap_beats_or_matches_disjoint_accuracy(self):
        """Extra representational freedom must not hurt (same budget)."""
        from repro.workloads import build_workload

        workload = build_workload("tan", n_inputs=7)
        config = FrameworkConfig(
            mode="joint", free_size=workload.free_size + 1,
            n_partitions=6, n_rounds=1, seed=0,
            solver=CoreSolverConfig(max_iterations=800, n_replicas=4),
        )
        overlapping = NonDisjointDecomposer(config, overlap=1).decompose(
            workload.table
        )
        disjoint_config = config.with_updates(
            free_size=workload.free_size
        )
        disjoint = IsingDecomposer(disjoint_config).decompose(
            workload.table
        )
        # non-disjoint spends more LUT bits to buy accuracy
        assert overlapping.med <= disjoint.med * 1.2 + 0.2
        assert overlapping.total_lut_bits >= disjoint.total_lut_bits

    def test_negative_overlap_rejected(self):
        with pytest.raises(Exception):
            NonDisjointDecomposer(overlap=-1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_overlapping_truth_vector_matches_cascade_evaluation(seed):
    """Unreachable cells never leak into the one-gather truth vector."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    overlap = int(rng.integers(0, n - 1))
    free_size = int(rng.integers(overlap + 1, n))
    (partition,) = sample_overlapping_partitions(
        n, free_size, overlap, 1, rng
    )
    setting = random_column_setting(partition.n_rows, partition.n_cols, rng)
    cascade = overlapping_component(partition, setting)
    assert np.array_equal(
        cascade.to_truth_vector(), cascade.evaluate(np.arange(1 << n))
    )
