"""Unit tests for :mod:`repro.boolean.partition`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.overlapping import OverlappingPartition
from repro.boolean.partition import InputPartition
from repro.errors import PartitionError


def bit_matrix_maps(free, bound, n_inputs):
    """Reference maps from a ``(2**n, n)`` bit matrix and integer matmuls.

    This is the construction the bit-spreading maps replaced; it stays
    here as the oracle they must equal.
    """
    indices = np.arange(1 << n_inputs, dtype=np.int64)
    shifts = np.array([n_inputs - 1 - v for v in range(n_inputs)])
    bits = (indices[:, np.newaxis] >> shifts) & 1
    free_weights = 1 << np.arange(len(free) - 1, -1, -1, dtype=np.int64)
    bound_weights = 1 << np.arange(len(bound) - 1, -1, -1, dtype=np.int64)
    row_of_index = bits[:, list(free)] @ free_weights
    col_of_index = bits[:, list(bound)] @ bound_weights
    index_of_cell = np.full(
        (1 << len(free), 1 << len(bound)), -1, dtype=np.int64
    )
    index_of_cell[row_of_index, col_of_index] = indices
    return row_of_index, col_of_index, index_of_cell


@st.composite
def split_variables(draw, max_inputs=12, overlap=False):
    """Free and bound sets of ``n`` variables, in any order within a set.

    With ``overlap`` the free set also takes some bound variables.
    """
    n = draw(st.integers(min_value=2, max_value=max_inputs))
    order = draw(st.permutations(range(n)))
    free_size = draw(st.integers(min_value=1, max_value=n - 1))
    free, bound = list(order[:free_size]), list(order[free_size:])
    if overlap:
        shared = draw(st.lists(st.sampled_from(bound), unique=True,
                               max_size=min(len(bound), 3)))
        free = draw(st.permutations(free + shared))
    return tuple(free), tuple(bound), n


class TestValidation:
    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            InputPartition(free=(0, 1), bound=(1, 2), n_inputs=3)

    def test_gap_rejected(self):
        with pytest.raises(PartitionError):
            InputPartition(free=(0,), bound=(2,), n_inputs=3)

    def test_empty_side_rejected(self):
        with pytest.raises(PartitionError):
            InputPartition(free=(), bound=(0, 1), n_inputs=2)
        with pytest.raises(PartitionError):
            InputPartition(free=(0, 1), bound=(), n_inputs=2)

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(PartitionError):
            InputPartition(free=(0, 3), bound=(1, 2), n_inputs=3)


class TestIndexMaps:
    def test_shapes(self):
        w = InputPartition(free=(0, 1), bound=(2, 3, 4), n_inputs=5)
        assert w.n_rows == 4
        assert w.n_cols == 8
        assert w.row_of_index.shape == (32,)
        assert w.index_of_cell.shape == (4, 8)

    def test_known_mapping(self):
        # free = (x1, x2): row bits are the two MSBs of the index
        w = InputPartition(free=(0, 1), bound=(2, 3), n_inputs=4)
        assert w.cell_of_index(0b1001) == (0b10, 0b01)

    def test_variable_order_sets_significance(self):
        # listing (1, 0) makes x2 the row MSB
        w = InputPartition(free=(1, 0), bound=(2, 3), n_inputs=4)
        assert w.cell_of_index(0b1000) == (0b01, 0b00)
        assert w.cell_of_index(0b0100) == (0b10, 0b00)

    def test_cell_round_trip(self):
        w = InputPartition(free=(0, 2), bound=(1, 3, 4), n_inputs=5)
        for idx in range(32):
            row, col = w.cell_of_index(idx)
            assert w.index_of_cell[row, col] == idx

    def test_index_of_cell_is_bijection(self):
        w = InputPartition(free=(4, 0), bound=(2, 1, 3), n_inputs=5)
        flattened = np.sort(w.index_of_cell.ravel())
        assert np.array_equal(flattened, np.arange(32))

    def test_maps_read_only(self):
        w = InputPartition(free=(0,), bound=(1,), n_inputs=2)
        with pytest.raises(ValueError):
            w.row_of_index[0] = 5


class TestOperations:
    def test_swapped(self):
        w = InputPartition(free=(0, 1), bound=(2,), n_inputs=3)
        s = w.swapped()
        assert s.free == (2,)
        assert s.bound == (0, 1)

    def test_canonical_sorts(self):
        w = InputPartition(free=(1, 0), bound=(3, 2), n_inputs=4)
        c = w.canonical()
        assert c.free == (0, 1)
        assert c.bound == (2, 3)

    def test_equality_hash(self):
        a = InputPartition(free=(0, 1), bound=(2,), n_inputs=3)
        b = InputPartition(free=(0, 1), bound=(2,), n_inputs=3)
        c = InputPartition(free=(1, 0), bound=(2,), n_inputs=3)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_iter_unpacks(self):
        free, bound = InputPartition(free=(0,), bound=(1, 2), n_inputs=3)
        assert free == (0,)
        assert bound == (1, 2)


@settings(max_examples=40, deadline=None)
@given(
    n_inputs=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cell_maps_bijective_property(n_inputs, seed):
    """row/col maps always form a bijection with index_of_cell."""
    rng = np.random.default_rng(seed)
    free_size = int(rng.integers(1, n_inputs))
    order = rng.permutation(n_inputs)
    w = InputPartition(
        sorted(int(v) for v in order[:free_size]),
        sorted(int(v) for v in order[free_size:]),
        n_inputs,
    )
    indices = np.arange(1 << n_inputs)
    recovered = w.index_of_cell[w.row_of_index, w.col_of_index]
    assert np.array_equal(recovered, indices)


def assert_maps_equal(partition, reference):
    for got, want in zip(
        (partition.row_of_index, partition.col_of_index,
         partition.index_of_cell),
        reference,
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@settings(max_examples=60, deadline=None)
@given(split=split_variables())
def test_spread_maps_equal_bit_matrix_maps(split):
    free, bound, n = split
    assert_maps_equal(
        InputPartition(free, bound, n), bit_matrix_maps(free, bound, n)
    )


@settings(max_examples=60, deadline=None)
@given(split=split_variables(overlap=True))
def test_overlapping_spread_maps_equal_bit_matrix_maps(split):
    free, bound, n = split
    w = OverlappingPartition(free, bound, n)
    reference = bit_matrix_maps(free, bound, n)
    assert_maps_equal(w, reference)
    assert np.array_equal(w.consistent_mask, reference[2] >= 0)
