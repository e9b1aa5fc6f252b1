"""Unit tests for :mod:`repro.boolean.truth_table`."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.truth_table import (
    TruthTable,
    bits_to_index,
    index_to_bits,
    uniform_distribution,
)
from repro.errors import DimensionError


class TestConstruction:
    def test_from_outputs_shapes(self):
        table = TruthTable(np.zeros((8, 2), dtype=int))
        assert table.n_inputs == 3
        assert table.n_outputs == 2
        assert table.size == 8

    def test_single_output_vector_promoted(self):
        table = TruthTable(np.array([0, 1, 1, 0]))
        assert table.n_inputs == 2
        assert table.n_outputs == 1

    def test_rejects_non_power_of_two_rows(self):
        with pytest.raises(DimensionError):
            TruthTable(np.zeros((6, 2), dtype=int))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(DimensionError):
            TruthTable(np.full((4, 1), 2))

    def test_rejects_zero_outputs(self):
        with pytest.raises(DimensionError):
            TruthTable(np.zeros((4, 0), dtype=int))

    def test_rejects_bad_probability_shape(self):
        with pytest.raises(DimensionError):
            TruthTable(np.zeros((4, 1), dtype=int), probabilities=[0.5, 0.5])

    def test_rejects_negative_probabilities(self):
        with pytest.raises(DimensionError):
            TruthTable(
                np.zeros((4, 1), dtype=int),
                probabilities=[0.5, 0.5, 0.5, -0.5],
            )

    def test_probabilities_normalized(self):
        table = TruthTable(
            np.zeros((4, 1), dtype=int), probabilities=[1, 1, 1, 1]
        )
        assert np.allclose(table.probabilities, 0.25)

    def test_outputs_are_read_only(self):
        table = TruthTable(np.zeros((4, 1), dtype=int))
        with pytest.raises(ValueError):
            table.outputs[0, 0] = 1


class TestFromWords:
    def test_round_trip_words(self):
        words = np.array([3, 0, 2, 1])
        table = TruthTable.from_words(words, n_inputs=2, n_outputs=2)
        assert np.array_equal(table.words, words)

    def test_bit_order_lsb_is_component_zero(self):
        table = TruthTable.from_words([2], n_inputs=0, n_outputs=2)
        # word 2 = binary 10 -> g_1 (component 0) = 0, g_2 (component 1) = 1
        assert table.outputs[0, 0] == 0
        assert table.outputs[0, 1] == 1

    def test_rejects_word_overflow(self):
        with pytest.raises(DimensionError):
            TruthTable.from_words([4], n_inputs=0, n_outputs=2)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            TruthTable.from_words([0, 1], n_inputs=2, n_outputs=1)


class TestFromIntegerFunction:
    def test_identity(self):
        table = TruthTable.from_integer_function(
            lambda x: x, n_inputs=4, n_outputs=4
        )
        assert np.array_equal(table.words, np.arange(16))

    def test_evaluate_word_matches_function(self):
        table = TruthTable.from_integer_function(
            lambda x: (x * 5) % 8, n_inputs=3, n_outputs=3
        )
        for idx in range(8):
            assert table.evaluate_word(idx) == (idx * 5) % 8


class TestFromVectorFunction:
    def test_msb_convention(self):
        # g(x1, x2) = x1 (the MSB of the index)
        table = TruthTable.from_vector_function(
            lambda bits: [bits[0]], n_inputs=2
        )
        assert np.array_equal(table.component(0), [0, 0, 1, 1])


class TestAccessors:
    def test_component_range_check(self, small_table):
        with pytest.raises(DimensionError):
            small_table.component(3)

    def test_with_component_replaces_only_target(self, small_table):
        new_column = 1 - small_table.component(1)
        updated = small_table.with_component(1, new_column)
        assert np.array_equal(updated.component(1), new_column)
        assert np.array_equal(updated.component(0), small_table.component(0))
        assert np.array_equal(updated.component(2), small_table.component(2))

    def test_with_component_shape_check(self, small_table):
        with pytest.raises(DimensionError):
            small_table.with_component(0, np.zeros(3, dtype=int))

    @pytest.mark.parametrize("k", [-1, -3, 3, 10])
    def test_with_component_range_check(self, small_table, k):
        # numpy would wrap a negative index onto the top output
        with pytest.raises(DimensionError):
            small_table.with_component(k, small_table.component(0))

    def test_with_component_rejects_non_binary_values(self, small_table):
        values = np.zeros(small_table.size, dtype=int)
        values[5] = 2
        with pytest.raises(DimensionError):
            small_table.with_component(1, values)

    def test_restrict_keeps_order(self, small_table):
        sub = small_table.restrict([2, 0])
        assert np.array_equal(sub.component(0), small_table.component(2))
        assert np.array_equal(sub.component(1), small_table.component(0))

    def test_restrict_empty_rejected(self, small_table):
        with pytest.raises(DimensionError):
            small_table.restrict([])

    def test_equality_and_hash(self, small_table):
        clone = small_table.copy()
        assert clone == small_table
        assert hash(clone) == hash(small_table)
        changed = small_table.with_component(
            0, 1 - small_table.component(0)
        )
        assert changed != small_table

    def test_words_binary_encoding(self):
        outputs = np.array([[1, 0, 1]])  # g1=1 (w 1), g2=0, g3=1 (w 4)
        table = TruthTable(outputs)
        assert table.words[0] == 5


class TestBitHelpers:
    def test_index_to_bits_msb_first(self):
        assert np.array_equal(index_to_bits(0b101, 3), [1, 0, 1])

    def test_bits_to_index_inverse(self):
        for idx in range(16):
            assert bits_to_index(index_to_bits(idx, 4)) == idx

    def test_index_to_bits_range_check(self):
        with pytest.raises(DimensionError):
            index_to_bits(8, 3)

    def test_bits_to_index_rejects_non_binary(self):
        with pytest.raises(DimensionError):
            bits_to_index([0, 2])

    def test_uniform_distribution_sums_to_one(self):
        assert np.isclose(uniform_distribution(5).sum(), 1.0)

    def test_uniform_distribution_negative_rejected(self):
        with pytest.raises(DimensionError):
            uniform_distribution(-1)


@settings(max_examples=30, deadline=None)
@given(
    n_inputs=st.integers(min_value=1, max_value=6),
    n_outputs=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_words_round_trip_property(n_inputs, n_outputs, seed):
    """from_words(words) recovers exactly the words it was given."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << n_outputs, size=1 << n_inputs)
    table = TruthTable.from_words(words, n_inputs, n_outputs)
    assert np.array_equal(table.words, words)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_evaluate_matches_outputs_property(seed):
    rng = np.random.default_rng(seed)
    table = TruthTable.random(4, 3, rng)
    indices = rng.integers(0, 16, size=10)
    assert np.array_equal(table.evaluate(indices), table.outputs[indices])


def words_from_outputs(table):
    """Output words recomputed from the 0/1 matrix, bit by bit."""
    words = np.zeros(table.size, dtype=np.int64)
    for k in range(table.n_outputs):
        words += table.outputs[:, k].astype(np.int64) << k
    return words


class TestResidentWords:
    def test_words_are_kept_and_read_only(self, small_table):
        words = small_table.words
        assert small_table.words is words
        assert not words.flags.writeable

    def test_from_words_keeps_a_private_copy(self):
        words = np.arange(16)
        table = TruthTable.from_words(words, 4, 4)
        words[0] = 7
        assert table.words[0] == 0
        assert np.array_equal(table.words, words_from_outputs(table))

    def test_pickle_carries_no_words(self, small_table):
        before = pickle.dumps(small_table)
        _ = small_table.words  # makes the words resident
        assert pickle.dumps(small_table) == before
        restored = pickle.loads(before)
        assert restored == small_table
        assert not restored.outputs.flags.writeable
        assert np.array_equal(restored.words, small_table.words)


@settings(max_examples=40, deadline=None)
@given(
    n_inputs=st.integers(min_value=1, max_value=7),
    n_outputs=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=1, max_value=12),
)
def test_words_follow_with_component_chains(n_inputs, n_outputs, seed, steps):
    """After any chain of replacements the resident words are exact."""
    rng = np.random.default_rng(seed)
    table = TruthTable.random(n_inputs, n_outputs, rng)
    if rng.random() < 0.5:
        _ = table.words  # start from resident words
    for _ in range(steps):
        k = int(rng.integers(0, n_outputs))
        values = rng.integers(0, 2, size=table.size)
        table = table.with_component(k, values)
        assert np.array_equal(table.component(k), values)
    assert table.words.dtype == np.int64
    assert np.array_equal(table.words, words_from_outputs(table))
    assert table == TruthTable(table.outputs)
