"""Tests for the parallel candidate sweep and the weight-term cache.

The sweep's contract is that process-level parallelism is a pure
scheduling choice: chunking and per-chunk RNG spawning are part of the
seeded search definition, so any ``n_workers`` value must reproduce the
``n_workers=1`` run bit for bit.
"""

import numpy as np
import pytest

from repro.boolean.truth_table import TruthTable
from repro.core.batch import BatchedCoreCOPSolver
from repro.core.config import (
    SWEEP_AUTO_CHUNKS,
    CoreSolverConfig,
    FrameworkConfig,
)
from repro.core import framework
from repro.core.framework import IsingDecomposer, _split_chunks
from repro.core.ising_formulation import (
    WeightCache,
    build_core_cop_model,
    linear_error_terms,
)
from repro.errors import ConfigurationError
from repro.ising.structured import BipartiteDecompositionModel


@pytest.fixture
def table():
    return TruthTable.from_integer_function(
        lambda x: (x * 5 + 3) % 16, n_inputs=5, n_outputs=4
    )


def _base_config(**updates):
    cfg = FrameworkConfig(
        mode="joint",
        free_size=2,
        n_partitions=6,
        n_rounds=2,
        seed=123,
        solver=CoreSolverConfig(max_iterations=200),
    )
    return cfg.with_updates(**updates) if updates else cfg


def _assert_identical_results(a, b):
    assert a.med == b.med
    assert sorted(a.components) == sorted(b.components)
    for key in a.components:
        ca, cb = a.components[key], b.components[key]
        assert ca.partition == cb.partition
        assert ca.objective == cb.objective
        assert np.array_equal(ca.setting.pattern1, cb.setting.pattern1)
        assert np.array_equal(ca.setting.pattern2, cb.setting.pattern2)
        assert np.array_equal(
            ca.setting.column_types, cb.setting.column_types
        )


class TestWorkerCountInvariance:
    def test_sequential_vs_four_workers(self, table):
        result1 = IsingDecomposer(_base_config()).decompose(table)
        result4 = IsingDecomposer(
            _base_config(n_workers=4)
        ).decompose(table)
        _assert_identical_results(result1, result4)

    def test_batched_vs_four_workers(self, table):
        result1 = IsingDecomposer(
            _base_config(batched=True)
        ).decompose(table)
        result4 = IsingDecomposer(
            _base_config(batched=True, n_workers=4)
        ).decompose(table)
        _assert_identical_results(result1, result4)

    def test_chunk_size_changes_search_but_stays_deterministic(self, table):
        """chunking is part of the seeded search definition..."""
        small = IsingDecomposer(
            _base_config(sweep_chunk_size=2)
        ).decompose(table)
        again = IsingDecomposer(
            _base_config(sweep_chunk_size=2, n_workers=3)
        ).decompose(table)
        _assert_identical_results(small, again)

    def test_repeat_run_is_deterministic(self, table):
        config = _base_config(n_workers=2)
        first = IsingDecomposer(config).decompose(table)
        second = IsingDecomposer(config).decompose(table)
        _assert_identical_results(first, second)


class TestPoolSize:
    def test_pool_capped_at_core_count(self, table, monkeypatch):
        """``n_workers`` far above the core count (a wire spec may ask
        for 5000) sizes the pool at the core count, still takes the
        pool path, and changes no result.  The recorder runs chunks
        inline, so no process starts."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.maps = 0
                pools.append(self)

            def map(self, fn, payloads):
                self.maps += 1
                return map(fn, payloads)

            def shutdown(self):
                pass

        monkeypatch.setattr(framework, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(framework.os, "cpu_count", lambda: 2)
        config = _base_config(n_workers=5000, sweep_chunk_size=1)
        result = IsingDecomposer(config).decompose(table)
        assert [pool.max_workers for pool in pools] == [2]
        assert pools[0].maps > 0
        sequential = IsingDecomposer(
            _base_config(sweep_chunk_size=1)
        ).decompose(table)
        _assert_identical_results(result, sequential)


class TestChunking:
    def test_split_is_a_partition_of_the_input(self):
        items = list(range(17))
        chunks = _split_chunks(items, 5)
        assert len(chunks) == 5
        flattened = [item for chunk in chunks for item in chunk]
        assert flattened == items
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_items(self):
        assert len(_split_chunks([1, 2], 8)) == 2

    def test_resolved_chunk_count(self):
        cfg = FrameworkConfig()
        assert cfg.resolved_chunk_count(100) == SWEEP_AUTO_CHUNKS
        assert cfg.resolved_chunk_count(3) == 3
        assert cfg.resolved_chunk_count(0) == 0
        sized = FrameworkConfig(sweep_chunk_size=7)
        assert sized.resolved_chunk_count(100) == 15

    def test_invalid_worker_and_chunk_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(n_workers=0)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(sweep_chunk_size=0)


class TestWeightCache:
    def test_cached_terms_bitwise_equal_uncached(self, small_table,
                                                 small_partition):
        cache = WeightCache()
        for mode in ("separate", "joint"):
            weights, constant = cache.terms(
                small_table, small_table, 1, small_partition, mode
            )
            ref_w, ref_c = linear_error_terms(
                small_table, small_table, 1, small_partition, mode
            )
            assert np.array_equal(weights, ref_w)
            assert constant == ref_c
            model = cache.model(
                small_table, small_table, 1, small_partition, mode
            )
            ref_model = build_core_cop_model(
                small_table, small_table, 1, small_partition, mode
            )
            assert np.array_equal(model.weights, ref_model.weights)
            assert model.offset == ref_model.offset

    def test_hit_and_miss_accounting(self, small_table, small_partition):
        cache = WeightCache()
        cache.model(small_table, small_table, 0, small_partition, "joint")
        assert (cache.hits, cache.misses) == (0, 1)
        cache.terms(small_table, small_table, 0, small_partition, "joint")
        assert (cache.hits, cache.misses) == (1, 1)
        cache.model(small_table, small_table, 1, small_partition, "joint")
        assert (cache.hits, cache.misses) == (1, 2)

    def test_invalidate_joint_keeps_separate_entries(
        self, small_table, small_partition
    ):
        cache = WeightCache()
        cache.terms(small_table, small_table, 0, small_partition, "joint")
        cache.terms(
            small_table, small_table, 0, small_partition, "separate"
        )
        assert len(cache) == 2
        cache.invalidate_joint()
        assert len(cache) == 1
        cache.terms(
            small_table, small_table, 0, small_partition, "separate"
        )
        assert (cache.hits, cache.misses) == (1, 2)

    def test_batched_solver_results_unchanged_by_cache(
        self, small_table, small_partition
    ):
        config = CoreSolverConfig(max_iterations=120)
        solver = BatchedCoreCOPSolver(config)
        partitions = [small_partition]
        cold = solver.solve_candidates(
            small_table, small_table, 0, partitions, "joint",
            np.random.default_rng(3),
        )
        cache = WeightCache()
        warm = solver.solve_candidates(
            small_table, small_table, 0, partitions, "joint",
            np.random.default_rng(3), cache=cache,
        )
        assert cache.misses == 1
        assert cold[0].objective == warm[0].objective
        assert np.array_equal(
            cold[0].setting.pattern1, warm[0].setting.pattern1
        )

    def test_framework_cache_is_exercised(self, table):
        decomposer = IsingDecomposer(
            _base_config(prescreen_keep=3)
        )
        decomposer.decompose(table)
        # prescreen builds every model, the sweep re-requests the kept
        # ones — those must be hits, not rebuilds
        assert decomposer._cache.hits > 0


class TestNoDenseMaterialization:
    def test_sweep_never_densifies_structured_models(
        self, table, monkeypatch
    ):
        """The O(2^n * 2^n) dense J must stay out of the solve paths."""

        def _forbidden(self):
            raise AssertionError(
                "BipartiteDecompositionModel.to_dense() reached from a "
                "solve path"
            )

        monkeypatch.setattr(
            BipartiteDecompositionModel, "to_dense", _forbidden
        )
        for updates in ({}, {"batched": True}, {"prescreen_keep": 3}):
            result = IsingDecomposer(
                _base_config(n_rounds=1, **updates)
            ).decompose(table)
            assert sorted(result.components) == [0, 1, 2, 3]
