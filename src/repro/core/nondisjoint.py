"""Non-disjoint approximate decomposition (the [10] extension).

Builds the column-based core COP over an
:class:`~repro.boolean.overlapping.OverlappingPartition`: identical
algebra to the disjoint case, except inconsistent (unreachable) cells
get zero weight, so the optimizer is free to set their ``O_hat``
arbitrarily — they are don't-cares that can only *help* the
decomposability of the reachable part.

Provides the masked weight builder, the model constructor, the
apply/synthesis path, sampling of overlapping partitions, and a
framework-level decomposer mirroring
:class:`~repro.core.framework.IsingDecomposer` with an ``overlap`` knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.boolean.decomposition import ColumnSetting
from repro.boolean.metrics import error_rate_per_output, mean_error_distance
from repro.boolean.overlapping import OverlappingPartition
from repro.boolean.synthesis import DecomposedComponent
from repro.boolean.truth_table import TruthTable
from repro.core.config import CoreSolverConfig, FrameworkConfig
from repro.core.ising_formulation import setting_from_spins
from repro.core.solver import CoreCOPSolver
from repro.errors import ConfigurationError, DimensionError, PartitionError
from repro.ising.structured import BipartiteDecompositionModel

__all__ = [
    "overlapping_error_terms",
    "build_overlapping_core_cop_model",
    "apply_overlapping_setting",
    "overlapping_component",
    "sample_overlapping_partitions",
    "NonDisjointDecomposer",
    "NonDisjointResult",
]


def _flat_error_terms(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    mode: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-input ``(q, c)`` such that the error is
    ``sum_X p_X (q_X * O_hat_X + c_X)`` — partition-free form."""
    m = exact_table.n_outputs
    if not 0 <= component < m:
        raise DimensionError(f"component {component} out of range [0, {m})")
    exact_bits = exact_table.component(component).astype(float)
    if mode == "separate":
        return 1.0 - 2.0 * exact_bits, exact_bits
    if mode != "joint":
        raise ConfigurationError(
            f"mode must be 'separate' or 'joint', got {mode!r}"
        )
    k_weight = float(1 << component)
    approx_without_k = approx_table.words - (
        approx_table.outputs[:, component].astype(np.int64) << component
    )
    deviation = (approx_without_k - exact_table.words).astype(float)
    inner = (deviation >= -k_weight) & (deviation <= 0.0)
    q = np.where(
        inner, k_weight + 2.0 * deviation, k_weight * np.sign(deviation)
    )
    c = np.where(inner, -deviation, np.abs(deviation))
    return q, c


def overlapping_error_terms(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: OverlappingPartition,
    mode: str,
) -> Tuple[np.ndarray, float]:
    """Masked cell weights ``W`` and constant for an overlapping partition.

    Inconsistent cells carry weight zero; the constant matches the
    disjoint case (it is a sum over input patterns either way).
    """
    if partition.n_inputs != exact_table.n_inputs:
        raise DimensionError(
            f"partition covers {partition.n_inputs} inputs but table has "
            f"{exact_table.n_inputs}"
        )
    q, c = _flat_error_terms(exact_table, approx_table, component, mode)
    probs = exact_table.probabilities
    weights = np.zeros((partition.n_rows, partition.n_cols))
    weights[partition.row_of_index, partition.col_of_index] = probs * q
    constant = float((probs * c).sum())
    return weights, constant


def build_overlapping_core_cop_model(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: OverlappingPartition,
    mode: str,
) -> BipartiteDecompositionModel:
    """The masked core-COP Ising model; objective equals the true error."""
    weights, constant = overlapping_error_terms(
        exact_table, approx_table, component, partition, mode
    )
    offset = constant + float(weights.sum()) / 2.0
    return BipartiteDecompositionModel(weights, offset)


def overlapping_component(
    partition: OverlappingPartition, setting: ColumnSetting
) -> DecomposedComponent:
    """Realize a setting over an overlapping partition as a cascade.

    :class:`DecomposedComponent` is partition-agnostic — it only uses
    the row/col index maps — so the non-disjoint cascade reuses it.
    """
    if setting.n_rows != partition.n_rows or setting.n_cols != partition.n_cols:
        raise DimensionError(
            f"setting shape ({setting.n_rows}, {setting.n_cols}) does not "
            f"match partition shape ({partition.n_rows}, "
            f"{partition.n_cols})"
        )
    f_table = np.stack([setting.pattern1, setting.pattern2])
    return DecomposedComponent(partition, setting.column_types, f_table)


def apply_overlapping_setting(
    table: TruthTable,
    component: int,
    partition: OverlappingPartition,
    setting: ColumnSetting,
) -> TruthTable:
    """Replace output ``component`` by the non-disjoint cascade's function."""
    cascade = overlapping_component(partition, setting)
    return table.with_component(component, cascade.to_truth_vector())


def sample_overlapping_partitions(
    n_inputs: int,
    free_size: int,
    overlap: int,
    count: int,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> List[OverlappingPartition]:
    """Sample distinct overlapping partitions.

    ``free_size`` counts the free set *including* the ``overlap`` shared
    variables; the bound set holds the remaining
    ``n_inputs - (free_size - overlap)`` variables plus the shared ones.
    ``overlap = 0`` reduces to disjoint sampling.
    """
    if not 0 < free_size <= n_inputs:
        raise PartitionError(
            f"free_size must be in (0, {n_inputs}], got {free_size}"
        )
    if not 0 <= overlap < free_size:
        raise PartitionError(
            f"overlap must be in [0, free_size), got {overlap}"
        )
    exclusive_free = free_size - overlap
    if exclusive_free >= n_inputs:
        raise PartitionError(
            "free set may not cover all variables exclusively"
        )
    if count <= 0:
        raise PartitionError(f"count must be positive, got {count}")
    rng = np.random.default_rng(rng)
    seen = set()
    partitions: List[OverlappingPartition] = []
    attempts = 0
    while len(partitions) < count and attempts < 200 * count:
        attempts += 1
        order = rng.permutation(n_inputs)
        free_exclusive = sorted(int(v) for v in order[:exclusive_free])
        rest = [int(v) for v in order[exclusive_free:]]
        shared = sorted(rest[:overlap])
        free = tuple(sorted(free_exclusive + shared))
        bound = tuple(
            sorted(v for v in range(n_inputs) if v not in free_exclusive)
        )
        key = (free, bound)
        if key in seen:
            continue
        seen.add(key)
        partitions.append(OverlappingPartition(free, bound, n_inputs))
    if len(partitions) < count:
        # space exhausted; return what exists (deterministic behaviour)
        return partitions
    return partitions


@dataclass
class NonDisjointComponent:
    """Accepted non-disjoint decomposition of one output."""

    component: int
    partition: OverlappingPartition
    setting: ColumnSetting
    objective: float

    @property
    def lut_bits(self) -> int:
        """Cascade storage including the overlap blow-up."""
        return self.partition.lut_bits()


@dataclass
class NonDisjointResult:
    """Outcome of :meth:`NonDisjointDecomposer.decompose`."""

    exact: TruthTable
    approx: TruthTable
    components: Dict[int, NonDisjointComponent]
    med: float
    error_rates: np.ndarray
    med_trace: List[float] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def total_lut_bits(self) -> int:
        """Total cascade storage."""
        return sum(c.lut_bits for c in self.components.values())

    @property
    def flat_lut_bits(self) -> int:
        """Undecomposed storage."""
        return self.exact.n_outputs * self.exact.size

    @property
    def compression_ratio(self) -> float:
        """``flat / cascade`` storage ratio."""
        total = self.total_lut_bits
        return self.flat_lut_bits / total if total else float("inf")


class NonDisjointDecomposer:
    """DALTA-style loop over overlapping partitions.

    Parameters
    ----------
    config:
        Standard :class:`FrameworkConfig`; ``free_size`` includes the
        shared variables.
    overlap:
        Number of shared variables ``|A ∩ B|`` (0 = disjoint, matching
        :class:`~repro.core.framework.IsingDecomposer` up to sampling).
    """

    def __init__(
        self,
        config: Optional[FrameworkConfig] = None,
        overlap: int = 1,
    ) -> None:
        self.config = config if config is not None else FrameworkConfig()
        if overlap < 0:
            raise ConfigurationError(f"overlap must be >= 0, got {overlap}")
        self.overlap = int(overlap)
        self._solver = CoreCOPSolver(self.config.solver)

    def decompose(self, table: TruthTable) -> NonDisjointResult:
        """Run the MSB-first, R-round non-disjoint decomposition."""
        config = self.config
        if table.n_inputs <= config.free_size - self.overlap:
            raise DimensionError(
                "free_size minus overlap must be below the input count"
            )
        start = time.perf_counter()
        seed = config.seed
        partition_rng = np.random.default_rng(seed)
        solver_rng = np.random.default_rng(
            None if seed is None else seed + 0x9E3779B9
        )
        exact = table
        approx = table
        components: Dict[int, NonDisjointComponent] = {}
        med_trace: List[float] = []

        for _ in range(config.n_rounds):
            any_accepted = False
            for component in reversed(range(exact.n_outputs)):
                partitions = sample_overlapping_partitions(
                    exact.n_inputs, config.free_size, self.overlap,
                    config.n_partitions, partition_rng,
                )
                best_solution = None
                best_partition = None
                for partition in partitions:
                    model = build_overlapping_core_cop_model(
                        exact, approx, component, partition, config.mode
                    )
                    solution = self._solver.solve_model(model, solver_rng)
                    if (
                        best_solution is None
                        or solution.objective < best_solution.objective
                    ):
                        best_solution = solution
                        best_partition = partition
                if config.mode == "joint":
                    baseline = mean_error_distance(exact, approx)
                else:
                    baseline = float(
                        error_rate_per_output(exact, approx)[component]
                    )
                must_accept = component not in components
                if must_accept or best_solution.objective < baseline - 1e-12:
                    approx = apply_overlapping_setting(
                        approx, component, best_partition,
                        best_solution.setting,
                    )
                    components[component] = NonDisjointComponent(
                        component=component,
                        partition=best_partition,
                        setting=best_solution.setting,
                        objective=best_solution.objective,
                    )
                    any_accepted = True
            med_trace.append(mean_error_distance(exact, approx))
            if config.stop_when_stalled and not any_accepted:
                break

        return NonDisjointResult(
            exact=exact,
            approx=approx,
            components=components,
            med=mean_error_distance(exact, approx),
            error_rates=error_rate_per_output(exact, approx),
            med_trace=med_trace,
            runtime_seconds=time.perf_counter() - start,
        )
