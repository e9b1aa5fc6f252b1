"""Ising formulations of the column-based core COP (Section 3.2).

Both decomposition modes reduce to the same algebraic skeleton.  With
``O`` the exact Boolean matrix of the component being optimized,
``p`` the cell probabilities, and ``O_hat`` the approximate cell value
of Eq. (3), the objective is a *linear* function of ``O_hat``:

    cost = sum_ij p_ij * (q_ij * O_hat_ij + c_ij)

* separate mode (Eq. 7): ``q = 1 - 2 O`` and ``c = O``;
* joint mode (Eqs. 13/15): with ``D_kij`` the signed deviation
  contributed by the other components,
  ``q = 2^k + 2 D`` and ``c = -D``        when ``-2^k <= D <= 0``,
  ``q = 2^k sgn(D)`` and ``c = |D|``      otherwise

  (weights are ``2^k`` for 0-based component index ``k``; the paper's
  1-based ``2^(k-1)``).

Substituting the spin expansion of Eq. (8),
``O_hat = 1/2 + (V1 + V2 - T V1 + T V2) / 4`` (spins in {-1,+1}),
yields the bipartite second-order Ising energy of Eqs. (9)/(16) with
weight matrix ``W = p * q`` and the additive offset
``sum_ij p_ij c_ij + sum_ij W_ij / 2``.  The offset is kept on the model
so ``model.objective(spins)`` equals the *true* ER / MED contribution —
the property tests check this against direct metric evaluation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.boolean.boolean_matrix import BooleanMatrix
from repro.boolean.decomposition import ColumnSetting
from repro.boolean.partition import InputPartition
from repro.boolean.truth_table import TruthTable
from repro.errors import ConfigurationError, DimensionError
from repro.ising.solvers.base import binary_to_spins, spins_to_binary
from repro.ising.structured import BipartiteDecompositionModel

__all__ = [
    "separate_mode_weights",
    "joint_mode_weights",
    "linear_error_terms",
    "build_core_cop_model",
    "setting_from_spins",
    "spins_from_setting",
    "WeightCache",
]


def separate_mode_weights(
    matrix: BooleanMatrix,
) -> Tuple[np.ndarray, float]:
    """Weight matrix ``W`` and offset for the separate mode (Eq. 9).

    The resulting model objective equals the component's error rate
    ``sum_ij p_ij |O_hat_ij - O_ij|`` exactly.
    """
    exact = matrix.values.astype(float)
    probs = matrix.probabilities
    weights = probs * (1.0 - 2.0 * exact)
    constant = float((probs * exact).sum())
    offset = constant + float(weights.sum()) / 2.0
    return weights, offset


def joint_mode_weights(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: InputPartition,
) -> Tuple[np.ndarray, float]:
    """Weight matrix ``W`` and offset for the joint mode (Eq. 16).

    Parameters
    ----------
    exact_table:
        The exact multi-output function ``G``.
    approx_table:
        The current approximation ``G_hat``.  Components not yet
        optimized should simply still hold their exact values (this is
        the paper's first-round convention).
    component:
        0-based index ``k`` of the component being (re-)optimized.
    partition:
        The candidate input partition for component ``k``.

    Returns
    -------
    weights, offset:
        Such that ``BipartiteDecompositionModel(weights, offset)
        .objective(spins)`` equals the whole-word MED of
        ``approx_table`` with component ``k`` replaced by the setting
        the spins encode.
    """
    if exact_table.n_inputs != approx_table.n_inputs or (
        exact_table.n_outputs != approx_table.n_outputs
    ):
        raise DimensionError("exact and approximate tables differ in shape")
    m = exact_table.n_outputs
    if not 0 <= component < m:
        raise DimensionError(
            f"component {component} out of range [0, {m})"
        )
    k_weight = float(1 << component)

    approx_without_k = approx_table.words - (
        approx_table.outputs[:, component].astype(np.int64) << component
    )
    deviation_flat = (approx_without_k - exact_table.words).astype(float)

    cells = partition.index_of_cell
    deviation = deviation_flat[cells]  # (r, c)
    probs = np.empty(cells.shape)
    probs[:] = exact_table.probabilities[cells]

    inner = (deviation >= -k_weight) & (deviation <= 0.0)
    q = np.where(
        inner,
        k_weight + 2.0 * deviation,
        k_weight * np.sign(deviation),
    )
    cell_constant = np.where(inner, -deviation, np.abs(deviation))

    weights = probs * q
    offset = float((probs * cell_constant).sum()) + float(weights.sum()) / 2.0
    return weights, offset


def _mode_terms(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: InputPartition,
    mode: str,
) -> Tuple[np.ndarray, float]:
    """Shared dispatch: weight matrix ``W`` and *spin* offset per mode."""
    if mode == "separate":
        matrix = BooleanMatrix.from_function(exact_table, component, partition)
        return separate_mode_weights(matrix)
    if mode == "joint":
        return joint_mode_weights(
            exact_table, approx_table, component, partition
        )
    raise ConfigurationError(
        f"mode must be 'separate' or 'joint', got {mode!r}"
    )


def build_core_cop_model(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: InputPartition,
    mode: str,
) -> BipartiteDecompositionModel:
    """Build the Ising model of one core COP instance.

    ``mode`` is ``"separate"`` (Eq. 9, objective = component ER) or
    ``"joint"`` (Eq. 16, objective = whole-word MED with the other
    components frozen at ``approx_table``).
    """
    weights, offset = _mode_terms(
        exact_table, approx_table, component, partition, mode
    )
    return BipartiteDecompositionModel(weights, offset)


def linear_error_terms(
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partition: InputPartition,
    mode: str,
) -> Tuple[np.ndarray, float]:
    """Cell weights ``W`` and constant of the *linear* error form.

    Every mode's objective is ``constant + sum_ij W_ij * O_hat_ij`` for
    any 0/1 approximate matrix ``O_hat`` — regardless of whether
    ``O_hat`` comes from a column-based or a row-based setting.  The
    row-based baselines (DALTA, DALTA-ILP, BA) therefore share these
    exact terms with the Ising formulation; only the parameterization of
    ``O_hat`` differs.

    Note the constant (and ``W``'s total) is partition-independent: it
    is a sum over all input patterns, merely laid out differently.
    """
    weights, spin_offset = _mode_terms(
        exact_table, approx_table, component, partition, mode
    )
    constant = spin_offset - float(weights.sum()) / 2.0
    return weights, constant


class WeightCache:
    """Per-run memoization of the core-COP weight terms.

    Inside one framework run, :meth:`~repro.core.framework
    .IsingDecomposer.decompose`-driven code rebuilds the Boolean matrix
    and probability terms for the *same* ``(component, partition,
    mode)`` several times — prescreening then solving, and re-visits of
    a partition across rounds.  The cache keys the truth-table-derived
    terms on exactly that triple.

    Validity rules (enforced by the owner, not the cache):

    * ``separate``-mode terms depend only on the immutable exact table,
      so they stay valid for the whole run;
    * ``joint``-mode terms also depend on the current approximation —
      call :meth:`invalidate_joint` whenever the approximation changes
      (the framework does so after every accepted setting).

    Cached entries are the exact ``(weights, spin_offset)`` pair the
    uncached builders produce, so memoization is bitwise invisible:
    cached and cold paths yield identical models and objectives.  The
    cache is process-local; parallel sweep workers simply run cold.
    """

    def __init__(self) -> None:
        self._store = {}
        self.hits = 0
        self.misses = 0

    def _lookup(
        self,
        exact_table: TruthTable,
        approx_table: TruthTable,
        component: int,
        partition: InputPartition,
        mode: str,
    ) -> Tuple[np.ndarray, float]:
        key = (mode, component, partition)
        cached = self._store.get(key)
        if cached is None:
            self.misses += 1
            cached = _mode_terms(
                exact_table, approx_table, component, partition, mode
            )
            cached[0].setflags(write=False)
            self._store[key] = cached
        else:
            self.hits += 1
        return cached

    def model(
        self,
        exact_table: TruthTable,
        approx_table: TruthTable,
        component: int,
        partition: InputPartition,
        mode: str,
    ) -> BipartiteDecompositionModel:
        """Memoized :func:`build_core_cop_model`."""
        weights, spin_offset = self._lookup(
            exact_table, approx_table, component, partition, mode
        )
        return BipartiteDecompositionModel(weights, spin_offset)

    def terms(
        self,
        exact_table: TruthTable,
        approx_table: TruthTable,
        component: int,
        partition: InputPartition,
        mode: str,
    ) -> Tuple[np.ndarray, float]:
        """Memoized :func:`linear_error_terms`."""
        weights, spin_offset = self._lookup(
            exact_table, approx_table, component, partition, mode
        )
        constant = spin_offset - float(weights.sum()) / 2.0
        return weights, constant

    def invalidate_joint(self) -> None:
        """Drop every joint-mode entry (the approximation changed)."""
        self._store = {
            key: value
            for key, value in self._store.items()
            if key[0] != "joint"
        }

    def __len__(self) -> int:
        return len(self._store)


def setting_from_spins(
    spins: np.ndarray, n_rows: int, n_cols: int
) -> ColumnSetting:
    """Decode a spin vector ``[V1, V2, T]`` into a :class:`ColumnSetting`."""
    arr = np.asarray(spins)
    if arr.shape != (2 * n_rows + n_cols,):
        raise DimensionError(
            f"spins must have shape ({2 * n_rows + n_cols},), "
            f"got {arr.shape}"
        )
    bits = spins_to_binary(arr)
    return ColumnSetting(
        pattern1=bits[:n_rows],
        pattern2=bits[n_rows : 2 * n_rows],
        column_types=bits[2 * n_rows :],
    )


def spins_from_setting(setting: ColumnSetting) -> np.ndarray:
    """Encode a :class:`ColumnSetting` as a spin vector ``[V1, V2, T]``."""
    bits = np.concatenate(
        [setting.pattern1, setting.pattern2, setting.column_types]
    )
    return binary_to_spins(bits)
