"""Synthesis: turn decomposition settings into the functions ``phi`` and ``F``.

A column-based setting ``(V1, V2, T)`` over a partition ``{A, B}``
describes the decomposition ``g_hat(X) = F(phi(B), A)`` with

* ``phi`` the single-output function of the bound variables whose truth
  vector *is* the column type vector ``T`` (column ``j`` of the Boolean
  matrix corresponds to bound pattern ``j``), and
* ``F`` the function of ``(phi, A)`` whose truth vector is ``V1`` when
  ``phi = 0`` and ``V2`` when ``phi = 1``.

:class:`DecomposedComponent` packages the pair and evaluates it exactly;
it is the object the LUT layer turns into a two-level LUT cascade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.boolean.decomposition import ColumnSetting, RowSetting
from repro.boolean.partition import InputPartition
from repro.boolean.truth_table import TruthTable
from repro.errors import DecompositionError

__all__ = [
    "DecomposedComponent",
    "apply_column_setting",
    "apply_row_setting",
    "component_from_column_setting",
]


@dataclass(frozen=True)
class DecomposedComponent:
    """One output component realized as ``F(phi(B), A)``.

    Attributes
    ----------
    partition:
        The input partition ``{A, B}``.
    phi:
        Truth vector of ``phi`` over bound-set patterns, shape ``(c,)``.
    f_table:
        Truth table of ``F`` indexed ``[phi_value, row]``, shape ``(2, r)``.
    """

    partition: InputPartition
    phi: np.ndarray
    f_table: np.ndarray

    def __post_init__(self) -> None:
        phi = np.ascontiguousarray(np.asarray(self.phi), dtype=np.uint8)
        f_table = np.ascontiguousarray(np.asarray(self.f_table), dtype=np.uint8)
        if phi.shape != (self.partition.n_cols,):
            raise DecompositionError(
                f"phi must have shape ({self.partition.n_cols},), "
                f"got {phi.shape}"
            )
        if f_table.shape != (2, self.partition.n_rows):
            raise DecompositionError(
                f"f_table must have shape (2, {self.partition.n_rows}), "
                f"got {f_table.shape}"
            )
        phi.setflags(write=False)
        f_table.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "f_table", f_table)

    @property
    def lut_bits(self) -> int:
        """Storage in bits for the two LUTs: ``c`` for phi plus ``2r`` for F."""
        return self.partition.n_cols + 2 * self.partition.n_rows

    @property
    def flat_lut_bits(self) -> int:
        """Storage in bits for the undecomposed LUT, ``2**n = r * c``."""
        return self.partition.n_rows * self.partition.n_cols

    def evaluate(self, index):
        """Evaluate the cascade on one input index or an array of indices."""
        rows = self.partition.row_of_index[index]
        cols = self.partition.col_of_index[index]
        phi_values = self.phi[cols]
        return self.f_table[phi_values.astype(np.intp), rows]

    def to_truth_vector(self) -> np.ndarray:
        """Full truth vector over all ``2**n`` inputs.

        One gather builds the cascade's matrix ``F(phi[col], row)``, which
        is written to the inputs through ``index_of_cell``.  Unreachable
        cells of an overlapping partition (``-1``) are skipped.
        """
        cells = self.partition.index_of_cell
        matrix = self.f_table[self.phi].T  # (r, c)
        flat = np.empty(1 << self.partition.n_inputs, dtype=np.uint8)
        if cells.size == flat.size:
            flat[cells] = matrix
        else:
            reachable = cells >= 0
            flat[cells[reachable]] = matrix[reachable]
        return flat


def component_from_column_setting(
    partition: InputPartition, setting: ColumnSetting
) -> DecomposedComponent:
    """Build the ``(phi, F)`` pair a column setting describes.

    ``phi``'s truth vector is ``T`` itself; ``F(0, i) = V1_i`` and
    ``F(1, i) = V2_i``.
    """
    if setting.n_rows != partition.n_rows or setting.n_cols != partition.n_cols:
        raise DecompositionError(
            f"setting shape ({setting.n_rows}, {setting.n_cols}) does not "
            f"match partition shape ({partition.n_rows}, {partition.n_cols})"
        )
    f_table = np.stack([setting.pattern1, setting.pattern2])
    return DecomposedComponent(partition, setting.column_types, f_table)


def apply_column_setting(
    table: TruthTable,
    component: int,
    partition: InputPartition,
    setting: ColumnSetting,
) -> TruthTable:
    """Replace output ``component`` of ``table`` by the setting's function.

    Returns a new table whose component ``component`` equals the cascade
    ``F(phi(B), A)`` exactly; the other components are untouched.
    """
    decomposed = component_from_column_setting(partition, setting)
    return table.with_component(component, decomposed.to_truth_vector())


def apply_row_setting(
    table: TruthTable,
    component: int,
    partition: InputPartition,
    setting: RowSetting,
) -> TruthTable:
    """Row-based analogue of :func:`apply_column_setting` (Theorem 1 view)."""
    if setting.n_rows != partition.n_rows or setting.n_cols != partition.n_cols:
        raise DecompositionError(
            f"setting shape ({setting.n_rows}, {setting.n_cols}) does not "
            f"match partition shape ({partition.n_rows}, {partition.n_cols})"
        )
    matrix = setting.reconstruct()
    flat = np.empty(1 << partition.n_inputs, dtype=np.uint8)
    flat[partition.index_of_cell] = matrix
    return table.with_component(component, flat)
