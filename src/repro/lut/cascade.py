"""Build evaluable LUT cascades from decomposition results.

A :class:`LutCascadeDesign` is the hardware-facing artifact: one
two-level LUT cascade per output component, evaluable bit-exactly.  It
is constructed from either the Ising framework's column-based result or
a baseline's row-based result; construction *proves* realizability
(every accepted setting must reconstruct into a Theorem-1/2-satisfying
matrix), and an integration test checks the cascade reproduces the
approximate truth table exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.boolean.decomposition import ColumnSetting, RowSetting, RowType
from repro.boolean.partition import InputPartition
from repro.boolean.synthesis import (
    DecomposedComponent,
    component_from_column_setting,
)
from repro.boolean.truth_table import TruthTable
from repro.errors import DecompositionError

__all__ = ["LutCascadeDesign", "row_component", "build_cascade_design"]


def row_component(
    partition: InputPartition, setting: RowSetting
) -> DecomposedComponent:
    """Realize a row-based setting ``(V, S)`` as a ``(phi, F)`` cascade.

    ``phi``'s truth vector is the pattern ``V`` itself; ``F(phi, i)``
    depends only on the row type: 0, 1, ``phi``, or ``1 - phi``.
    """
    if setting.n_rows != partition.n_rows or setting.n_cols != partition.n_cols:
        raise DecompositionError(
            f"setting shape ({setting.n_rows}, {setting.n_cols}) does not "
            f"match partition shape ({partition.n_rows}, {partition.n_cols})"
        )
    f_table = np.zeros((2, partition.n_rows), dtype=np.uint8)
    types = setting.row_types
    for phi_value in (0, 1):
        row_values = f_table[phi_value]
        row_values[types == RowType.ONES] = 1
        row_values[types == RowType.PATTERN] = phi_value
        row_values[types == RowType.COMPLEMENT] = 1 - phi_value
    return DecomposedComponent(partition, setting.pattern, f_table)


@dataclass(frozen=True)
class LutCascadeDesign:
    """A complete multi-output LUT-cascade implementation.

    Attributes
    ----------
    components:
        Per-output :class:`DecomposedComponent`, keyed by output index;
        every output of the function must be present.
    n_inputs / n_outputs:
        Function signature.
    """

    components: Dict[int, DecomposedComponent]
    n_inputs: int
    n_outputs: int

    def __post_init__(self) -> None:
        missing = set(range(self.n_outputs)) - set(self.components)
        if missing:
            raise DecompositionError(
                f"cascade design is missing outputs {sorted(missing)}"
            )
        for index, component in self.components.items():
            if component.partition.n_inputs != self.n_inputs:
                raise DecompositionError(
                    f"output {index}: partition covers "
                    f"{component.partition.n_inputs} inputs, design has "
                    f"{self.n_inputs}"
                )

    @property
    def total_bits(self) -> int:
        """Total cascade storage in bits."""
        return sum(c.lut_bits for c in self.components.values())

    @property
    def flat_bits(self) -> int:
        """Storage of the undecomposed design, ``m * 2^n`` bits."""
        return self.n_outputs * (1 << self.n_inputs)

    @property
    def compression_ratio(self) -> float:
        """``flat_bits / total_bits``."""
        if self.total_bits == 0:
            return float("inf")
        return self.flat_bits / self.total_bits

    def evaluate(self, index: Union[int, np.ndarray]) -> np.ndarray:
        """Output bits for input index/indices, shape ``(..., m)``."""
        columns = [
            self.components[k].evaluate(index) for k in range(self.n_outputs)
        ]
        return np.stack(columns, axis=-1)

    def evaluate_word(self, index: Union[int, np.ndarray]) -> np.ndarray:
        """Output words ``Bin(G_hat(X))`` for input index/indices."""
        bits = self.evaluate(index).astype(np.int64)
        return (bits << np.arange(self.n_outputs)).sum(axis=-1)

    def to_truth_table(self, probabilities=None) -> TruthTable:
        """Materialize the cascade back into a truth table."""
        indices = np.arange(1 << self.n_inputs)
        return TruthTable(self.evaluate(indices), probabilities)


def build_cascade_design(result) -> LutCascadeDesign:
    """Build a design from a decomposition result (core or baseline).

    Accepts any object with ``exact`` (a :class:`TruthTable`) and
    ``components`` (a mapping from output index to an object with
    ``partition`` and ``setting`` attributes); both
    :class:`repro.core.framework.DecompositionResult` and
    :class:`repro.baselines.framework.BaselineDecompositionResult`
    qualify.
    """
    components: Dict[int, DecomposedComponent] = {}
    for index, accepted in result.components.items():
        setting = accepted.setting
        if isinstance(setting, ColumnSetting):
            components[index] = component_from_column_setting(
                accepted.partition, setting
            )
        elif isinstance(setting, RowSetting):
            components[index] = row_component(accepted.partition, setting)
        else:
            raise DecompositionError(
                f"output {index}: unsupported setting type "
                f"{type(setting).__name__}"
            )
    return LutCascadeDesign(
        components=components,
        n_inputs=result.exact.n_inputs,
        n_outputs=result.exact.n_outputs,
    )
