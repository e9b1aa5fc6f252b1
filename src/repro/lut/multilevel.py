"""Multi-level LUT cascades: lossless recursive decomposition.

The paper decomposes each output once, into ``F(phi(B), A)``.  Nothing
stops the two sub-functions from being decomposable *again* — ``phi``
is just a ``|B|``-input single-output function.  This module implements
the natural extension the paper leaves as future work, restricted to
the **lossless** case: a sub-LUT is split only when an *exact* disjoint
decomposition exists (Theorem 2 over some sub-partition), so the
refined design computes bit-for-bit the same function while storing
fewer bits.

The result is a tree of ROM nodes (:class:`LutNode`): a leaf holds a
truth vector; an inner node holds the partition of its own inputs, a
``phi`` child over the bound subset, and an ``F`` leaf over
``(phi, free subset)``.  :func:`refine_design` walks an existing
single-level :class:`~repro.lut.cascade.LutCascadeDesign` and greedily
refines every sub-LUT above a size threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.boolean.decomposition import column_setting_from_matrix
from repro.boolean.partition import InputPartition
from repro.boolean.synthesis import DecomposedComponent
from repro.errors import DecompositionError
from repro.lut.cascade import LutCascadeDesign

__all__ = ["LutNode", "MultiLevelComponent", "MultiLevelDesign",
           "decompose_vector_exactly", "refine_design"]


@dataclass(frozen=True)
class LutNode:
    """One node of a multi-level LUT tree over ``n_inputs`` local inputs.

    Exactly one of the two shapes:

    * **leaf** — ``table`` holds the ``2**n_inputs`` truth bits;
    * **inner** — ``free``/``bound`` split the local inputs,
      ``phi`` is the child node over the bound inputs, and ``f_table``
      (shape ``(2, 2**|free|)``) is the output stage indexed by
      ``(phi value, free pattern)``.
    """

    n_inputs: int
    table: Optional[np.ndarray] = None
    free: Optional[Tuple[int, ...]] = None
    bound: Optional[Tuple[int, ...]] = None
    phi: Optional["LutNode"] = None
    f_table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.is_leaf:
            table = np.ascontiguousarray(
                np.asarray(self.table), dtype=np.uint8
            )
            if table.shape != (1 << self.n_inputs,):
                raise DecompositionError(
                    f"leaf table must have shape ({1 << self.n_inputs},), "
                    f"got {table.shape}"
                )
            table.setflags(write=False)
            object.__setattr__(self, "table", table)
        else:
            if (
                self.free is None
                or self.bound is None
                or self.phi is None
                or self.f_table is None
            ):
                raise DecompositionError(
                    "inner node needs free, bound, phi, and f_table"
                )
            if sorted(self.free + self.bound) != list(range(self.n_inputs)):
                raise DecompositionError(
                    f"free {self.free} + bound {self.bound} must partition "
                    f"range({self.n_inputs})"
                )
            f_table = np.ascontiguousarray(
                np.asarray(self.f_table), dtype=np.uint8
            )
            if f_table.shape != (2, 1 << len(self.free)):
                raise DecompositionError(
                    f"f_table must have shape (2, {1 << len(self.free)}), "
                    f"got {f_table.shape}"
                )
            f_table.setflags(write=False)
            object.__setattr__(self, "f_table", f_table)
            object.__setattr__(self, "free", tuple(self.free))
            object.__setattr__(self, "bound", tuple(self.bound))

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a plain ROM."""
        return self.table is not None

    @property
    def storage_bits(self) -> int:
        """Total ROM bits in this subtree."""
        if self.is_leaf:
            return 1 << self.n_inputs
        return self.phi.storage_bits + 2 * (1 << len(self.free))

    @property
    def depth(self) -> int:
        """LUT levels on the longest path (a leaf is depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + self.phi.depth

    def evaluate(self, patterns: np.ndarray) -> np.ndarray:
        """Evaluate on local input patterns, shape ``(..., n_inputs)``.

        Bit order: ``patterns[..., 0]`` is the local MSB, matching the
        truth-vector index convention.
        """
        pats = np.asarray(patterns, dtype=np.int64)
        if pats.shape[-1] != self.n_inputs:
            raise DecompositionError(
                f"patterns last axis must be {self.n_inputs}, "
                f"got {pats.shape}"
            )
        if self.is_leaf:
            weights = 1 << np.arange(
                self.n_inputs - 1, -1, -1, dtype=np.int64
            )
            return self.table[pats @ weights]
        phi_values = self.phi.evaluate(pats[..., list(self.bound)])
        free_weights = 1 << np.arange(
            len(self.free) - 1, -1, -1, dtype=np.int64
        )
        rows = pats[..., list(self.free)] @ free_weights
        return self.f_table[phi_values.astype(np.intp), rows]

    def to_truth_vector(self) -> np.ndarray:
        """Materialize the subtree back into a flat truth vector."""
        if self.is_leaf:
            return self.table.copy()
        partition = InputPartition(self.free, self.bound, self.n_inputs)
        return DecomposedComponent(
            partition, self.phi.to_truth_vector(), self.f_table
        ).to_truth_vector()


def decompose_vector_exactly(
    vector: np.ndarray,
    min_inputs: int = 4,
) -> LutNode:
    """Recursively split a truth vector wherever Theorem 2 holds exactly.

    Tries every balanced-or-better sub-partition (bound set at least as
    large as the free set, which is where the storage win lives) and
    recurses into the ``phi`` child.  Functions below ``min_inputs``
    inputs stay leaves — at that size the cascade overhead exceeds the
    saving.
    """
    from itertools import combinations

    vec = np.ascontiguousarray(np.asarray(vector), dtype=np.uint8)
    n = int(vec.shape[0]).bit_length() - 1
    if (1 << n) != vec.shape[0]:
        raise DecompositionError(
            f"truth vector length must be a power of two, got {vec.shape[0]}"
        )
    if n < min_inputs:
        return LutNode(n_inputs=n, table=vec)

    best: Optional[LutNode] = None
    for free_size in range(1, n // 2 + 1):
        for free in combinations(range(n), free_size):
            bound = tuple(v for v in range(n) if v not in free)
            matrix = vec[InputPartition(free, bound, n).index_of_cell]
            setting = column_setting_from_matrix(matrix)
            if setting is None:
                continue
            phi_child = decompose_vector_exactly(
                setting.column_types, min_inputs
            )
            f_table = np.stack([setting.pattern1, setting.pattern2])
            candidate = LutNode(
                n_inputs=n, free=free, bound=bound,
                phi=phi_child, f_table=f_table,
            )
            if best is None or candidate.storage_bits < best.storage_bits:
                best = candidate
    if best is not None and best.storage_bits < (1 << n):
        return best
    return LutNode(n_inputs=n, table=vec)


@dataclass(frozen=True)
class MultiLevelComponent:
    """One output realized as an (optionally multi-level) LUT tree.

    The tree's local inputs are the *global* variables in ``variables``
    order (first entry = local MSB).
    """

    variables: Tuple[int, ...]
    root: LutNode
    n_global_inputs: int

    def evaluate(self, index) -> np.ndarray:
        """Evaluate on global input index/indices."""
        idx = np.asarray(index, dtype=np.int64)
        shifts = np.array(
            [self.n_global_inputs - 1 - v for v in self.variables],
            dtype=np.int64,
        )
        patterns = (idx[..., np.newaxis] >> shifts) & 1
        return self.root.evaluate(patterns)

    @property
    def storage_bits(self) -> int:
        """ROM bits in the whole tree."""
        return self.root.storage_bits


@dataclass(frozen=True)
class MultiLevelDesign:
    """A multi-output design with per-output LUT trees."""

    components: Dict[int, MultiLevelComponent]
    n_inputs: int
    n_outputs: int

    @property
    def total_bits(self) -> int:
        """Total ROM bits across outputs."""
        return sum(c.storage_bits for c in self.components.values())

    @property
    def flat_bits(self) -> int:
        """Undecomposed storage, ``m * 2^n``."""
        return self.n_outputs * (1 << self.n_inputs)

    def evaluate(self, index) -> np.ndarray:
        """Output bits for global input index/indices, shape ``(..., m)``."""
        columns = [
            self.components[k].evaluate(index)
            for k in range(self.n_outputs)
        ]
        return np.stack(columns, axis=-1)


def refine_design(
    design: LutCascadeDesign, min_inputs: int = 4
) -> MultiLevelDesign:
    """Losslessly refine a single-level cascade into multi-level trees.

    For every output, the first level keeps the design's accepted
    partition; the ``phi`` ROM is then recursively split wherever an
    exact Theorem-2 decomposition exists.  The refined design computes
    *exactly* the same function (integration-tested) with
    ``total_bits <= design.total_bits``.
    """
    components: Dict[int, MultiLevelComponent] = {}
    for k in range(design.n_outputs):
        flat = design.components[k]
        partition = flat.partition
        variables = tuple(partition.free) + tuple(partition.bound)
        local_free = tuple(range(len(partition.free)))
        local_bound = tuple(
            range(len(partition.free), partition.n_inputs)
        )
        phi_node = decompose_vector_exactly(flat.phi, min_inputs)
        root = LutNode(
            n_inputs=partition.n_inputs,
            free=local_free,
            bound=local_bound,
            phi=phi_node,
            f_table=flat.f_table,
        )
        components[k] = MultiLevelComponent(
            variables=variables,
            root=root,
            n_global_inputs=design.n_inputs,
        )
    return MultiLevelDesign(
        components=components,
        n_inputs=design.n_inputs,
        n_outputs=design.n_outputs,
    )
