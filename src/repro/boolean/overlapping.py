"""Non-disjoint (overlapping) input partitions.

Qian et al. [10] extend DALTA's framework to *non-disjoint*
decomposition: ``g(X) = F(phi(B), A)`` where the free and bound sets
may share variables (``A ∪ B = X``, ``A ∩ B = C`` possibly non-empty).
Sharing variables enlarges the representable function class — ``F`` can
re-read the shared bits directly instead of only through ``phi`` — at
the price of larger LUTs (``|A| + |B| = n + |C|``).

The Boolean-matrix picture changes in one way: a (row, column) cell is
*consistent* only when its free- and bound-patterns agree on the shared
variables.  Consistent cells biject with the ``2^n`` input patterns;
inconsistent cells are unreachable don't-cares, which the error
objectives encode as zero weight.  Everything downstream of the weight
matrix — the bipartite Ising model, Theorem 3, bSB, the setting decode
— is untouched, which is precisely why this extension slots into the
paper's machinery so cleanly.

:class:`OverlappingPartition` mirrors the
:class:`~repro.boolean.partition.InputPartition` interface
(``row_of_index``, ``col_of_index``, ``n_rows``, ``n_cols``,
``n_inputs``), so :class:`~repro.boolean.synthesis.DecomposedComponent`
cascades evaluate unchanged.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.boolean.partition import cell_index_maps
from repro.errors import PartitionError

__all__ = ["OverlappingPartition"]


class OverlappingPartition:
    """A possibly-overlapping split of ``n`` inputs into free/bound sets.

    Parameters
    ----------
    free / bound:
        0-based variable positions.  Together they must cover
        ``range(n_inputs)``; they may overlap.  The first listed
        variable of each set is the MSB of the respective index.
    n_inputs:
        Total number of input variables.

    Examples
    --------
    >>> w = OverlappingPartition(free=(0, 1), bound=(1, 2), n_inputs=3)
    >>> w.shared
    (1,)
    >>> int(w.consistent_mask.sum())  # 2^3 reachable cells
    8
    """

    __slots__ = (
        "_free",
        "_bound",
        "_n_inputs",
        "_row_of_index",
        "_col_of_index",
        "_index_of_cell",
        "_consistent_mask",
    )

    def __init__(
        self, free: Sequence[int], bound: Sequence[int], n_inputs: int
    ) -> None:
        free_t = tuple(int(v) for v in free)
        bound_t = tuple(int(v) for v in bound)
        if n_inputs <= 0:
            raise PartitionError(f"n_inputs must be positive, got {n_inputs}")
        if not free_t or not bound_t:
            raise PartitionError("both free and bound sets must be non-empty")
        if len(set(free_t)) != len(free_t) or len(set(bound_t)) != len(
            bound_t
        ):
            raise PartitionError("variables may not repeat within a set")
        union = set(free_t) | set(bound_t)
        if union != set(range(n_inputs)):
            raise PartitionError(
                f"free={free_t} and bound={bound_t} must cover "
                f"range({n_inputs})"
            )
        self._free = free_t
        self._bound = bound_t
        self._n_inputs = n_inputs
        self._row_of_index, self._col_of_index, self._index_of_cell = (
            cell_index_maps(free_t, bound_t, n_inputs)
        )
        consistent = self._index_of_cell >= 0
        consistent.setflags(write=False)
        self._consistent_mask = consistent

    # ------------------------------------------------------------------

    @property
    def free(self) -> Tuple[int, ...]:
        """Free-set variable positions (row-defining)."""
        return self._free

    @property
    def bound(self) -> Tuple[int, ...]:
        """Bound-set variable positions (column-defining)."""
        return self._bound

    @property
    def shared(self) -> Tuple[int, ...]:
        """Variables appearing in both sets, ascending."""
        return tuple(sorted(set(self._free) & set(self._bound)))

    @property
    def n_inputs(self) -> int:
        """Total number of input variables."""
        return self._n_inputs

    @property
    def n_rows(self) -> int:
        """``2^|free|``."""
        return 1 << len(self._free)

    @property
    def n_cols(self) -> int:
        """``2^|bound|``."""
        return 1 << len(self._bound)

    @property
    def row_of_index(self) -> np.ndarray:
        """``(2^n,)`` map from input index to row."""
        return self._row_of_index

    @property
    def col_of_index(self) -> np.ndarray:
        """``(2^n,)`` map from input index to column."""
        return self._col_of_index

    @property
    def index_of_cell(self) -> np.ndarray:
        """``(r, c)`` inverse map; ``-1`` marks inconsistent cells."""
        return self._index_of_cell

    @property
    def consistent_mask(self) -> np.ndarray:
        """``(r, c)`` boolean mask of reachable cells."""
        return self._consistent_mask

    @property
    def is_disjoint(self) -> bool:
        """Whether this is actually a disjoint partition."""
        return not self.shared

    def cell_of_index(self, index: int) -> Tuple[int, int]:
        """(row, column) of one global input index."""
        return (
            int(self._row_of_index[index]),
            int(self._col_of_index[index]),
        )

    def lut_bits(self) -> int:
        """Cascade storage: ``2^|bound|`` for phi plus ``2^(|free|+1)``."""
        return self.n_cols + 2 * self.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverlappingPartition):
            return NotImplemented
        return (
            self._free == other._free
            and self._bound == other._bound
            and self._n_inputs == other._n_inputs
        )

    def __hash__(self) -> int:
        return hash((self._free, self._bound, self._n_inputs))

    def __repr__(self) -> str:
        return (
            f"OverlappingPartition(free={self._free}, bound={self._bound}, "
            f"n_inputs={self._n_inputs}, shared={self.shared})"
        )
