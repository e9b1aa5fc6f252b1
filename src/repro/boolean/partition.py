"""Input partitions ``w = {A, B}`` splitting inputs into free and bound sets.

A disjoint decomposition ``g(X) = F(phi(B), A)`` is defined relative to a
partition of the input variables into the *free set* ``A`` (which indexes
the rows of the Boolean matrix) and the *bound set* ``B`` (which indexes
the columns).  :class:`InputPartition` is an immutable value object that
captures the split and provides the vectorized index arithmetic mapping
global input indices to (row, column) cells and back.  The maps come
from bit spreading (:func:`cell_index_maps`): each set's local index bits
are moved to their global positions, so no ``(2**n, n)`` bit matrix is
ever built.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError

__all__ = ["InputPartition", "cell_index_maps"]


def _spread_index_bits(variables: Sequence[int], n_inputs: int) -> np.ndarray:
    """Global input index of every local pattern over ``variables``.

    Entry ``j`` is the index whose bits at ``variables`` spell ``j`` (the
    first variable is the most significant bit of ``j``) and whose other
    bits are zero.  Each variable doubles the vector: the next local bit
    is less significant, so ``j' = 2 j + b``.
    """
    spread = np.zeros(1, dtype=np.int64)
    for v in variables:
        bit = np.array([0, 1 << (n_inputs - 1 - v)], dtype=np.int64)
        spread = (spread[:, np.newaxis] | bit).ravel()
    return spread


def cell_index_maps(
    free: Sequence[int], bound: Sequence[int], n_inputs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row_of_index, col_of_index, index_of_cell)`` of a free/bound split.

    ``index_of_cell`` is the outer OR of the spread free and bound
    patterns.  Where the sets share a variable and the two patterns
    disagree on it, the cell is unreachable and holds ``-1``.  The row
    and column maps are one scatter each through the reachable cells.
    All three arrays are read-only.
    """
    free_spread = _spread_index_bits(free, n_inputs)
    bound_spread = _spread_index_bits(bound, n_inputs)
    cells = free_spread[:, np.newaxis] | bound_spread[np.newaxis, :]
    row_of_index = np.empty(1 << n_inputs, dtype=np.int64)
    col_of_index = np.empty(1 << n_inputs, dtype=np.int64)
    shared = sum(1 << (n_inputs - 1 - v) for v in set(free) & set(bound))
    if shared:
        reachable = (free_spread & shared)[:, np.newaxis] == (
            bound_spread & shared
        )[np.newaxis, :]
        cells = np.where(reachable, cells, -1)
        rows, cols = np.nonzero(reachable)
        row_of_index[cells[rows, cols]] = rows
        col_of_index[cells[rows, cols]] = cols
    else:
        row_of_index[cells] = np.arange(free_spread.size)[:, np.newaxis]
        col_of_index[cells] = np.arange(bound_spread.size)[np.newaxis, :]
    for array in (row_of_index, col_of_index, cells):
        array.setflags(write=False)
    return row_of_index, col_of_index, cells


class InputPartition:
    """An ordered partition of ``n`` input variables into free/bound sets.

    Parameters
    ----------
    free:
        0-based variable positions forming the free set ``A``.  The first
        listed variable is the most significant bit of the row index.
    bound:
        0-based variable positions forming the bound set ``B``.  The first
        listed variable is the most significant bit of the column index.
    n_inputs:
        Total number of input variables ``n``.  ``free`` and ``bound``
        must partition ``range(n_inputs)`` exactly.

    Examples
    --------
    >>> w = InputPartition(free=(0, 1), bound=(2, 3), n_inputs=4)
    >>> w.n_rows, w.n_cols
    (4, 4)
    >>> int(w.row_of_index[0b1010]), int(w.col_of_index[0b1010])
    (2, 2)
    """

    __slots__ = (
        "_free",
        "_bound",
        "_n_inputs",
        "_row_of_index",
        "_col_of_index",
        "_index_of_cell",
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
        union = sorted(free_t + bound_t)
        if union != list(range(n_inputs)):
            raise PartitionError(
                f"free={free_t} and bound={bound_t} must partition "
                f"range({n_inputs}) with no overlap or gap"
            )
        self._free = free_t
        self._bound = bound_t
        self._n_inputs = n_inputs
        self._row_of_index, self._col_of_index, self._index_of_cell = (
            cell_index_maps(free_t, bound_t, n_inputs)
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def free(self) -> Tuple[int, ...]:
        """Free-set variable positions ``A`` (row-defining)."""
        return self._free

    @property
    def bound(self) -> Tuple[int, ...]:
        """Bound-set variable positions ``B`` (column-defining)."""
        return self._bound

    @property
    def n_inputs(self) -> int:
        """Total number of input variables ``n``."""
        return self._n_inputs

    @property
    def n_rows(self) -> int:
        """Number of Boolean-matrix rows, ``r = 2**|A|``."""
        return 1 << len(self._free)

    @property
    def n_cols(self) -> int:
        """Number of Boolean-matrix columns, ``c = 2**|B|``."""
        return 1 << len(self._bound)

    @property
    def row_of_index(self) -> np.ndarray:
        """``(2**n,)`` map from global input index to row index."""
        return self._row_of_index

    @property
    def col_of_index(self) -> np.ndarray:
        """``(2**n,)`` map from global input index to column index."""
        return self._col_of_index

    @property
    def index_of_cell(self) -> np.ndarray:
        """``(r, c)`` map from matrix cell back to the global input index."""
        return self._index_of_cell

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def swapped(self) -> "InputPartition":
        """Return the partition with free and bound sets exchanged."""
        return InputPartition(self._bound, self._free, self._n_inputs)

    def canonical(self) -> "InputPartition":
        """Return the same split with both sets sorted ascending.

        Two partitions with the same *sets* but different variable orders
        describe the same decomposition up to a permutation of rows and
        columns; the canonical form is useful for deduplication.
        """
        return InputPartition(
            sorted(self._free), sorted(self._bound), self._n_inputs
        )

    def cell_of_index(self, index: int) -> Tuple[int, int]:
        """(row, column) of one global input index."""
        return (
            int(self._row_of_index[index]),
            int(self._col_of_index[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InputPartition):
            return NotImplemented
        return (
            self._free == other._free
            and self._bound == other._bound
            and self._n_inputs == other._n_inputs
        )

    def __hash__(self) -> int:
        return hash((self._free, self._bound, self._n_inputs))

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter((self._free, self._bound))

    def __repr__(self) -> str:
        return (
            f"InputPartition(free={self._free}, bound={self._bound}, "
            f"n_inputs={self._n_inputs})"
        )
