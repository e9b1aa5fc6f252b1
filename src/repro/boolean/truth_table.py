"""Bit-exact multi-output Boolean functions represented as truth tables.

A :class:`TruthTable` stores the full output matrix of an ``n``-input,
``m``-output Boolean function ``G(X) = (g_1(X), ..., g_m(X))`` together
with the occurrence probability of each input pattern (``p_X`` in Eq. (2)
of the paper).  The table is the exact, enumerable object every other
subsystem (Boolean matrices, decomposition checks, error metrics, LUT
cascades) is defined against.

Conventions
-----------
* Input pattern ``X = (x_1, ..., x_n)`` maps to the integer row index
  ``idx = sum_i x_i * 2**(n - i)`` — i.e. ``x_1`` is the most significant
  bit.  Variables are referred to by 0-based position ``v`` in code, so
  variable ``v`` corresponds to the paper's ``x_{v+1}`` and contributes
  bit ``2**(n - 1 - v)``.
* Output components are 0-based in code: component ``k`` carries weight
  ``2**k`` in the binary encoding ``Bin(W) = sum_k 2**k * g_k`` (the
  paper's 1-based ``2**(k-1)``).  Component ``m - 1`` is therefore the
  most significant output bit.
* A table is immutable: its arrays are read-only and every derivation
  returns a new table.  That is what lets a table keep its output words
  (:attr:`TruthTable.words`) once computed, and lets
  :meth:`TruthTable.with_component` derive the new table's words from the
  old ones instead of recomputing them.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import DimensionError

__all__ = ["TruthTable", "uniform_distribution"]

ArrayLike = Union[np.ndarray, Sequence[int], Sequence[Sequence[int]]]


def uniform_distribution(n_inputs: int) -> np.ndarray:
    """Return the uniform input distribution over ``2**n_inputs`` patterns."""
    if n_inputs < 0:
        raise DimensionError(f"n_inputs must be non-negative, got {n_inputs}")
    size = 1 << n_inputs
    return np.full(size, 1.0 / size)


def _validate_probabilities(probabilities: np.ndarray, size: int) -> np.ndarray:
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (size,):
        raise DimensionError(
            f"input probabilities must have shape ({size},), got {probs.shape}"
        )
    if np.any(probs < 0.0):
        raise DimensionError("input probabilities must be non-negative")
    total = probs.sum()
    if total <= 0.0:
        raise DimensionError("input probabilities must not all be zero")
    if not np.isclose(total, 1.0):
        probs = probs / total
    return probs


class TruthTable:
    """An ``n``-input, ``m``-output Boolean function with input distribution.

    Parameters
    ----------
    outputs:
        Array of shape ``(2**n, m)`` with entries in ``{0, 1}``.  Row
        ``idx`` holds the output word for the input pattern whose integer
        encoding is ``idx`` (``x_1`` = MSB).  Column ``k`` is component
        ``g_{k+1}`` in the paper's notation and has weight ``2**k`` in the
        output's binary encoding.
    probabilities:
        Optional occurrence probability per input pattern, shape
        ``(2**n,)``.  Defaults to the uniform distribution.  Probabilities
        are normalized to sum to one.

    Examples
    --------
    >>> import numpy as np
    >>> tt = TruthTable.from_integer_function(lambda x: (x * x) & 0xF,
    ...                                       n_inputs=3, n_outputs=4)
    >>> tt.n_inputs, tt.n_outputs
    (3, 4)
    >>> int(tt.words[3])  # 3*3 = 9
    9
    """

    __slots__ = ("_outputs", "_probabilities", "_words")

    def __init__(
        self, outputs: ArrayLike, probabilities: Optional[ArrayLike] = None
    ) -> None:
        out = np.asarray(outputs)
        if out.ndim == 1:
            out = out[:, np.newaxis]
        if out.ndim != 2:
            raise DimensionError(
                f"outputs must be a 2-D array (rows, components), got ndim={out.ndim}"
            )
        n_rows = out.shape[0]
        if n_rows == 0 or (n_rows & (n_rows - 1)) != 0:
            raise DimensionError(
                f"number of rows must be a power of two, got {n_rows}"
            )
        if out.shape[1] == 0:
            raise DimensionError("a truth table needs at least one output")
        values = np.unique(out)
        if not np.isin(values, (0, 1)).all():
            raise DimensionError("outputs must contain only 0/1 entries")
        self._outputs = np.ascontiguousarray(out, dtype=np.uint8)
        self._outputs.setflags(write=False)
        if probabilities is None:
            probs = uniform_distribution(self.n_inputs)
        else:
            probs = _validate_probabilities(np.asarray(probabilities), n_rows)
        self._probabilities = np.ascontiguousarray(probs)
        self._probabilities.setflags(write=False)
        self._words: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_integer_function(
        cls,
        func: Callable[[int], int],
        n_inputs: int,
        n_outputs: int,
        probabilities: Optional[ArrayLike] = None,
    ) -> "TruthTable":
        """Build a table from an integer map ``idx -> output word``.

        ``func`` receives each input index in ``[0, 2**n_inputs)`` and
        must return an integer in ``[0, 2**n_outputs)``.
        """
        size = 1 << n_inputs
        words = np.fromiter(
            (func(i) for i in range(size)), dtype=np.int64, count=size
        )
        return cls.from_words(words, n_inputs, n_outputs, probabilities)

    @classmethod
    def from_words(
        cls,
        words: ArrayLike,
        n_inputs: int,
        n_outputs: int,
        probabilities: Optional[ArrayLike] = None,
    ) -> "TruthTable":
        """Build a table from an array of output words (one per input index).

        The table keeps a private copy of ``words`` as its resident words.
        """
        word_arr = np.array(words, dtype=np.int64)
        size = 1 << n_inputs
        if word_arr.shape != (size,):
            raise DimensionError(
                f"words must have shape ({size},), got {word_arr.shape}"
            )
        if word_arr.min() < 0 or word_arr.max() >= (1 << n_outputs):
            raise DimensionError(
                f"words must fit in {n_outputs} bits; "
                f"range is [{word_arr.min()}, {word_arr.max()}]"
            )
        shifts = np.arange(n_outputs, dtype=np.int64)
        outputs = (word_arr[:, np.newaxis] >> shifts) & 1
        table = cls(outputs, probabilities)
        word_arr.setflags(write=False)
        table._words = word_arr
        return table

    @classmethod
    def from_vector_function(
        cls,
        func: Callable[[np.ndarray], Sequence[int]],
        n_inputs: int,
        probabilities: Optional[ArrayLike] = None,
    ) -> "TruthTable":
        """Build a table from a map ``bit-vector -> output bit-vector``.

        ``func`` receives the input pattern as an array ``(x_1, ..., x_n)``
        and returns the output components ``(g_1, ..., g_m)``.
        """
        size = 1 << n_inputs
        rows = []
        for idx in range(size):
            bits = index_to_bits(idx, n_inputs)
            rows.append(np.asarray(func(bits), dtype=np.uint8))
        return cls(np.vstack(rows), probabilities)

    @classmethod
    def random(
        cls,
        n_inputs: int,
        n_outputs: int,
        rng: Optional[np.random.Generator] = None,
        probabilities: Optional[ArrayLike] = None,
    ) -> "TruthTable":
        """Draw a uniformly random truth table (handy for tests)."""
        rng = np.random.default_rng(rng)
        outputs = rng.integers(0, 2, size=(1 << n_inputs, n_outputs))
        return cls(outputs, probabilities)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        """Number of input bits ``n``."""
        return int(self._outputs.shape[0]).bit_length() - 1

    @property
    def n_outputs(self) -> int:
        """Number of output components ``m``."""
        return int(self._outputs.shape[1])

    @property
    def size(self) -> int:
        """Number of input patterns, ``2**n``."""
        return int(self._outputs.shape[0])

    @property
    def outputs(self) -> np.ndarray:
        """Read-only ``(2**n, m)`` 0/1 output matrix."""
        return self._outputs

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only ``(2**n,)`` input-pattern probabilities (sum to 1)."""
        return self._probabilities

    @property
    def words(self) -> np.ndarray:
        """Read-only output words ``Bin(G(X))`` per input index, ``(2**n,)``.

        Computed on first use and then kept: the table never changes, so
        its words never go stale.
        """
        if self._words is None:
            weights = 1 << np.arange(self.n_outputs, dtype=np.int64)
            words = self._outputs.astype(np.int64) @ weights
            words.setflags(write=False)
            self._words = words
        return self._words

    # ------------------------------------------------------------------
    # Access and derivation
    # ------------------------------------------------------------------

    def component(self, k: int) -> np.ndarray:
        """Truth vector of output component ``k`` (0-based), shape ``(2**n,)``."""
        if not 0 <= k < self.n_outputs:
            raise DimensionError(
                f"component index {k} out of range [0, {self.n_outputs})"
            )
        return self._outputs[:, k]

    def evaluate(self, index: Union[int, np.ndarray]) -> np.ndarray:
        """Output bits for one input index or an array of indices."""
        return self._outputs[index]

    def evaluate_word(self, index: Union[int, np.ndarray]) -> np.ndarray:
        """Output word(s) ``Bin(G(X))`` for the given input index/indices."""
        return self.words[index]

    def with_component(self, k: int, values: ArrayLike) -> "TruthTable":
        """Return a copy with component ``k`` replaced by ``values``.

        Only the replacement column is validated; the rest was checked when
        this table was built and cannot have changed.  The new table's words
        are this table's plus ``(new - old) << k``.
        """
        if not 0 <= k < self.n_outputs:
            raise DimensionError(
                f"component index {k} out of range [0, {self.n_outputs})"
            )
        vals = np.asarray(values, dtype=np.uint8)
        if vals.shape != (self.size,):
            raise DimensionError(
                f"replacement component must have shape ({self.size},), "
                f"got {vals.shape}"
            )
        if vals.max() > 1:
            raise DimensionError("outputs must contain only 0/1 entries")
        outputs = self._outputs.copy()
        outputs[:, k] = vals
        outputs.setflags(write=False)
        delta = vals.astype(np.int64) - self._outputs[:, k]
        words = self.words + (delta << k)
        words.setflags(write=False)
        table = TruthTable.__new__(TruthTable)
        table._outputs = outputs
        table._probabilities = self._probabilities
        table._words = words
        return table

    def with_probabilities(self, probabilities: ArrayLike) -> "TruthTable":
        """Return a copy with a different input distribution."""
        return TruthTable(self._outputs, probabilities)

    def restrict(self, components: Sequence[int]) -> "TruthTable":
        """Return a table keeping only the given output components (in order)."""
        idx = list(components)
        if not idx:
            raise DimensionError("restrict() needs at least one component")
        return TruthTable(self._outputs[:, idx], self._probabilities)

    def copy(self) -> "TruthTable":
        """Return an independent (still immutable) copy."""
        return TruthTable(self._outputs.copy(), self._probabilities.copy())

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (
            self._outputs.shape == other._outputs.shape
            and np.array_equal(self._outputs, other._outputs)
            and np.allclose(self._probabilities, other._probabilities)
        )

    def __hash__(self) -> int:
        return hash((self._outputs.tobytes(), self._probabilities.tobytes()))

    def __getstate__(self):
        # the words are derived state: a pickle carries only the table, in
        # the layout of a two-slot object
        return None, {
            "_outputs": self._outputs,
            "_probabilities": self._probabilities,
        }

    def __setstate__(self, state) -> None:
        slots = state[1]
        for name in ("_outputs", "_probabilities"):
            array = slots[name]
            array.setflags(write=False)
            setattr(self, name, array)
        self._words = None

    def __repr__(self) -> str:
        return (
            f"TruthTable(n_inputs={self.n_inputs}, n_outputs={self.n_outputs})"
        )


def index_to_bits(index: int, n_bits: int) -> np.ndarray:
    """Expand an integer input index into its pattern ``(x_1, ..., x_n)``.

    ``x_1`` is the most significant bit, matching the library convention.
    """
    if index < 0 or index >= (1 << n_bits):
        raise DimensionError(f"index {index} out of range for {n_bits} bits")
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.int64)
    return ((index >> shifts) & 1).astype(np.uint8)


def bits_to_index(bits: Sequence[int]) -> int:
    """Inverse of :func:`index_to_bits`."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise DimensionError(f"bits must be 0/1, got {bit!r}")
        value = (value << 1) | int(bit)
    return value
