"""BlockBatch planner: pack compatible SB sweeps into batched steps.

A *member* is one prepared candidate sweep — a ``(P, R, N)`` oscillator
state plus the kernel that steps it and its coupling scale ``c0``.  The
planner groups members into *blocks*, each advanced by a single kernel
call per iteration window:

``solo``
    One member per block, advanced by the member's own kernel.  This is
    the only packing used for **float64** members: each block replays
    exactly the operation sequence the member would have run alone, so
    interleaving blocks is *structurally bit-identical* to running the
    members sequentially (locked in by ``tests/core/test_fused_sweep``).

``stack``
    Members with identical ``(r, c)`` shape and replica count are
    concatenated along the problem axis into one stacked kernel with a
    per-problem ``c0`` vector; member states become views into the
    packed arrays, so sampling and intervention code keeps operating on
    each member's own slice.  Used for float32 members (``numpy32`` /
    ``native32``), whose contract is tolerance-based
    — per-slice arithmetic is unchanged (broadcasted matmul and the
    vector-``c0`` multiply perform the same IEEE operations per slice),
    but this packing is *not* promised bit-stable across regroupings.

``pad``
    Heterogeneous ``(r, c)`` shapes embedded block-diagonally into the
    common ``(r_max, c_max)`` envelope with zero-padded couplings.
    Padded oscillators see zero fields and evolve as free, clamped
    oscillators that cannot influence real ones; real-row arithmetic
    picks up extra zero summands inside the mat-vecs, which changes
    float32 summation order — strictly tolerance-class, so ``pad`` is
    opt-in (``strategy="pad"``) and never applied to float64 members.
    Member states live in member-shaped arrays refreshed by
    :meth:`Block.pull` / :meth:`Block.push` around sampling points.

The planner never touches schedules: callers group members by iteration
schedule first (see ``repro.core.batch.run_prepared_sweeps``) and only
hand schedule-compatible members to one :class:`BlockBatch`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.ising.kernels.base import BipartiteSBKernel, make_kernel

__all__ = ["BlockMember", "Block", "BlockBatch", "STRATEGIES"]

STRATEGIES = ("auto", "solo", "stack", "pad")


class BlockMember:
    """One sweep's stepping state, as seen by the planner.

    ``weights`` is the float64 ``(P, r, c)`` weight stack the member's
    kernel was built from (needed to build packed kernels); ``x``/``y``
    are the *prepared* kernel states, shape ``(P, R, N)``.  After
    :class:`BlockBatch` planning, ``x``/``y`` may be replaced by views
    into a packed array — callers must re-read them.
    """

    __slots__ = ("kernel", "weights", "x", "y", "c0")

    def __init__(
        self,
        kernel: BipartiteSBKernel,
        weights: np.ndarray,
        x,
        y,
        c0: float,
    ) -> None:
        if np.ndim(weights) != 3:
            raise DimensionError(
                f"member weights must be (P, r, c), got ndim="
                f"{np.ndim(weights)}"
            )
        self.kernel = kernel
        self.weights = weights
        self.x = x
        self.y = y
        self.c0 = float(c0)

    @property
    def n_problems(self) -> int:
        return int(self.weights.shape[0])

    @property
    def shape_key(self) -> Tuple:
        return (
            self.kernel.name,
            self.weights.shape[1],
            self.weights.shape[2],
            self.x.shape[-2],
        )


def _advance(kernel, x, y, a_ts, dt, a0, c0) -> None:
    """Advance one kernel state over a window of pump values."""
    run_tile = getattr(kernel, "run_tile", None)
    if run_tile is not None:
        run_tile(x, y, a_ts, dt, a0, c0)
        return
    for a_t in a_ts:
        kernel.step(x, y, a_t, dt, a0, c0)


class Block:
    """One batched update unit (base: the solo packing)."""

    kind = "solo"

    def __init__(self, members: Sequence[BlockMember]) -> None:
        self.members = list(members)

    @property
    def n_problems(self) -> int:
        return sum(m.n_problems for m in self.members)

    def advance(self, a_ts: Sequence[float], dt: float, a0: float) -> None:
        for member in self.members:
            _advance(
                member.kernel, member.x, member.y, a_ts, dt, a0, member.c0
            )

    def pull(self) -> None:
        """Refresh member-shaped states before host-side sampling."""

    def push(self) -> None:
        """Write host-side state edits back into the packed layout."""


class _StackedBlock(Block):
    """Same-shape members concatenated along the problem axis."""

    kind = "stack"

    def __init__(self, members: Sequence[BlockMember]) -> None:
        super().__init__(members)
        lead = members[0]
        backend = lead.kernel.name
        weights = np.concatenate([m.weights for m in members], axis=0)
        self.kernel = make_kernel(weights, backend=backend)
        self._c0 = np.concatenate(
            [np.full(m.n_problems, m.c0) for m in members]
        )
        self._x = np.ascontiguousarray(
            np.concatenate([m.x for m in members], axis=0)
        )
        self._y = np.ascontiguousarray(
            np.concatenate([m.y for m in members], axis=0)
        )
        # hand each member a view of its slice so sampling/intervention
        # writes land in the packed arrays with no copies
        start = 0
        for member in members:
            stop = start + member.n_problems
            member.x = self._x[start:stop]
            member.y = self._y[start:stop]
            start = stop

    def advance(self, a_ts, dt, a0) -> None:
        _advance(self.kernel, self._x, self._y, a_ts, dt, a0, self._c0)


class _PaddedBlock(Block):
    """Heterogeneous shapes zero-embedded into a common envelope.

    Layout per member inside the padded ``N = 2 r_max + c_max`` state:
    ``v1`` at ``[0:r)``, ``v2`` at ``[r_max : r_max + r)``, ``t`` at
    ``[2 r_max : 2 r_max + c)``; everything else is padding.
    """

    kind = "pad"

    def __init__(self, members: Sequence[BlockMember]) -> None:
        super().__init__(members)
        backend = members[0].kernel.name
        r_max = max(m.weights.shape[1] for m in members)
        c_max = max(m.weights.shape[2] for m in members)
        total = sum(m.n_problems for m in members)
        reps = members[0].x.shape[-2]
        weights = np.zeros((total, r_max, c_max))
        row = 0
        self._slots: List[Tuple[BlockMember, slice, int, int]] = []
        for member in members:
            p, r, c = member.weights.shape
            weights[row : row + p, :r, :c] = member.weights
            self._slots.append((member, slice(row, row + p), r, c))
            row += p
        self.kernel = make_kernel(weights, backend=backend)
        self._c0 = np.concatenate(
            [np.full(m.n_problems, m.c0) for m in members]
        )
        self._r_max, self._c_max = r_max, c_max
        n_pad = 2 * r_max + c_max
        dtype = members[0].x.dtype
        self._x = np.zeros((total, reps, n_pad), dtype)
        self._y = np.zeros((total, reps, n_pad), dtype)
        self.push()

    def _segments(self, r: int, c: int) -> Tuple[slice, slice, slice]:
        r_max = self._r_max
        return (
            slice(0, r),
            slice(r_max, r_max + r),
            slice(2 * r_max, 2 * r_max + c),
        )

    def advance(self, a_ts, dt, a0) -> None:
        _advance(self.kernel, self._x, self._y, a_ts, dt, a0, self._c0)

    def pull(self) -> None:
        for member, rows, r, c in self._slots:
            s1, s2, s3 = self._segments(r, c)
            for packed, dest in ((self._x, member.x), (self._y, member.y)):
                dest[..., :r] = packed[rows, :, s1]
                dest[..., r : 2 * r] = packed[rows, :, s2]
                dest[..., 2 * r :] = packed[rows, :, s3]

    def push(self) -> None:
        for member, rows, r, c in self._slots:
            s1, s2, s3 = self._segments(r, c)
            for packed, src in ((self._x, member.x), (self._y, member.y)):
                packed[rows, :, s1] = src[..., :r]
                packed[rows, :, s2] = src[..., r : 2 * r]
                packed[rows, :, s3] = src[..., 2 * r :]


def _packable(member: BlockMember) -> bool:
    """Float32 members may be packed; float64 members always run solo
    (solo replay is what guarantees structural bit-identity)."""
    return member.kernel.dtype == np.float32


class BlockBatch:
    """Plan and drive one schedule-compatible group of members."""

    def __init__(
        self,
        members: Sequence[BlockMember],
        strategy: str = "auto",
    ) -> None:
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown batch strategy {strategy!r}; valid: "
                f"{', '.join(STRATEGIES)}"
            )
        if not members:
            raise DimensionError("BlockBatch needs at least one member")
        self.strategy = strategy
        self.blocks: List[Block] = []
        solo: List[BlockMember] = []
        packable: List[BlockMember] = []
        for member in members:
            (packable if strategy != "solo" and _packable(member)
             else solo).append(member)
        for member in solo:
            self.blocks.append(Block([member]))
        if packable:
            if strategy == "pad":
                by_reps: Dict[Tuple, List[BlockMember]] = {}
                for member in packable:
                    key = (member.kernel.name, member.x.shape[-2])
                    by_reps.setdefault(key, []).append(member)
                for group in by_reps.values():
                    if len(group) == 1:
                        self.blocks.append(Block(group))
                    else:
                        self.blocks.append(_PaddedBlock(group))
            else:  # auto / stack: same-shape concatenation
                by_shape: Dict[Tuple, List[BlockMember]] = {}
                for member in packable:
                    by_shape.setdefault(member.shape_key, []).append(member)
                for group in by_shape.values():
                    if len(group) == 1:
                        self.blocks.append(Block(group))
                    else:
                        self.blocks.append(_StackedBlock(group))

    # ------------------------------------------------------------------

    def advance(self, a_ts: Sequence[float], dt: float, a0: float) -> None:
        """Advance every block by one iteration window."""
        for block in self.blocks:
            block.advance(a_ts, dt, a0)

    def pull(self) -> None:
        for block in self.blocks:
            block.pull()

    def push(self) -> None:
        for block in self.blocks:
            block.push()

    def describe(self) -> Dict[str, object]:
        """Span/metrics attributes summarizing the packing."""
        kinds: Dict[str, int] = {}
        for block in self.blocks:
            kinds[block.kind] = kinds.get(block.kind, 0) + 1
        return {
            "strategy": self.strategy,
            "n_blocks": len(self.blocks),
            "n_members": sum(len(b.members) for b in self.blocks),
            "n_problems": sum(b.n_problems for b in self.blocks),
            "block_kinds": kinds,
        }
