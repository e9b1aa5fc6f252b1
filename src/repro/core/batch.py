"""Batched bSB over many candidate partitions at once.

The framework's hot loop solves ``P`` core COPs per component — one per
candidate partition.  All of them share one shape (``r x c`` follows
from ``|A|``/``|B|``, not from the particular partition), so their bSB
dynamics vectorize perfectly: stack the weight matrices into a
``(P, r, c)`` tensor and evolve a ``(P, n_replicas, 2r + c)`` oscillator
state with one fused kernel step (:mod:`repro.ising.kernels`).  One
backend call then advances *every* candidate's every replica — the
software analogue of the massive parallelism the paper cites as SB's
hardware advantage.  The stepping backend follows
:attr:`~repro.core.config.CoreSolverConfig.backend` (``numpy64`` /
``numpy32`` / ``native32``); decoded spins are always scored in
float64.

The solve is split into *prepare* and *run*: :func:`prepare_sweep`
builds a :class:`PreparedSweep` (weight stack, kernel state,
RNG-consumed initialization, objective bookkeeping) without advancing
it, and :func:`run_prepared_sweeps` drives the chunk sweeps of one
component together in iteration windows that break exactly at each
``sample_every`` boundary, so every sweep sees the same
step/sample/intervention sequence it would have seen alone.  Float64
sweeps step one by one (bit-identical by construction); two or more
float32 sweeps step as one stacked kernel (:func:`stack_states`),
whose per-slice arithmetic is unchanged.
:class:`BatchedCoreCOPSolver.solve_candidates` is exactly
``prepare → run → finalize`` for a single sweep.

The batched path integrates for a fixed number of iterations (a global
dynamic stop across a batch would couple unrelated instances), applies
the Theorem-3 intervention vectorized across the whole stack, and uses
the same symmetry-breaking initialization as the sequential solver.
Each sweep drives its own :class:`~repro.obs.probe.SolverProbe` (when a
factory is installed): probes observe sampling points, interventions,
and per-window kernel time, and never change the numerics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.boolean.decomposition import ColumnSetting
from repro.boolean.partition import InputPartition
from repro.boolean.truth_table import TruthTable
from repro.core.config import CoreSolverConfig
from repro.core.ising_formulation import WeightCache, linear_error_terms
from repro.errors import DimensionError
from repro.ising.kernels import BipartiteSBKernel, make_kernel
from repro.ising.schedules import LinearPump
from repro.obs.probe import make_probe
from repro.obs.tracing import get_tracer

__all__ = [
    "BatchedCoreCOPSolver",
    "BatchedSolution",
    "PreparedSweep",
    "advance_window",
    "prepare_sweep",
    "run_prepared_sweeps",
    "stack_states",
]


@dataclass
class BatchedSolution:
    """Best decoded setting for one candidate partition of the batch."""

    partition: InputPartition
    setting: ColumnSetting
    objective: float
    runtime_seconds: float = 0.0


class _StackedBipartiteDynamics:
    """Vectorized energies/fields for a stack of bipartite core COPs.

    Weight stack ``W`` has shape ``(P, r, c)``; states have shape
    ``(P, R, N)`` with ``N = 2r + c``.  The arithmetic is owned by a
    backend kernel; energies are always evaluated by the float64
    reference kernel so objective bookkeeping is dtype-independent.
    """

    def __init__(
        self,
        weights: np.ndarray,
        offsets: np.ndarray,
        backend: Optional[str] = None,
    ) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 3:
            raise DimensionError(
                f"weight stack must be 3-D (P, r, c), got ndim={w.ndim}"
            )
        self.weights = w
        self.kernel = make_kernel(w, backend=backend)
        self._scorer = (
            self.kernel
            if self.kernel.dtype == np.float64
            else make_kernel(w, backend="numpy64")
        )
        self.k = w / 4.0
        self.a = self.k.sum(axis=2)  # (P, r)
        self.offsets = np.asarray(offsets, dtype=float)
        self.n_problems, self.n_rows, self.n_cols = w.shape
        self.n_spins = 2 * self.n_rows + self.n_cols

    def split(self, x: np.ndarray):
        r = self.n_rows
        return x[..., :r], x[..., r : 2 * r], x[..., 2 * r :]

    def energy(self, spins: np.ndarray) -> np.ndarray:
        """Energies of a ``(P, R, N)`` spin stack, shape ``(P, R)``."""
        return self._scorer.energy(np.asarray(spins, dtype=float))

    def fields(self, x: np.ndarray) -> np.ndarray:
        """Local fields of a ``(P, R, N)`` position stack."""
        return self._scorer.fields(np.asarray(x, dtype=float))

    def coupling_rms(self) -> float:
        # closed form over the stacked bipartite blocks — never builds
        # the dense J of any instance
        return self.kernel.coupling_rms()

    def optimal_types(self, v1_bits: np.ndarray,
                      v2_bits: np.ndarray) -> np.ndarray:
        """Vectorized Theorem 3 across the whole stack.

        ``v1_bits``/``v2_bits`` have shape ``(P, R, r)``; returns
        ``(P, R, c)`` 0/1 types.
        """
        weights = 4.0 * self.k
        cost1 = np.einsum("pRr,prc->pRc", v1_bits.astype(float), weights)
        cost2 = np.einsum("pRr,prc->pRc", v2_bits.astype(float), weights)
        return (cost2 < cost1).astype(np.uint8)


class PreparedSweep:
    """One candidate sweep, initialized but not yet advanced.

    Construction (via :func:`prepare_sweep`) consumes the sweep's RNG
    exactly as the monolithic solve did — weight build, ``c0`` choice,
    uniform ``x`` then ``y`` draws, symmetry-breaking overwrite, kernel
    ``prepare_state`` — so preparing a component's sweeps before
    advancing any of them is invisible to the search semantics.  After
    :func:`run_prepared_sweeps` returns, :meth:`finalize` decodes the
    per-partition best settings.
    """

    def __init__(
        self,
        config: CoreSolverConfig,
        component: int,
        partitions: Sequence[InputPartition],
        dynamics: _StackedBipartiteDynamics,
        x,
        y,
        c0: float,
    ) -> None:
        self.config = config
        self.component = component
        self.partitions = list(partitions)
        self.dynamics = dynamics
        self.kernel = dynamics.kernel
        self.x = x
        self.y = y
        self.c0 = float(c0)
        self.start_time = time.perf_counter()
        self.n_problems = dynamics.n_problems
        self.n_rows = dynamics.n_rows
        self.best_energy = np.full(self.n_problems, np.inf)
        self.best_spins = np.where(x[:, 0, :] >= 0, 1.0, -1.0).astype(float)
        self.probe = make_probe()
        if self.probe is not None:
            self.probe.on_begin(
                n_spins=dynamics.n_spins,
                n_replicas=x.shape[-2],
                max_iterations=config.max_iterations,
                backend=self.kernel.name,
                dtype=str(np.dtype(self.kernel.dtype)),
            )

    # -- sampling ------------------------------------------------------

    def _record(self, spins: np.ndarray) -> float:
        """Score a decoded spin stack; returns the stack-best energy."""
        energies = self.dynamics.energy(spins)  # (P, R)
        replica = np.argmin(energies, axis=1)
        current = energies[np.arange(self.n_problems), replica]
        improved = current < self.best_energy
        if improved.any():
            self.best_energy = np.where(
                improved, current, self.best_energy
            )
            picked = spins[np.arange(self.n_problems), replica]
            self.best_spins = np.where(
                improved[:, np.newaxis], picked, self.best_spins
            )
        return float(current.min())

    def sample_point(self, iteration: int) -> None:
        """Sampling + Theorem-3 intervention at one schedule boundary."""
        x = self.x
        spins = np.where(x >= 0, 1.0, -1.0)
        current = self._record(spins)
        if self.probe is not None:
            self.probe.on_sample(
                iteration, current, float(self.best_energy.min())
            )
        if self.config.use_intervention:
            r = self.n_rows
            v1_bits = (x[..., :r] >= 0).astype(np.uint8)
            v2_bits = (x[..., r : 2 * r] >= 0).astype(np.uint8)
            types = self.dynamics.optimal_types(v1_bits, v2_bits)
            # overwrites the type block of ``x`` in place
            self.kernel.assign_types(x, self.y, types)
            spins_after = np.where(x >= 0, 1.0, -1.0)
            changed = not np.array_equal(spins_after, spins)
            # skip the stack-wide re-score when the overwrite did not
            # flip any decoded type spin
            if changed:
                self._record(spins_after)
            if self.probe is not None:
                self.probe.on_intervention(iteration, changed)

    def final_sample(self) -> None:
        self._record(np.where(self.x >= 0, 1.0, -1.0))
        if self.probe is not None:
            self.probe.on_end(
                n_iterations=self.config.max_iterations,
                stop_reason="max_iterations",
                best_energy=float(self.best_energy.min()),
            )

    # -- results -------------------------------------------------------

    def finalize(self) -> List[BatchedSolution]:
        """Decode per-partition best settings (after the run)."""
        elapsed = time.perf_counter() - self.start_time
        tracer = get_tracer()
        r = self.n_rows
        solutions = []
        with tracer.span(
            "decode",
            category="stage",
            component=self.component,
            batched=True,
        ):
            for index, partition in enumerate(self.partitions):
                spins = self.best_spins[index]
                bits = ((spins + 1) // 2).astype(np.uint8)
                setting = ColumnSetting(
                    bits[:r], bits[r : 2 * r], bits[2 * r :]
                )
                objective = float(
                    self.best_energy[index] + self.dynamics.offsets[index]
                )
                solutions.append(
                    BatchedSolution(
                        partition=partition,
                        setting=setting,
                        objective=objective,
                    )
                )
        # annotate the shared wall clock so callers can report it
        for solution in solutions:
            solution.runtime_seconds = elapsed / len(solutions)
        return solutions


def prepare_sweep(
    config: CoreSolverConfig,
    exact_table: TruthTable,
    approx_table: TruthTable,
    component: int,
    partitions: Sequence[InputPartition],
    mode: str,
    rng: Optional[np.random.Generator] = None,
    cache: Optional[WeightCache] = None,
) -> PreparedSweep:
    """Build one sweep's weight stack and initialized kernel state.

    Consumes ``rng`` exactly as the historical monolithic solve did;
    ``cache`` optionally memoizes the per-partition weight terms (see
    :class:`~repro.core.ising_formulation.WeightCache`) and never
    changes the numerics.
    """
    if not partitions:
        raise DimensionError("need at least one candidate partition")
    free_sizes = {len(p.free) for p in partitions}
    if len(free_sizes) != 1:
        raise DimensionError(
            "batched solving needs one common free-set size, got "
            f"{sorted(free_sizes)}"
        )
    rng = np.random.default_rng(rng)
    tracer = get_tracer()

    with tracer.span(
        "weight_build",
        category="stage",
        component=component,
        n_partitions=len(partitions),
    ):
        weight_stack = []
        offsets = []
        for partition in partitions:
            if cache is not None:
                weights, constant = cache.terms(
                    exact_table, approx_table, component, partition, mode
                )
            else:
                weights, constant = linear_error_terms(
                    exact_table, approx_table, component, partition, mode
                )
            weight_stack.append(weights)
            offsets.append(constant + weights.sum() / 2.0)
        dynamics = _StackedBipartiteDynamics(
            np.stack(weight_stack), np.array(offsets),
            backend=config.backend,
        )
    kernel = dynamics.kernel

    p = dynamics.n_problems
    reps = config.n_replicas
    n = dynamics.n_spins
    r = dynamics.n_rows

    rms = dynamics.coupling_rms()
    c0 = 1.0 if rms <= 0 else 0.5 / (rms * np.sqrt(n))

    amplitude = 0.1
    x = rng.uniform(-amplitude, amplitude, (p, reps, n))
    y = rng.uniform(-amplitude, amplitude, (p, reps, n))
    if config.symmetry_breaking_init:
        x[..., r : 2 * r] = -x[..., :r]
    x, y = kernel.prepare_state(x, y)

    return PreparedSweep(config, component, partitions, dynamics, x, y, c0)


def advance_window(kernel, x, y, a_ts, dt, a0, c0) -> None:
    """Advance one kernel state over a window of pump values.

    Kernels with a compiled ``run_tile`` (``native32``) take the whole
    window in one call; the others step once per pump value.
    """
    run_tile = getattr(kernel, "run_tile", None)
    if run_tile is not None:
        run_tile(x, y, a_ts, dt, a0, c0)
        return
    for a_t in a_ts:
        kernel.step(x, y, a_t, dt, a0, c0)


def stack_states(
    backend: str,
    weights: Sequence[np.ndarray],
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    c0s: Sequence[float],
) -> Tuple[BipartiteSBKernel, np.ndarray, np.ndarray, np.ndarray]:
    """One kernel over same-shape problems concatenated along axis 0.

    ``weights``, ``xs`` and ``ys`` hold each sweep's ``(P, r, c)``
    weight stack and prepared ``(P, R, N)`` states, ``c0s`` each
    sweep's coupling scale.  Returns ``(kernel, x, y, c0)``: a
    ``backend`` kernel over the concatenated weights, contiguous packed
    copies of the states and the per-problem ``c0`` vector.  The
    broadcasted matmul and the vector-``c0`` multiply perform the same
    IEEE operations per slice, so each slice evolves exactly as its
    sweep would alone.
    """
    kernel = make_kernel(np.concatenate(weights, axis=0), backend=backend)
    c0 = np.concatenate(
        [np.full(len(w), float(c)) for w, c in zip(weights, c0s)]
    )
    x = np.ascontiguousarray(np.concatenate(xs, axis=0))
    y = np.ascontiguousarray(np.concatenate(ys, axis=0))
    return kernel, x, y, c0


def run_prepared_sweeps(sweeps: Sequence[PreparedSweep]) -> None:
    """Advance the prepared chunk sweeps of one component to completion.

    The sweeps must share one solver config, backend and ``(r, c)``
    shape; anything else raises :class:`~repro.errors.DimensionError`.
    They advance in iteration windows that break exactly at
    ``sample_every`` multiples, with every sweep's sampling and
    intervention hooks firing at the same iterations as a solo run.
    Two or more float32 sweeps step as one stacked kernel
    (:func:`stack_states`), each sweep holding views of its slice;
    float64 sweeps, or a lone sweep, step one by one, so their results
    are bit-identical to advancing each sweep through its own call.
    """
    if not sweeps:
        raise DimensionError("need at least one prepared sweep")
    lead = sweeps[0]
    cfg = lead.config

    def signature(sweep: PreparedSweep) -> Tuple:
        dynamics = sweep.dynamics
        return (
            sweep.config, sweep.kernel.name,
            dynamics.n_rows, dynamics.n_cols,
        )

    if any(signature(sweep) != signature(lead) for sweep in sweeps):
        raise DimensionError(
            "run_prepared_sweeps needs sweeps sharing one solver config, "
            "backend and (r, c) shape"
        )
    if len(sweeps) > 1 and lead.kernel.dtype == np.float32:
        kernel, x, y, c0 = stack_states(
            lead.kernel.name,
            [sweep.dynamics.weights for sweep in sweeps],
            [sweep.x for sweep in sweeps],
            [sweep.y for sweep in sweeps],
            [sweep.c0 for sweep in sweeps],
        )
        # hand each sweep a view of its slice so sampling/intervention
        # writes land in the packed arrays with no copies
        start = 0
        for sweep in sweeps:
            stop = start + sweep.n_problems
            sweep.x, sweep.y = x[start:stop], y[start:stop]
            start = stop
        steppers = [(kernel, x, y, c0)]
    else:
        steppers = [
            (sweep.kernel, sweep.x, sweep.y, sweep.c0) for sweep in sweeps
        ]

    pump = LinearPump(cfg.a0, cfg.resolved_ramp_iterations)
    max_iterations, sample_every = cfg.max_iterations, cfg.sample_every
    with get_tracer().span(
        "sb_solve",
        category="stage",
        component=lead.component,
        n_sweeps=len(sweeps),
        n_problems=sum(sweep.n_problems for sweep in sweeps),
        n_replicas=lead.x.shape[-2],
        n_spins=lead.dynamics.n_spins,
        backend=lead.kernel.name,
        batched=True,
    ):
        iteration = 0
        while iteration < max_iterations:
            width = min(
                sample_every - iteration % sample_every,
                max_iterations - iteration,
            )
            a_ts = [pump(iteration + 1 + j) for j in range(width)]
            window_start = time.perf_counter()
            for kernel, x, y, c0 in steppers:
                advance_window(kernel, x, y, a_ts, cfg.dt, cfg.a0, c0)
            window_seconds = time.perf_counter() - window_start
            iteration += width
            share = window_seconds / len(sweeps)
            for sweep in sweeps:
                if sweep.probe is not None:
                    sweep.probe.on_step(share)
            if iteration % sample_every == 0:
                for sweep in sweeps:
                    sweep.sample_point(iteration)
        for sweep in sweeps:
            sweep.final_sample()


class BatchedCoreCOPSolver:
    """Solve all candidate partitions of one component in one bSB run.

    Parameters
    ----------
    config:
        Same knobs as :class:`~repro.core.solver.CoreCOPSolver`; the
        dynamic stop is replaced by the fixed ``max_iterations`` budget
        (see module docstring).  ``config.backend`` selects the
        stepping kernel.
    """

    def __init__(self, config: Optional[CoreSolverConfig] = None) -> None:
        self.config = config if config is not None else CoreSolverConfig()

    def solve_candidates(
        self,
        exact_table: TruthTable,
        approx_table: TruthTable,
        component: int,
        partitions: Sequence[InputPartition],
        mode: str,
        rng: Optional[np.random.Generator] = None,
        cache: Optional[WeightCache] = None,
    ) -> List[BatchedSolution]:
        """Solve the core COP for every partition; one entry each.

        ``cache`` optionally memoizes the per-partition weight terms
        (see :class:`~repro.core.ising_formulation.WeightCache`); it
        never changes the numerics, only skips rebuilding terms another
        caller (e.g. prescreening) already produced this run.
        """
        sweep = prepare_sweep(
            self.config, exact_table, approx_table, component, partitions,
            mode, rng=rng, cache=cache,
        )
        run_prepared_sweeps([sweep])
        return sweep.finalize()

    def __repr__(self) -> str:
        return f"BatchedCoreCOPSolver(config={self.config!r})"
