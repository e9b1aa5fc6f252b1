"""The DALTA-style outer loop driven by the Ising core-COP solver.

:class:`IsingDecomposer` approximately decomposes every component of a
multi-output function.  Following DALTA's framework (which the paper
adopts), components are optimized *individually and sequentially*, most
significant first, and the pass is repeated for ``R`` rounds; each
component optimization tries ``P`` random candidate partitions and keeps
the best setting found.

Mode semantics (Section 2.4):

* **separate** — each component minimizes its own error rate; a new
  setting is accepted when it lowers that component's ER.
* **joint** — each component minimizes the whole-word MED with all other
  components frozen at their latest approximations (their exact versions
  in round one, before they are first optimized); a new setting is
  accepted when it lowers the global MED, which makes the MED trace
  monotone non-increasing across accepted updates.

Every component ends up with a recorded setting after round one, so the
result always describes a fully decomposed (LUT-cascade realizable)
approximation.

Candidate sweep parallelism
---------------------------

Candidate solves within one component share no state, so the sweep is
embarrassingly parallel.  The partitions are split into a deterministic
number of chunks (:meth:`FrameworkConfig.resolved_chunk_count`), each
chunk receives its own child generator via ``Generator.spawn``, and the
chunks run either inline or — with ``FrameworkConfig.n_workers > 1`` —
across a ``ProcessPoolExecutor``.  Because neither the chunk structure
nor the spawned seeds depend on the worker count, every ``n_workers``
value selects bit-identical partitions and settings under one seed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.boolean.decomposition import ColumnSetting
from repro.boolean.metrics import (
    error_rate_per_output,
    mean_error_distance,
)
from repro.boolean.partition import InputPartition
from repro.boolean.synthesis import (
    apply_column_setting,
    component_from_column_setting,
)
from repro.boolean.truth_table import TruthTable
from repro.core.batch import (
    BatchedCoreCOPSolver,
    prepare_sweep,
    run_prepared_sweeps,
)
from repro.core.checkpoint import DecomposeCheckpoint
from repro.core.config import CoreSolverConfig, FrameworkConfig
from repro.core.ising_formulation import WeightCache
from repro.resilience.rng import restore_rng
from repro.core.partitions import sample_partitions
from repro.core.solver import CoreCOPSolution, CoreCOPSolver
from repro.ising.kernels import backend_info, resolve_backend
from repro.ising.solvers.base import SolveResult
from repro.core.theorem3 import alternating_refinement
from repro.boolean.random_functions import random_column_setting
from repro.errors import DimensionError, OperationCancelled
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer

__all__ = [
    "IsingDecomposer",
    "DecompositionResult",
    "ComponentDecomposition",
    "ProgressHook",
    "CancelHook",
    "CheckpointHook",
]

#: Called with a progress-event dict after every component optimization
#: and completed round; return value ignored.  Events never perturb the
#: RNG streams, so observed runs stay bit-identical to unobserved ones.
ProgressHook = Callable[[Dict], None]

#: Polled between component optimizations; returning ``True`` aborts the
#: run by raising :class:`~repro.errors.OperationCancelled`.
CancelHook = Callable[[], bool]

#: Called with a :class:`~repro.core.checkpoint.DecomposeCheckpoint`
#: after every component optimization.  The hook owns persistence and
#: cadence (e.g. "write every k-th"); exceptions propagate — an attempt
#: that cannot checkpoint should fail loudly, not silently lose its
#: crash safety.  Checkpointing never perturbs the RNG streams.
CheckpointHook = Callable[[DecomposeCheckpoint], None]


def _solve_partition_chunk(
    payload: Tuple[
        TruthTable,
        TruthTable,
        int,
        Tuple[InputPartition, ...],
        str,
        CoreSolverConfig,
        bool,
        np.random.Generator,
    ],
    cache: Optional[WeightCache] = None,
) -> Tuple[float, InputPartition, ColumnSetting, int]:
    """Best (objective, partition, setting, iterations) of one chunk.

    Module-level so it pickles into pool workers; the same function runs
    inline when ``n_workers == 1``, guaranteeing identical numerics.
    ``cache`` only ever short-cuts term construction (bitwise invisible,
    see :class:`WeightCache`), so inline callers may pass the run cache
    while pool workers run cold.
    """
    exact, approx, component, partitions, mode, solver_cfg, batched, rng = (
        payload
    )
    if batched:
        solutions = BatchedCoreCOPSolver(solver_cfg).solve_candidates(
            exact, approx, component, partitions, mode, rng, cache=cache
        )
        best = min(solutions, key=lambda s: s.objective)
        return (
            best.objective,
            best.partition,
            best.setting,
            solver_cfg.max_iterations,
        )
    solver = CoreCOPSolver(solver_cfg)
    best: Optional[CoreCOPSolution] = None
    for partition in partitions:
        if cache is not None:
            model = cache.model(exact, approx, component, partition, mode)
            solution = solver.solve_model(model, rng)
            solution.partition = partition
        else:
            solution = solver.solve(
                exact, approx, component, partition, mode, rng
            )
        if best is None or solution.objective < best.objective:
            best = solution
    return (
        best.objective,
        best.partition,
        best.setting,
        best.solve_result.n_iterations,
    )


def _split_chunks(
    partitions: Sequence[InputPartition], n_chunks: int
) -> List[Tuple[InputPartition, ...]]:
    """Split candidates into ``n_chunks`` contiguous, size-balanced runs."""
    n = len(partitions)
    n_chunks = max(1, min(n_chunks, n))
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    return [
        tuple(partitions[bounds[i] : bounds[i + 1]])
        for i in range(n_chunks)
    ]


@dataclass
class ComponentDecomposition:
    """The accepted decomposition of one output component.

    Attributes
    ----------
    component:
        0-based output index.
    partition:
        Input partition of the accepted setting.
    setting:
        The accepted column-based setting.
    objective:
        Error value the setting was accepted at (component ER in
        separate mode, global MED in joint mode, at acceptance time).
    n_solver_iterations:
        Euler iterations of the accepting bSB run.
    """

    component: int
    partition: InputPartition
    setting: ColumnSetting
    objective: float
    n_solver_iterations: int

    @property
    def lut_bits(self) -> int:
        """Bit cost of this component as a two-LUT cascade."""
        return component_from_column_setting(
            self.partition, self.setting
        ).lut_bits


@dataclass
class DecompositionResult:
    """Full outcome of :meth:`IsingDecomposer.decompose`.

    Attributes
    ----------
    exact / approx:
        The original function and its decomposable approximation.
    components:
        Accepted per-component decompositions, keyed by output index.
    med:
        Final mean error distance (Eq. 2).
    error_rates:
        Final per-component error rates.
    med_trace:
        Global MED after each completed round.
    rounds_used:
        Rounds executed (may stop early on stall).
    runtime_seconds:
        Total wall clock.
    n_cop_solves:
        Number of core-COP instances solved.
    """

    exact: TruthTable
    approx: TruthTable
    components: Dict[int, ComponentDecomposition]
    med: float
    error_rates: np.ndarray
    med_trace: List[float] = field(default_factory=list)
    rounds_used: int = 0
    runtime_seconds: float = 0.0
    n_cop_solves: int = 0

    @property
    def total_lut_bits(self) -> int:
        """Total storage of the decomposed design (sum of cascades)."""
        return sum(c.lut_bits for c in self.components.values())

    @property
    def flat_lut_bits(self) -> int:
        """Storage of the undecomposed design, ``m * 2**n`` bits."""
        return self.exact.n_outputs * self.exact.size

    @property
    def compression_ratio(self) -> float:
        """``flat_lut_bits / total_lut_bits`` (> 1 means smaller LUTs)."""
        total = self.total_lut_bits
        if total == 0:
            return float("inf")
        return self.flat_lut_bits / total


class IsingDecomposer:
    """Approximate disjoint decomposition of multi-output functions.

    Parameters
    ----------
    config:
        Framework parameters (mode, ``P``, ``R``, free-set size, solver
        configuration, seed);
        see :class:`~repro.core.config.FrameworkConfig`.

    Examples
    --------
    >>> from repro.boolean import TruthTable
    >>> from repro.core import FrameworkConfig, IsingDecomposer
    >>> table = TruthTable.from_integer_function(
    ...     lambda x: (x * 3) % 16, n_inputs=5, n_outputs=4)
    >>> config = FrameworkConfig(mode="joint", free_size=2,
    ...                          n_partitions=4, n_rounds=2, seed=0)
    >>> result = IsingDecomposer(config).decompose(table)
    >>> sorted(result.components) == [0, 1, 2, 3]
    True
    """

    def __init__(self, config: Optional[FrameworkConfig] = None) -> None:
        self.config = config if config is not None else FrameworkConfig()
        self._solver = CoreCOPSolver(self.config.solver)
        # run-level weight-term memoization; refreshed per decompose()
        self._cache = WeightCache()
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------

    def _candidate_partitions(
        self, n_inputs: int, rng: np.random.Generator
    ) -> List[InputPartition]:
        return sample_partitions(
            n_inputs, self.config.free_size, self.config.n_partitions, rng
        )

    def _prescreen(
        self,
        exact: TruthTable,
        approx: TruthTable,
        component: int,
        partitions: List[InputPartition],
        rng: np.random.Generator,
    ) -> List[InputPartition]:
        """Keep the most promising partitions via the cheap alternating
        heuristic (extension; active only when ``prescreen_keep`` is set).
        """
        keep = self.config.prescreen_keep
        if keep is None or keep >= len(partitions):
            return partitions
        scored = []
        for partition in partitions:
            model = self._cache.model(
                exact, approx, component, partition, self.config.mode
            )
            seed_setting = random_column_setting(
                model.n_rows, model.n_cols, rng
            )
            _, cost, _ = alternating_refinement(model.weights, seed_setting)
            scored.append((cost, partition))
        scored.sort(key=lambda pair: pair[0])
        return [partition for _, partition in scored[:keep]]

    def _optimize_component(
        self,
        exact: TruthTable,
        approx: TruthTable,
        component: int,
        partition_rng: np.random.Generator,
        solver_rng: np.random.Generator,
    ) -> CoreCOPSolution:
        """Best setting for one component over fresh candidate partitions.

        The candidates are split into deterministic chunks, each chunk
        solved by :func:`_solve_partition_chunk` with its own spawned
        child generator — inline, or across the process pool when the
        framework runs with ``n_workers > 1``.  The chunk structure and
        the spawn sequence never depend on the worker count, so the
        selected setting is identical for any ``n_workers``.
        """
        start = time.perf_counter()
        cfg = self.config
        tracer = get_tracer()
        with tracer.span(
            "partition_enumeration", category="stage", component=component
        ):
            partitions = self._candidate_partitions(
                exact.n_inputs, partition_rng
            )
        with tracer.span(
            "prescreen",
            category="stage",
            component=component,
            n_candidates=len(partitions),
        ):
            partitions = self._prescreen(
                exact, approx, component, partitions, solver_rng
            )
        chunks = _split_chunks(
            partitions, cfg.resolved_chunk_count(len(partitions))
        )
        chunk_rngs = solver_rng.spawn(len(chunks))
        payloads = [
            (
                exact,
                approx,
                component,
                chunk,
                cfg.mode,
                cfg.solver,
                cfg.batched,
                chunk_rng,
            )
            for chunk, chunk_rng in zip(chunks, chunk_rngs)
        ]
        with tracer.span(
            "candidate_sweep",
            category="stage",
            component=component,
            n_partitions=len(partitions),
            n_chunks=len(chunks),
            # pool workers are separate processes with the default
            # (null) tracer, so kernel-level spans cover the inline path
            parallel=self._executor is not None and len(chunks) > 1,
        ):
            if self._executor is not None and len(chunks) > 1:
                results = list(
                    self._executor.map(_solve_partition_chunk, payloads)
                )
            elif cfg.batched:
                # inline batched path: prepare every chunk's sweep
                # (consuming each chunk RNG exactly as a chunk-by-chunk
                # run would), then advance the whole component in one
                # pass.  Chunk results are bit-identical to sequential
                # chunk solves (float64 sweeps step one by one; stacked
                # float32 slices keep their per-slice arithmetic).
                sweeps = [
                    prepare_sweep(
                        cfg.solver, exact, approx, component, chunk,
                        cfg.mode, rng=chunk_rng, cache=self._cache,
                    )
                    for chunk, chunk_rng in zip(chunks, chunk_rngs)
                ]
                run_prepared_sweeps(sweeps)
                results = []
                for sweep in sweeps:
                    solutions = sweep.finalize()
                    chunk_best = min(
                        solutions, key=lambda s: s.objective
                    )
                    results.append(
                        (
                            chunk_best.objective,
                            chunk_best.partition,
                            chunk_best.setting,
                            cfg.solver.max_iterations,
                        )
                    )
            else:
                results = [
                    _solve_partition_chunk(payload, cache=self._cache)
                    for payload in payloads
                ]
        best = min(results, key=lambda item: item[0])
        objective, partition, setting, n_iterations = best
        backend = resolve_backend(cfg.solver.backend)
        return CoreCOPSolution(
            setting=setting,
            objective=objective,
            partition=partition,
            solve_result=SolveResult(
                spins=np.empty(0),
                energy=objective,
                objective=objective,
                n_iterations=n_iterations,
                stop_reason=(
                    "batched_fixed_budget" if cfg.batched else "chunk_best"
                ),
                runtime_seconds=time.perf_counter() - start,
                metadata={
                    "solver": "bsb",
                    "backend": backend,
                    "dtype": backend_info(backend).dtype,
                    "n_replicas": cfg.solver.n_replicas,
                },
            ),
            runtime_seconds=time.perf_counter() - start,
        )

    def _baseline_error(
        self, exact: TruthTable, approx: TruthTable, component: int
    ) -> float:
        if self.config.mode == "joint":
            return mean_error_distance(exact, approx)
        return float(error_rate_per_output(exact, approx)[component])

    # ------------------------------------------------------------------

    def decompose(
        self,
        table: TruthTable,
        *,
        progress: Optional[ProgressHook] = None,
        should_cancel: Optional[CancelHook] = None,
        resume: Optional[DecomposeCheckpoint] = None,
        checkpoint_hook: Optional[CheckpointHook] = None,
    ) -> DecompositionResult:
        """Run the full ``R``-round, MSB-first decomposition of ``table``.

        Parameters
        ----------
        table:
            The exact function to decompose.
        resume:
            Continue from a :class:`~repro.core.checkpoint.
            DecomposeCheckpoint` instead of starting fresh.  The
            checkpoint must belong to the same exact table (validated
            by content hash); completed components and both RNG streams
            are restored, so the finished run is bit-identical to an
            uninterrupted one under the same config.
        checkpoint_hook:
            Optional :data:`CheckpointHook` receiving a snapshot after
            every component optimization (the hook owns persistence
            cadence).
        progress:
            Optional :data:`ProgressHook`; receives
            ``{"event": "component", "round", "component", "accepted",
            "objective"}`` after every component optimization and
            ``{"event": "round", "round", "med"}`` after every completed
            round.  The service layer uses this for heartbeats/lease
            renewal.  Hooks observe only — they cannot perturb the
            seeded search, so results are identical with or without one.
        should_cancel:
            Optional :data:`CancelHook`, polled before every component
            optimization.  Returning ``True`` raises
            :class:`~repro.errors.OperationCancelled` (cooperative
            cancellation: in-flight solver chunks finish, nothing is
            left running).  Because each run starts from its seed, a
            cancelled run can simply be re-executed — determinism makes
            resume-from-scratch exact.
        """
        if table.n_inputs <= self.config.free_size:
            raise DimensionError(
                f"free_size {self.config.free_size} must be smaller than "
                f"the input count {table.n_inputs}"
            )
        start = time.perf_counter()
        # Separate streams: partition sampling must not be perturbed by
        # how many random numbers the inner solver consumes, so that
        # different methods under the same seed explore the *same*
        # candidate partitions (apples-to-apples benchmarking).
        seed = self.config.seed
        partition_rng = np.random.default_rng(seed)
        solver_rng = np.random.default_rng(
            None if seed is None else seed + 0x9E3779B9
        )
        exact = table
        approx = table
        components: Dict[int, ComponentDecomposition] = {}
        med_trace: List[float] = []
        n_solves = 0
        rounds_used = 0
        start_round = 0
        start_position = 0
        if resume is not None:
            resume.validate_for(exact)
            approx = resume.restore_approx()
            components = {
                index: ComponentDecomposition(
                    component=index,
                    partition=entry["partition"],
                    setting=entry["setting"],
                    objective=entry["objective"],
                    n_solver_iterations=entry["n_solver_iterations"],
                )
                for index, entry in resume.components.items()
            }
            med_trace = list(resume.med_trace)
            n_solves = int(resume.n_solves)
            rounds_used = resume.round_index
            start_round = resume.round_index
            start_position = resume.position
            # the restored streams sit exactly where the interrupted
            # run left them — skipped rounds/components consume nothing
            if resume.partition_rng:
                partition_rng = restore_rng(resume.partition_rng)
            if resume.solver_rng:
                solver_rng = restore_rng(resume.solver_rng)
        # fresh memoization per run: separate-mode terms stay valid
        # throughout; joint-mode entries are dropped whenever the
        # approximation changes (below)
        self._cache = WeightCache()
        executor: Optional[ProcessPoolExecutor] = None
        if self.config.n_workers > 1:
            # n_workers only schedules chunks, so capping the pool at
            # the core count changes no result — it keeps a wire spec
            # asking for thousands of workers from forking thousands
            executor = ProcessPoolExecutor(
                max_workers=min(self.config.n_workers, os.cpu_count() or 1)
            )
        self._executor = executor
        tracer = get_tracer()
        metrics = get_metrics()

        try:
            with tracer.span(
                "decompose",
                category="framework",
                n_inputs=exact.n_inputs,
                n_outputs=exact.n_outputs,
                mode=self.config.mode,
                n_partitions=self.config.n_partitions,
                n_rounds=self.config.n_rounds,
            ):
                for round_index in range(start_round, self.config.n_rounds):
                    rounds_used = round_index + 1
                    resuming_round = (
                        resume is not None and round_index == start_round
                    )
                    any_accepted = (
                        resume.any_accepted if resuming_round else False
                    )
                    with tracer.span(
                        "round", category="framework",
                        round=round_index + 1,
                    ):
                        # most significant output first (weight 2**k)
                        order = list(reversed(range(exact.n_outputs)))
                        for position, component in enumerate(order):
                            if (
                                resuming_round
                                and position < start_position
                            ):
                                continue
                            if should_cancel is not None and should_cancel():
                                raise OperationCancelled(
                                    f"decomposition cancelled in round "
                                    f"{round_index + 1} before component "
                                    f"{component}"
                                )
                            with tracer.span(
                                "component", category="framework",
                                round=round_index + 1, component=component,
                            ):
                                solution = self._optimize_component(
                                    exact, approx, component,
                                    partition_rng, solver_rng,
                                )
                                n_solves += self.config.n_partitions
                                baseline = self._baseline_error(
                                    exact, approx, component
                                )
                                must_accept = component not in components
                                accepted = (
                                    must_accept
                                    or solution.objective
                                    < baseline - 1e-12
                                )
                                if accepted:
                                    with tracer.span(
                                        "synthesis_verify",
                                        category="stage",
                                        component=component,
                                    ):
                                        approx = apply_column_setting(
                                            approx, component,
                                            solution.partition,
                                            solution.setting,
                                        )
                                        # joint-mode weight terms bake in
                                        # the current approximation; the
                                        # accepted setting changed it
                                        self._cache.invalidate_joint()
                                    components[component] = (
                                        ComponentDecomposition(
                                            component=component,
                                            partition=solution.partition,
                                            setting=solution.setting,
                                            objective=solution.objective,
                                            n_solver_iterations=(
                                                solution.solve_result
                                                .n_iterations
                                            ),
                                        )
                                    )
                                    any_accepted = True
                                metrics.counter(
                                    "framework_component_optimizations"
                                    "_total",
                                    help="component optimizations run",
                                ).inc()
                                if accepted:
                                    metrics.counter(
                                        "framework_settings_accepted"
                                        "_total",
                                        help="accepted column settings",
                                    ).inc()
                            if progress is not None:
                                progress(
                                    {
                                        "event": "component",
                                        "round": round_index + 1,
                                        "component": component,
                                        "accepted": accepted,
                                        "objective": float(
                                            solution.objective
                                        ),
                                    }
                                )
                            if checkpoint_hook is not None:
                                checkpoint_hook(
                                    DecomposeCheckpoint.capture(
                                        round_index=round_index,
                                        position=position + 1,
                                        exact=exact,
                                        approx=approx,
                                        components=components,
                                        med_trace=med_trace,
                                        n_solves=n_solves,
                                        any_accepted=any_accepted,
                                        partition_rng=partition_rng,
                                        solver_rng=solver_rng,
                                    )
                                )
                        med_trace.append(
                            mean_error_distance(exact, approx)
                        )
                    if progress is not None:
                        progress(
                            {
                                "event": "round",
                                "round": round_index + 1,
                                "med": float(med_trace[-1]),
                            }
                        )
                    if self.config.stop_when_stalled and not any_accepted:
                        break
        finally:
            self._executor = None
            if executor is not None:
                executor.shutdown()

        runtime = time.perf_counter() - start
        return DecompositionResult(
            exact=exact,
            approx=approx,
            components=components,
            med=mean_error_distance(exact, approx),
            error_rates=error_rate_per_output(exact, approx),
            med_trace=med_trace,
            rounds_used=rounds_used,
            runtime_seconds=runtime,
            n_cop_solves=n_solves,
        )
