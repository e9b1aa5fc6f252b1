"""Ballistic simulated bifurcation (bSB), Goto et al. 2021.

bSB simulates a network of classical oscillators whose potential encodes
the Ising energy.  Each spin ``i`` has a position ``x_i`` and momentum
``y_i`` evolved with symplectic Euler steps:

    y_i += dt * ( -(a0 - a(t)) * x_i + c0 * f_i(x) )
    x_i += dt * a0 * y_i

where ``f(x) = h + J x`` are the local fields and ``a(t)`` is the pump
ramping from 0 through the bifurcation point to ``a0``.  The *ballistic*
variant confines positions with perfectly inelastic walls: whenever
``|x_i| > 1`` the position is clamped to ``sign(x_i)`` and the momentum
zeroed.  The solution is read out as ``sign(x)``.

This implementation adds the paper's two improvements as composable
options:

* a :class:`~repro.ising.stop_criteria.StopCriterion` (the dynamic
  energy-variance stop of Section 3.3.1), and
* an *intervention hook* invoked at every sampling point with the live
  :class:`SBState`, which the Theorem-3 heuristic (Section 3.3.2) uses
  to overwrite the column-type oscillators with their conditionally
  optimal values.

Multiple replicas evolve in parallel (``n_replicas``); the best sampled
spin state across replicas and time is returned.

Resilience features (all opt-in or free when idle):

* **Numerical guards** — at every sampling point the kernel's cheap
  :meth:`~repro.ising.kernels.base.BipartiteSBKernel.check_state`
  verifies the live state.  A non-finite or diverging trajectory on a
  reduced-precision backend (``numpy32``) restarts the run from its
  initial state on the forced ``numpy64`` reference backend; a
  non-finite *float64* state raises :class:`~repro.errors.SolverError`.
  Escalations are counted in ``SolveResult.metadata`` and the
  ``solver_numeric_escalations_total`` metric.
* **Checkpoint / resume** — ``solve(..., checkpoint_every=k,
  on_checkpoint=fn)`` hands an :class:`SBCheckpoint` to ``fn`` every
  ``k`` sampling points; ``solve(..., resume=ckpt)`` continues a run
  bit-identically (state is carried in canonical float64, which
  round-trips float32 kernels losslessly).
* **Fault seams** — with a :class:`~repro.resilience.FaultPlan`
  installed, the ``kernel.nan`` / ``kernel.overflow`` sites corrupt the
  live state at sampling points to exercise the guards.  The plan is
  looked up once per solve; with no plan installed the seam is a single
  ``is None`` test outside the step loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import SolverError
from repro.ising.model import IsingModel
from repro.ising.schedules import LinearPump
from repro.ising.solvers.base import IsingSolver, SolveResult
from repro.ising.stop_criteria import FixedIterations, StopCriterion
from repro.obs.metrics import get_metrics
from repro.obs.probe import SolverProbe, make_probe
from repro.resilience import active_fault_plan
from repro.resilience.rng import capture_rng, restore_rng

__all__ = [
    "BallisticSBSolver",
    "SBCheckpoint",
    "SBState",
    "InterventionHook",
]

#: the backend the numeric guard escalates to
ESCALATION_BACKEND = "numpy64"


@dataclass
class SBState:
    """Mutable view of a simulated-bifurcation run at a sampling point.

    Intervention hooks may modify :attr:`positions` and :attr:`momenta`
    in place; the solver continues from the modified state.
    """

    model: IsingModel
    positions: np.ndarray  # (n_replicas, N)
    momenta: np.ndarray  # (n_replicas, N)
    iteration: int
    best_energy: float
    best_spins: np.ndarray

    @property
    def spins(self) -> np.ndarray:
        """Current sign readout, shape ``(n_replicas, N)``."""
        return np.where(self.positions >= 0.0, 1.0, -1.0)


@dataclass
class SBCheckpoint:
    """Everything needed to continue a bSB run bit-identically.

    Captured at a sampling point (after the stop criterion consumed its
    sample, before the next Euler step).  Positions/momenta are stored
    in canonical float64 — exact for the ``numpy64``/inline paths and a
    lossless widening of float32 states, so a ``numpy32`` resume casts
    back to the identical float32 bits.  The RNG snapshot preserves the
    seed-sequence spawn counter (see :mod:`repro.resilience.rng`) so
    callers that spawn child generators after the solve keep their
    derivation sequence.
    """

    iteration: int
    n_samples: int
    best_energy: float
    best_spins: List[float]
    positions: List  # (n_replicas, N) nested lists, float64
    momenta: List  # (n_replicas, N) nested lists, float64
    trace: List[float] = field(default_factory=list)
    stop_state: Dict = field(default_factory=dict)
    rng_state: Dict = field(default_factory=dict)
    backend: str = "inline"
    numeric_escalations: int = 0

    def to_dict(self) -> Dict:
        return {
            "iteration": self.iteration,
            "n_samples": self.n_samples,
            "best_energy": self.best_energy,
            "best_spins": list(self.best_spins),
            "positions": self.positions,
            "momenta": self.momenta,
            "trace": list(self.trace),
            "stop_state": dict(self.stop_state),
            "rng_state": dict(self.rng_state),
            "backend": self.backend,
            "numeric_escalations": self.numeric_escalations,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SBCheckpoint":
        return cls(
            iteration=int(data["iteration"]),
            n_samples=int(data["n_samples"]),
            best_energy=float(data["best_energy"]),
            best_spins=list(data["best_spins"]),
            positions=data["positions"],
            momenta=data["momenta"],
            trace=list(data.get("trace", ())),
            stop_state=dict(data.get("stop_state", {})),
            rng_state=dict(data.get("rng_state", {})),
            backend=str(data.get("backend", "inline")),
            numeric_escalations=int(data.get("numeric_escalations", 0)),
        )


InterventionHook = Callable[[SBState], None]
CheckpointHook = Callable[[SBCheckpoint], None]


def _sign_readout(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


class BallisticSBSolver(IsingSolver):
    """Ballistic simulated bifurcation with dynamic stop and interventions.

    Parameters
    ----------
    stop:
        Stop criterion; defaults to 1000 fixed iterations.
    dt:
        Euler step size.
    a0:
        Detuning / final pump amplitude.
    coupling_strength:
        ``c0``; ``None`` auto-scales to
        ``0.5 / (coupling_rms * sqrt(N))`` per Goto et al.
    n_replicas:
        Independent oscillator networks evolved in parallel.
    pump:
        Pump schedule; defaults to a linear ramp over the stop
        criterion's ``max_iterations``.
    intervention:
        Optional hook called at every sampling point (see module doc).
    initial_amplitude:
        Positions/momenta are initialized uniformly in
        ``[-initial_amplitude, +initial_amplitude]``.
    initializer:
        Optional callable ``(rng, n_replicas, n_spins, amplitude) ->
        (x, y)`` overriding the default uniform initialization — used
        e.g. to break known symmetries of structured models.
    sample_every_default:
        Sampling period used when the stop criterion does not request
        sampling itself (so the energy trace and interventions still run).
    backend:
        Compute-kernel backend for the Euler step when the model
        provides one (``model.make_kernel``): ``"numpy64"`` (bit-for-bit
        the historical inline loop), ``"numpy32"``, or ``"native32"``.
        ``None`` resolves through ``REPRO_SB_BACKEND`` and defaults to
        ``numpy64``; models without kernels use the generic inline path.
        Energy sampling always scores decoded spins in float64 through
        ``model.energy``, whatever the stepping dtype.
    trace_every:
        Keep every ``trace_every``-th sampled energy in
        ``SolveResult.energy_trace`` (1, the default, keeps all samples
        — the historical behavior).  Sampling, interventions, and the
        stop criterion are unaffected; only the retained trace thins.
    probe:
        Optional :class:`~repro.obs.probe.SolverProbe` observing this
        run.  ``None`` (default) consults the process-global probe
        factory (:func:`repro.obs.probe.make_probe`), which is itself
        ``None`` unless ``repro.obs.observe`` is active.  Probes are
        RNG-neutral: results are bit-identical with probes on or off.
    numeric_guard:
        Check the kernel state for NaN/inf/divergence at every sampling
        point and escalate reduced-precision backends to ``numpy64``
        (restarting from the initial state) instead of returning
        garbage.  A non-finite float64 state raises
        :class:`~repro.errors.SolverError`.  On by default; the check
        is two allocation-free reductions per sampling point.
    """

    def __init__(
        self,
        stop: Optional[StopCriterion] = None,
        dt: float = 0.25,
        a0: float = 1.0,
        coupling_strength: Optional[float] = None,
        n_replicas: int = 1,
        pump: Optional[LinearPump] = None,
        intervention: Optional[InterventionHook] = None,
        initial_amplitude: float = 0.1,
        sample_every_default: int = 50,
        initializer=None,
        backend: Optional[str] = None,
        trace_every: int = 1,
        probe: Optional[SolverProbe] = None,
        numeric_guard: bool = True,
    ) -> None:
        if dt <= 0:
            raise SolverError(f"dt must be positive, got {dt}")
        if trace_every < 1:
            raise SolverError(
                f"trace_every must be >= 1, got {trace_every}"
            )
        if n_replicas <= 0:
            raise SolverError(
                f"n_replicas must be positive, got {n_replicas}"
            )
        if initial_amplitude <= 0:
            raise SolverError(
                f"initial_amplitude must be positive, got {initial_amplitude}"
            )
        self.stop = stop if stop is not None else FixedIterations(1000)
        self.dt = float(dt)
        self.a0 = float(a0)
        self.coupling_strength = coupling_strength
        self.n_replicas = int(n_replicas)
        self.pump = pump
        self.intervention = intervention
        self.initial_amplitude = float(initial_amplitude)
        self.sample_every_default = int(sample_every_default)
        self.initializer = initializer
        self.backend = backend
        self.trace_every = int(trace_every)
        self.probe = probe
        self.numeric_guard = bool(numeric_guard)

    # ------------------------------------------------------------------

    def _resolve_c0(self, model: IsingModel) -> float:
        if self.coupling_strength is not None:
            return float(self.coupling_strength)
        rms = model.coupling_rms()
        if rms <= 0.0:
            return 1.0
        return 0.5 / (rms * np.sqrt(model.n_spins))

    def _initial_state(self, rng: np.random.Generator, n: int):
        """Draw the float64 initial positions/momenta."""
        if self.initializer is not None:
            x, y = self.initializer(
                rng, self.n_replicas, n, self.initial_amplitude
            )
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            if x.shape != (self.n_replicas, n) or y.shape != x.shape:
                raise SolverError(
                    "initializer must return two arrays of shape "
                    f"({self.n_replicas}, {n})"
                )
            return x, y
        x = rng.uniform(
            -self.initial_amplitude, self.initial_amplitude,
            (self.n_replicas, n),
        )
        y = rng.uniform(
            -self.initial_amplitude, self.initial_amplitude,
            (self.n_replicas, n),
        )
        return x, y

    def solve(
        self,
        model: IsingModel,
        rng: Optional[np.random.Generator] = None,
        *,
        resume: Optional[SBCheckpoint] = None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[CheckpointHook] = None,
    ) -> SolveResult:
        """Run bSB on ``model`` (see class docs).

        Keyword-only resilience parameters:

        resume:
            Continue from an :class:`SBCheckpoint` instead of drawing a
            fresh initial state; the completed run is bit-identical to
            the uninterrupted one on the same backend.
        checkpoint_every:
            Capture a checkpoint every this-many *sampling points*
            (``None`` disables).
        on_checkpoint:
            Receives each captured :class:`SBCheckpoint`; exceptions
            propagate (a checkpoint that cannot be persisted should
            fail the attempt, not silently skip).
        """
        start = time.perf_counter()
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SolverError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        rng = np.random.default_rng(rng)
        n = model.n_spins
        c0 = self._resolve_c0(model)
        stop = self.stop
        stop.reset()
        max_iterations = stop.max_iterations
        pump = self.pump or LinearPump(self.a0, max_iterations)
        sample_every = stop.sample_every or self.sample_every_default
        # hoisted once per solve: the disabled-path cost of the kernel
        # fault seams is this single lookup
        plan = active_fault_plan()

        # -- base state: fresh draw or checkpoint restore ---------------
        # ``x64``/``y64`` stay pristine float64 for the lifetime of the
        # solve; each attempt (first try, post-escalation retry) casts
        # them into the kernel dtype via ``prepare_state``.
        if resume is not None:
            x64 = np.asarray(resume.positions, dtype=np.float64)
            y64 = np.asarray(resume.momenta, dtype=np.float64)
            if x64.shape != (self.n_replicas, n) or y64.shape != x64.shape:
                raise SolverError(
                    f"checkpoint state shape {x64.shape} does not match "
                    f"solver ({self.n_replicas}, {n})"
                )
            if resume.rng_state:
                rng = restore_rng(resume.rng_state)
            base_iteration = int(resume.iteration)
            base_n_samples = int(resume.n_samples)
            base_best_energy = float(resume.best_energy)
            base_best_spins = np.asarray(resume.best_spins, dtype=float)
            base_trace = list(resume.trace)
            base_stop_state = dict(resume.stop_state)
            numeric_escalations = int(resume.numeric_escalations)
        else:
            x64, y64 = self._initial_state(rng, n)
            base_iteration = 0
            base_n_samples = 0
            base_best_energy = np.inf
            base_best_spins = None
            base_trace = []
            base_stop_state = {}
            numeric_escalations = 0

        maker = getattr(model, "make_kernel", None)
        probe = self.probe if self.probe is not None else make_probe()
        force_float64 = False

        # models exposing ``make_kernel`` (the bipartite core COP) step
        # through a fused backend kernel; everything else keeps the
        # generic inline update driven by ``model.fields``.  The while
        # loop runs once normally; a numeric-guard escalation restarts
        # it on the forced float64 reference backend.
        while True:
            if maker is not None:
                kernel = maker(
                    ESCALATION_BACKEND if force_float64 else self.backend,
                    ignore_env=force_float64,
                )
                x, y = kernel.prepare_state(x64, y64)
            else:
                kernel = None
                x, y = x64, y64
            guard = self.numeric_guard and kernel is not None

            stop.reset()
            if base_stop_state:
                stop.load_state_dict(base_stop_state)
            best_energy = base_best_energy
            best_spins = (
                base_best_spins.copy()
                if base_best_spins is not None
                else _sign_readout(x[0])
            )
            trace = list(base_trace)
            n_samples = base_n_samples
            stop_reason = "max_iterations"
            iteration = base_iteration
            escalated = False

            if probe is not None:
                probe.on_begin(
                    n_spins=n,
                    n_replicas=self.n_replicas,
                    max_iterations=max_iterations,
                    backend=kernel.name if kernel is not None else "inline",
                    dtype=(
                        str(kernel.dtype)
                        if kernel is not None
                        else "float64"
                    ),
                )

            for iteration in range(base_iteration + 1, max_iterations + 1):
                a_t = pump(iteration)
                step_t0 = time.perf_counter() if probe is not None else 0.0
                if kernel is not None:
                    kernel.step(x, y, a_t, self.dt, self.a0, c0)
                else:
                    y += self.dt * (
                        -(self.a0 - a_t) * x + c0 * model.fields(x)
                    )
                    x += self.dt * self.a0 * y
                    # perfectly inelastic walls at |x| = 1
                    outside = np.abs(x) > 1.0
                    if outside.any():
                        np.clip(x, -1.0, 1.0, out=x)
                        y[outside] = 0.0
                if probe is not None:
                    probe.on_step(time.perf_counter() - step_t0)

                if iteration % sample_every == 0:
                    if plan is not None and kernel is not None:
                        detail = f"{kernel.name}:iter{iteration}"
                        if plan.should_fire("kernel.nan", detail):
                            x.flat[0] = np.nan
                        if plan.should_fire("kernel.overflow", detail):
                            with np.errstate(over="ignore"):
                                # deliberately overflows float32 to inf
                                y.flat[0] = 1e300
                    if guard:
                        verdict = kernel.check_state(x, y)
                        if verdict is not None and self._handle_unhealthy(
                            verdict, kernel, iteration, probe
                        ):
                            numeric_escalations += 1
                            force_float64 = True
                            escalated = True
                            break
                    spins = _sign_readout(x)
                    energies = np.atleast_1d(model.energy(spins))
                    idx = int(np.argmin(energies))
                    current = float(energies[idx])
                    if current < best_energy:
                        best_energy = current
                        best_spins = spins[idx].copy()
                    if n_samples % self.trace_every == 0:
                        trace.append(current)
                    n_samples += 1
                    if probe is not None:
                        probe.on_sample(iteration, current, best_energy)
                    if self.intervention is not None:
                        state = SBState(
                            model=model,
                            positions=x,
                            momenta=y,
                            iteration=iteration,
                            best_energy=best_energy,
                            best_spins=best_spins,
                        )
                        self.intervention(state)
                        spins_after = _sign_readout(x)
                        changed = not np.array_equal(spins_after, spins)
                        if probe is not None:
                            probe.on_intervention(iteration, changed)
                        # re-score only when the hook actually changed the
                        # decoded state; an unchanged readout has unchanged
                        # energies, so the second evaluation would be a
                        # no-op over every replica
                        if changed:
                            spins = spins_after
                            energies = np.atleast_1d(model.energy(spins))
                            idx = int(np.argmin(energies))
                            current = float(energies[idx])
                            if current < best_energy:
                                best_energy = current
                                best_spins = spins[idx].copy()
                    if stop.wants_sample(iteration):
                        stopped = stop.observe(current)
                        if probe is not None:
                            probe.on_stop_observation(
                                iteration,
                                getattr(stop, "last_variance", None),
                                getattr(stop, "threshold", None),
                                stopped,
                            )
                        if stopped:
                            stop_reason = "variance_converged"
                            break
                    if (
                        checkpoint_every is not None
                        and on_checkpoint is not None
                        and (n_samples - base_n_samples) % checkpoint_every
                        == 0
                    ):
                        on_checkpoint(
                            SBCheckpoint(
                                iteration=iteration,
                                n_samples=n_samples,
                                best_energy=best_energy,
                                best_spins=[
                                    float(s) for s in best_spins
                                ],
                                positions=np.asarray(
                                    x, dtype=np.float64
                                ).tolist(),
                                momenta=np.asarray(
                                    y, dtype=np.float64
                                ).tolist(),
                                trace=list(trace),
                                stop_state=stop.state_dict(),
                                rng_state=capture_rng(rng),
                                backend=(
                                    kernel.name
                                    if kernel is not None
                                    else "inline"
                                ),
                                numeric_escalations=numeric_escalations,
                            )
                        )

            if not escalated:
                break

        # final readout in case the last iterations were never sampled
        spins = _sign_readout(x)
        energies = np.atleast_1d(model.energy(spins))
        idx = int(np.argmin(energies))
        if float(energies[idx]) < best_energy:
            best_energy = float(energies[idx])
            best_spins = spins[idx].copy()

        runtime = time.perf_counter() - start
        if probe is not None:
            probe.on_end(
                n_iterations=iteration,
                stop_reason=stop_reason,
                best_energy=best_energy,
            )
        return SolveResult(
            spins=best_spins,
            energy=best_energy,
            objective=best_energy + model.offset,
            n_iterations=iteration,
            stop_reason=stop_reason,
            energy_trace=trace,
            runtime_seconds=runtime,
            metadata={
                "solver": "bsb",
                "backend": kernel.name if kernel is not None else "inline",
                "dtype": (
                    str(kernel.dtype) if kernel is not None else "float64"
                ),
                "n_replicas": self.n_replicas,
                "numeric_escalations": numeric_escalations,
                "resumed": resume is not None,
            },
        )

    def _handle_unhealthy(
        self,
        verdict: str,
        kernel,
        iteration: int,
        probe: Optional[SolverProbe],
    ) -> bool:
        """Route an unhealthy state: escalate (True) or raise.

        Reduced-precision backends escalate to ``numpy64`` on any
        verdict; the float64 reference path raises on ``"nonfinite"``
        (there is nowhere safer to go) and tolerates ``"diverged"``
        (a large-but-finite float64 momentum recovers through the
        walls; only width-limited dtypes would overflow).
        """
        if kernel.dtype == np.dtype(np.float64):
            if verdict == "nonfinite":
                raise SolverError(
                    f"non-finite solver state on float64 backend "
                    f"{kernel.name!r} at iteration {iteration}; the "
                    "model couplings are likely broken (or a fault "
                    "was injected without a recovery path)"
                )
            return False  # "diverged" on float64: benign, keep going
        get_metrics().counter(
            "solver_numeric_escalations_total",
            help="solver restarts forced by unhealthy kernel state",
        ).inc()
        if probe is not None:
            probe.on_numeric_escalation(
                iteration, kernel.name, ESCALATION_BACKEND
            )
        return True

    def __repr__(self) -> str:
        return (
            f"BallisticSBSolver(stop={self.stop!r}, dt={self.dt}, "
            f"a0={self.a0}, n_replicas={self.n_replicas})"
        )
