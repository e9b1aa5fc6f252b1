"""Shared solver interface, result container, and the result contract.

The solver contract
-------------------
Every :class:`IsingSolver` implementation returns a :class:`SolveResult`
with *uniformly* populated fields — callers (the decomposition
framework, the service layer, the benchmarks, the gateway) rely on this
and never special-case individual solvers:

``spins``
    Best state found, shape ``(N,)``, float64 values in ``{-1.0, +1.0}``.
``energy`` / ``objective``
    Exact float64 re-evaluations of :attr:`spins` (never a drifted
    incremental value): ``objective == energy + model.offset``.
``n_iterations``
    The solver's own unit of work actually executed (Euler steps,
    sweeps, flips, enumerated states) — always > 0 after a solve.
``stop_reason``
    Non-empty string naming why the run ended.  The shared vocabulary is
    ``"max_iterations"`` (iteration cap hit), ``"variance_converged"``
    (dynamic energy-variance stop fired), ``"schedule_exhausted"``
    (an annealing/temperature schedule ran to its end),
    ``"steps_exhausted"`` (a fixed step budget ran out), and
    ``"exhausted"`` (exact enumeration finished).  New solvers should
    reuse these tags where they apply.
``energy_trace``
    Sampled energies (possibly thinned by ``trace_every``); empty when
    the solver does not sample.
``runtime_seconds``
    Wall-clock time of the ``solve`` call, always populated and > 0.
``metadata``
    Uniform execution metadata instead of solver-specific attributes.
    Always contains at least:

    * ``"solver"`` — the registry name of the implementation
      (see :mod:`repro.ising.solvers.registry`);
    * ``"backend"`` — what executed the hot loop (a kernel name such as
      ``"numpy64"``/``"numpy32"``/``"native32"``, or ``"inline"`` /
      ``"dense"`` / ``"enumerate"`` for the non-kernel paths);
    * ``"dtype"`` — the stepping dtype of that hot loop (``"float64"``
      unless a reduced-precision kernel ran);
    * ``"n_replicas"`` — parallel states evolved per run (replicas,
      temperature-ladder size, or independent restarts; 1 when the
      solver is single-trajectory).

    Solvers may add extra keys; they must not remove these four.

Spin/bit encoding
-----------------
:func:`spins_to_binary` and :func:`binary_to_spins` convert between the
solver-native spin encoding and packed-truth-table bits.  The dtypes are
deliberately asymmetric and form a documented, tested contract:

* spins are **float64** ``{-1.0, +1.0}`` — the native dtype of the
  continuous-dynamics solvers, usable in ``model.energy`` without a
  cast;
* bits are **uint8** ``{0, 1}`` — the native dtype of
  :class:`~repro.boolean.truth_table.TruthTable` and ``np.packbits``.

``binary_to_spins`` accepts any integer or bool array whose values are
0/1 (the caller's promise — values outside {0, 1} are undefined) and
always returns float64; ``spins_to_binary`` accepts any real array whose
values are ±1 and always returns uint8.  The round trips are exact in
both directions and for every integer/bool input dtype:

>>> bits = np.array([0, 1, 1, 0], dtype=np.uint64)
>>> (spins_to_binary(binary_to_spins(bits)) == bits).all()
True
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.ising.model import IsingModel

__all__ = ["SolveResult", "IsingSolver", "spins_to_binary", "binary_to_spins"]


def spins_to_binary(spins: np.ndarray) -> np.ndarray:
    """Map spins ``{-1, +1}`` to bits ``{0, 1}`` (``x = (sigma + 1) / 2``).

    Accepts any real dtype with values in ``{-1, +1}``; always returns
    ``uint8`` (the truth-table bit dtype — see the module docstring).
    """
    return ((np.asarray(spins) + 1) // 2).astype(np.uint8)


def binary_to_spins(bits: np.ndarray) -> np.ndarray:
    """Map bits ``{0, 1}`` to spins ``{-1, +1}`` (``sigma = 2x - 1``).

    Accepts any integer or bool dtype with values in ``{0, 1}``; always
    returns ``float64`` (the solver-native spin dtype — see the module
    docstring).  The intermediate arithmetic runs in int64 so every
    integer width, signed or unsigned, round-trips exactly.
    """
    return (2 * np.asarray(bits, dtype=np.int64) - 1).astype(np.float64)


@dataclass
class SolveResult:
    """Outcome of one solver run (see the module-level contract).

    Attributes
    ----------
    spins:
        Best spin vector found, shape ``(N,)``, values in ``{-1, +1}``.
    energy:
        Ising energy of :attr:`spins` (Eq. 1, without offset).
    objective:
        ``energy + model.offset`` — the original COP cost.
    n_iterations:
        Euler steps / sweeps / flips / states actually executed.
    stop_reason:
        Why the run ended; one of the shared tags documented above.
    energy_trace:
        Energies at each sampling point (empty when sampling is off).
    runtime_seconds:
        Wall-clock time of the :meth:`IsingSolver.solve` call.
    metadata:
        Uniform execution metadata; at least ``solver``, ``backend``,
        ``dtype``, ``n_replicas`` (module docstring).
    """

    spins: np.ndarray
    energy: float
    objective: float
    n_iterations: int
    stop_reason: str
    energy_trace: List[float] = field(default_factory=list)
    runtime_seconds: float = 0.0
    metadata: Dict = field(default_factory=dict)

    @property
    def bits(self) -> np.ndarray:
        """Best assignment as ``{0, 1}`` bits."""
        return spins_to_binary(self.spins)

    def __repr__(self) -> str:
        return (
            f"SolveResult(energy={self.energy:.6g}, "
            f"objective={self.objective:.6g}, "
            f"n_iterations={self.n_iterations}, "
            f"stop_reason={self.stop_reason!r})"
        )


class IsingSolver(abc.ABC):
    """A heuristic or exact minimizer of an Ising energy."""

    @abc.abstractmethod
    def solve(
        self,
        model: IsingModel,
        rng: Optional[np.random.Generator] = None,
    ) -> SolveResult:
        """Minimize ``model`` and return the best state found.

        ``rng`` seeds any stochastic element; passing the same generator
        state makes runs reproducible.  The returned
        :class:`SolveResult` must honor the module-level contract
        (uniform ``stop_reason``, ``runtime_seconds``, ``metadata``).
        """
