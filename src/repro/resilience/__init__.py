"""repro.resilience — deterministic fault injection and crash safety.

This package makes failure a first-class, *testable* input to the
system:

``faults``
    :class:`FaultPlan` — a seeded, deterministic schedule of injected
    failures (kernel NaN/overflow, worker crash/hang/death, SQLite
    errors, gateway connection drops) fired through cheap seams in the
    kernels, worker, job store, and gateway client.  Zero overhead when
    no plan is installed.

Crash-safe execution itself lives with the code it protects:

* solver-state checkpoints — :class:`repro.ising.solvers.bsb.SBCheckpoint`
  and :class:`repro.core.checkpoint.DecomposeCheckpoint`, persisted
  through :class:`repro.service.artifacts.ArtifactStore`;
* process-isolated attempts with hang-kill — an isolated
  :class:`repro.service.worker.WorkerLoop`;
* numerical guards with numpy32 → numpy64 escalation — in the bSB
  solve loop.

See ``docs/resilience.md`` for the failure-mode → detection → recovery
map.
"""

from repro.resilience.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_injection,
    install_fault_plan,
)

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_injection",
    "install_fault_plan",
]
