"""Deterministic fault injection: seeded schedules fired through seams.

A :class:`FaultPlan` owns a set of :class:`FaultRule`\\ s, each bound to
one named *site* — a place in the production code where a failure can
physically happen.  The instrumented code asks the process-global plan
``should_fire(site, detail)`` at that point and, when the answer is
yes, raises/injects the corresponding failure.  Three properties make
this a test harness rather than a chaos monkey:

**Deterministic.**  A rule fires either at explicit call ordinals
(``at_calls=(1, 3)`` — the 1st and 3rd time the site is reached) or
with a probability drawn from a ``numpy`` generator seeded from
``(plan seed, site)``.  Two runs of the same plan over the same code
path inject identical faults.

**Zero overhead when disabled.**  No plan installed means every seam is
a single module-global ``is None`` check (hot loops hoist even that —
the bSB solver looks the plan up once per solve).  The <2 % kernel
bench budget is enforced by ``benchmarks/test_bench_resilience_overhead``.

**Observable.**  Every fired fault is appended to the plan's event log
(and mirrored to a process-wide sink so a test session can persist one
combined JSONL recovery log, which CI uploads as an artifact).

Sites
-----
``kernel.nan`` / ``kernel.overflow``
    Corrupt the live bSB state at a sampling point (NaN position /
    huge momentum) — exercises the numerical guards.
``worker.crash``
    Raise :class:`InjectedFault` inside the job executor (checked at
    attempt start and after every checkpoint write).
``worker.hang``
    Sleep ``param`` seconds inside the executor — exercises lease
    expiry / hang detection.  Match on the worker name to confine the
    hang to one worker generation.
``worker.die``
    ``os._exit`` the worker *process*.  Only meaningful for isolated
    loops (``serve --isolated-workers``, ``work --isolated``), where it
    kills one attempt's child; in thread mode it would kill the host
    process.
``jobstore.operational_error`` / ``jobstore.disk_full``
    Raise ``sqlite3.OperationalError`` from the store's connection /
    commit path.
``shard.unavailable`` / ``shard.corrupt``
    Raise ``sqlite3.OperationalError`` / ``JobStoreCorruptError`` from
    one shard of a :class:`repro.service.shards.ShardedJobStore`
    before the call reaches SQLite — exercises the per-shard circuit
    breaker and degraded-mode serving.  The seam's ``detail`` is
    ``"<index>:<shard path>"``, so ``match="2:"`` confines the fault
    to shard 2.
``client.connection_drop``
    Raise ``http.client.IncompleteRead`` in the gateway client after
    the response headers — a connection reset mid-body.

Plans are picklable via :meth:`FaultPlan.to_spec` /
:meth:`FaultPlan.from_spec` so an isolated loop can re-install its
plan inside every attempt's child process (with fresh counters).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics

logger = get_logger("repro.resilience.faults")

__all__ = [
    "DEFAULT_EVENT_LOG_MAX_BYTES",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_fault_plan",
    "clear_fault_plan",
    "drain_event_sink",
    "fault_injection",
    "install_fault_plan",
    "write_event_log",
]

#: every seam the production code exposes (see module docs)
FAULT_SITES = (
    "kernel.nan",
    "kernel.overflow",
    "worker.crash",
    "worker.hang",
    "worker.die",
    "jobstore.operational_error",
    "jobstore.disk_full",
    "shard.unavailable",
    "shard.corrupt",
    "client.connection_drop",
)


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    crashes must travel the same generic-exception paths a real bug
    would.
    """


@dataclass(frozen=True)
class FaultRule:
    """When one site fires.

    Attributes
    ----------
    site:
        One of :data:`FAULT_SITES`.
    at_calls:
        1-based call ordinals at which the site fires deterministically
        (the counter is per ``(plan, site)``, monotone over the plan's
        lifetime).
    probability:
        Independent per-call firing probability, drawn from a generator
        seeded from ``(plan seed, site)`` — deterministic for a fixed
        call sequence.  Combined with ``at_calls`` the rule fires when
        either trigger does.
    max_fires:
        Stop firing after this many injections (``None`` — unlimited).
    match:
        Substring filter on the seam's ``detail`` string (worker name,
        job id, ...); non-matching calls neither fire nor consume
        probability draws, but do advance the call counter.
    param:
        Free numeric payload — the hang duration for ``worker.hang``,
        the exit code for ``worker.die``.
    """

    site: str
    at_calls: Tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: Optional[int] = None
    match: Optional[str] = None
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; sites: {FAULT_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if any(ordinal < 1 for ordinal in self.at_calls):
            raise ConfigurationError(
                f"at_calls ordinals are 1-based, got {self.at_calls}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError(
                f"max_fires must be >= 1, got {self.max_fires}"
            )

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "at_calls": list(self.at_calls),
            "probability": self.probability,
            "max_fires": self.max_fires,
            "match": self.match,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultRule":
        return cls(
            site=data["site"],
            at_calls=tuple(data.get("at_calls", ())),
            probability=float(data.get("probability", 0.0)),
            max_fires=data.get("max_fires"),
            match=data.get("match"),
            param=float(data.get("param", 0.0)),
        )


def _site_seed(seed: int, site: str) -> np.random.Generator:
    # derive a per-site stream so adding a rule for one site never
    # shifts another site's draw sequence
    return np.random.default_rng([seed, *site.encode("utf-8")])


# Events fired by *any* plan in this process, oldest first.  A chaos
# test session drains this once at teardown into the recovery log CI
# uploads; the indirection keeps per-test plans independent while still
# producing one combined artifact.
_EVENT_SINK: List[Dict] = []
_SINK_LOCK = threading.Lock()


class FaultPlan:
    """A seeded, deterministic schedule of failures (see module docs)."""

    def __init__(
        self, rules: Sequence[FaultRule], seed: int = 0
    ) -> None:
        self.seed = int(seed)
        self.rules: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self.rules.setdefault(rule.site, []).append(rule)
        self._rngs = {
            site: _site_seed(self.seed, site) for site in self.rules
        }
        self._calls: Dict[str, int] = {site: 0 for site in self.rules}
        self._fires: Dict[int, int] = {}
        self._events: List[Dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def should_fire(self, site: str, detail: str = "") -> bool:
        """Advance ``site``'s schedule by one call; fire or not.

        Thread-safe; the per-site call counter is shared across threads
        so concurrent workers still see one global deterministic
        ordinal sequence (which thread observes which ordinal is
        scheduling-dependent — pin rules with ``match`` when that
        matters).
        """
        rules = self.rules.get(site)
        if not rules:
            return False
        with self._lock:
            self._calls[site] = call = self._calls[site] + 1
            fired = False
            for rule in rules:
                if rule.match is not None and rule.match not in detail:
                    continue
                key = id(rule)
                if (
                    rule.max_fires is not None
                    and self._fires.get(key, 0) >= rule.max_fires
                ):
                    continue
                hit = call in rule.at_calls
                if rule.probability > 0.0:
                    hit = (
                        self._rngs[site].random() < rule.probability
                    ) or hit
                if hit:
                    self._fires[key] = self._fires.get(key, 0) + 1
                    fired = True
            if not fired:
                return False
            event = {
                "ts": time.time(),
                "pid": os.getpid(),
                "site": site,
                "call": call,
                "detail": detail,
            }
            self._events.append(event)
        with _SINK_LOCK:
            _EVENT_SINK.append(event)
        logger.warning(
            "injected fault at %s (call %d%s)",
            site, call, f", {detail}" if detail else "",
        )
        get_metrics().counter(
            "resilience_faults_injected_total",
            help="faults fired by the injection harness",
        ).inc()
        return True

    def site_param(self, site: str, default: float = 0.0) -> float:
        """The ``param`` payload of ``site``'s first rule (or default).

        Seams that need a magnitude — the hang duration, the exit code —
        read it here after :meth:`should_fire` says yes.
        """
        rules = self.rules.get(site)
        return rules[0].param if rules else default

    def events(self) -> List[Dict]:
        """Faults this plan fired, oldest first (copies)."""
        with self._lock:
            return [dict(event) for event in self._events]

    # -- process transfer ----------------------------------------------

    def to_spec(self) -> Dict:
        """JSON/pickle-safe description; counters are *not* carried —
        a re-installed plan starts its schedule from call 1.
        """
        return {
            "seed": self.seed,
            "rules": [
                rule.to_dict()
                for rules in self.rules.values()
                for rule in rules
            ],
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "FaultPlan":
        return cls(
            [FaultRule.from_dict(entry) for entry in spec["rules"]],
            seed=int(spec.get("seed", 0)),
        )

    def __repr__(self) -> str:
        n = sum(len(rules) for rules in self.rules.values())
        return f"FaultPlan(seed={self.seed}, n_rules={n})"


# -- process-global installation ---------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-global plan every seam consults."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear_fault_plan() -> None:
    """Remove the global plan; all seams return to zero-cost no-ops."""
    global _ACTIVE
    _ACTIVE = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the production default)."""
    return _ACTIVE


@contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a plan's installation to a ``with`` block (test helper)."""
    previous = _ACTIVE
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        if previous is None:
            clear_fault_plan()
        else:
            install_fault_plan(previous)


# -- recovery event log ------------------------------------------------

def drain_event_sink() -> List[Dict]:
    """Remove and return every event fired in this process so far."""
    with _SINK_LOCK:
        events, _EVENT_SINK[:] = list(_EVENT_SINK), []
    return events


#: rotation threshold for the recovery log; override with the
#: ``REPRO_CHAOS_LOG_MAX_BYTES`` environment variable (0 disables)
DEFAULT_EVENT_LOG_MAX_BYTES = 4 * 1024 * 1024


def _event_log_cap() -> int:
    raw = os.environ.get("REPRO_CHAOS_LOG_MAX_BYTES")
    if raw is None:
        return DEFAULT_EVENT_LOG_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_EVENT_LOG_MAX_BYTES


def write_event_log(
    path: Union[str, Path],
    events: Optional[Sequence[Dict]] = None,
    max_bytes: Optional[int] = None,
) -> Path:
    """Append ``events`` (default: drain the sink) to a JSONL file.

    The log is *bounded*: when the file has grown past ``max_bytes``
    (default :data:`DEFAULT_EVENT_LOG_MAX_BYTES`, overridable via
    ``REPRO_CHAOS_LOG_MAX_BYTES``; 0 disables rotation) it is rotated
    to ``<path>.1`` — replacing any previous rotation — before the
    append, so a long chaos soak holds at most ~2× the cap on disk
    instead of growing without limit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if events is None:
        events = drain_event_sink()
    cap = _event_log_cap() if max_bytes is None else max_bytes
    if cap > 0 and path.exists() and path.stat().st_size >= cap:
        os.replace(path, path.with_name(path.name + ".1"))
    with path.open("a") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path
