"""Job specifications and canonical artifact keying.

A :class:`JobSpec` is everything the service needs to (re-)execute a
decomposition: the problem (a named workload at a width, or an inline
truth table), the :class:`~repro.core.config.FrameworkConfig`, and the
service-level execution policy (timeout, retry budget).  Specs are plain
JSON — the job store persists them verbatim, so a crashed worker's job
can be replayed by any process that can read the store.

Content addressing
------------------
:func:`artifact_key` maps (truth table, config) to a SHA-256 hex digest
of a canonical JSON payload.  The payload contains exactly the inputs
that determine the seeded search result bit-for-bit:

* the packed output bits of the exact truth table,
* the input-distribution probabilities (raw float64 bytes — the MED
  objective is defined against them),
* :meth:`FrameworkConfig.semantic_dict` — every framework/solver field
  except ``n_workers`` (pure scheduling), with the SB backend resolved
  because float32 stepping changes numerics.

Two submissions with equal keys are guaranteed to produce identical
designs, so the artifact store may return one's result for the other.

Wire format (JobSpecV1)
-----------------------
There is exactly one JSON shape a job spec travels in — the *wire form*
produced by :meth:`JobSpec.to_wire` and parsed by
:meth:`JobSpec.from_wire`.  The CLI's ``submit --remote``, the HTTP
gateway's ``POST /v1/jobs`` body, and the job store's persisted ``spec``
column all use it, so a spec submitted remotely is byte-comparable to
one submitted in-process:

.. code-block:: json

    {
      "format": "repro-jobspec",
      "schema_version": 1,
      "config": { ... FrameworkConfig.to_dict() ... },
      "workload": "cos", "n_inputs": 9, "table": null,
      "timeout_seconds": null, "max_attempts": 3
    }

Parsing is *strict*: a missing/unsupported ``schema_version`` or any
unknown key is rejected with :class:`~repro.errors.ServiceError`
(nested ``config`` payloads were already strict).  Job-store rows
written before the wire format carry no ``format`` key and are still
read through the legacy lenient path (:func:`spec_from_stored`).

The one retired field is ``partition``: older builds wrote
``"partition": null`` into every spec, so a null value still parses
(and keys identically) on both paths, while any non-null block is
rejected — Ising models are always solved whole.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from repro.boolean.truth_table import TruthTable
from repro.core.config import FrameworkConfig
from repro.errors import ServiceError

__all__ = [
    "JobSpec",
    "SPEC_FORMAT",
    "SPEC_SCHEMA_VERSION",
    "artifact_key",
    "spec_artifact_key",
    "spec_from_stored",
    "table_to_dict",
    "table_from_dict",
]

#: wire-format discriminator of a serialized job spec
SPEC_FORMAT = "repro-jobspec"
#: current wire schema version (see the module docstring)
SPEC_SCHEMA_VERSION = 1
def table_to_dict(table: TruthTable) -> Dict:
    """Serialize a truth table (packed bits + distribution) to JSON."""
    packed = np.packbits(table.outputs.astype(np.uint8).ravel())
    return {
        "n_inputs": table.n_inputs,
        "n_outputs": table.n_outputs,
        "outputs_hex": packed.tobytes().hex(),
        "probabilities": [float(p) for p in table.probabilities],
    }


def table_from_dict(data: Dict) -> TruthTable:
    """Rebuild a truth table serialized by :func:`table_to_dict`."""
    try:
        n_inputs = int(data["n_inputs"])
        n_outputs = int(data["n_outputs"])
        packed = np.frombuffer(
            bytes.fromhex(data["outputs_hex"]), dtype=np.uint8
        )
        n_bits = (1 << n_inputs) * n_outputs
        outputs = np.unpackbits(packed, count=n_bits).reshape(
            1 << n_inputs, n_outputs
        )
        return TruthTable(outputs, data.get("probabilities"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ServiceError(f"malformed inline table payload: {exc}") from exc


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work: a problem plus how to run it.

    Attributes
    ----------
    config:
        The full framework configuration, seed included.  The seed is
        part of the spec — every retry of the job replays the identical
        seeded search, which is what makes results independent of the
        retry history.
    workload:
        Name of a registered workload (``repro.workloads``); exclusive
        with ``table``.
    n_inputs:
        Width for the named workload.
    table:
        Inline truth table as produced by :func:`table_to_dict`, for
        problems outside the benchmark registry; exclusive with
        ``workload``.
    ising:
        Inline Ising-problem document
        (:mod:`repro.ising.wire`, format ``repro-ising-problem``) —
        the third problem kind: solve a raw Ising model with a named
        registry solver.  Exclusive with both ``workload`` and
        ``table``; validated strictly on construction.
    timeout_seconds:
        Per-attempt wall-clock budget enforced via the framework's
        cooperative cancellation hook (``None`` — no timeout).
    max_attempts:
        Total execution attempts (first try + retries) before the job
        is declared failed.
    checkpoint_every:
        Write a crash-recovery checkpoint every this-many component
        optimizations (``None`` — use the service default).  Purely an
        execution-policy knob: checkpoints never change the seeded
        search, so the field is *not* part of the artifact key (which
        hashes only the table and the semantic config).
    """

    config: FrameworkConfig = field(default_factory=FrameworkConfig)
    workload: Optional[str] = None
    n_inputs: int = 9
    table: Optional[Dict] = None
    ising: Optional[Dict] = None
    timeout_seconds: Optional[float] = None
    max_attempts: int = 3
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        sources = [
            name
            for name in ("workload", "table", "ising")
            if getattr(self, name) is not None
        ]
        if len(sources) != 1:
            raise ServiceError(
                "spec needs exactly one problem source: a workload "
                "name, an inline table, or an ising problem (got "
                f"{', '.join(sources) if sources else 'none'})"
            )
        if self.ising is not None:
            from repro.ising.wire import validate_problem

            validate_problem(self.ising)
        if self.max_attempts <= 0:
            raise ServiceError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ServiceError(
                f"timeout_seconds must be positive, got "
                f"{self.timeout_seconds}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ServiceError(
                f"checkpoint_every must be >= 1, got "
                f"{self.checkpoint_every}"
            )

    # ------------------------------------------------------------------

    def build_table(self) -> TruthTable:
        """Materialize the exact truth table this job decomposes."""
        if self.ising is not None:
            raise ServiceError(
                "ising jobs have no truth table (the executor solves "
                "the inline model directly)"
            )
        if self.table is not None:
            return table_from_dict(self.table)
        from repro.workloads import build_workload

        return build_workload(self.workload, n_inputs=self.n_inputs).table

    def describe(self) -> str:
        """Short human-readable problem label for status displays."""
        if self.workload is not None:
            return f"{self.workload}/n={self.n_inputs}"
        if self.ising is not None:
            solver = self.ising.get("solver", "?")
            n_spins = (self.ising.get("model") or {}).get("n_spins", "?")
            return f"ising[{solver}]/N={n_spins}"
        return f"inline/n={self.table.get('n_inputs', '?')}"

    def to_dict(self) -> Dict:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return {
            "config": self.config.to_dict(),
            "workload": self.workload,
            "n_inputs": self.n_inputs,
            "table": self.table,
            "ising": self.ising,
            "timeout_seconds": self.timeout_seconds,
            "max_attempts": self.max_attempts,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        """Rebuild a spec persisted by :meth:`to_dict` (lenient legacy
        path — pre-wire job-store rows; new code uses :meth:`from_wire`).
        """
        if isinstance(data, dict) and data.get("partition") is not None:
            raise ServiceError(
                "job spec carries a partition block, but Ising models "
                "are always solved whole: the retired \"partition\" "
                "field must be null or absent"
            )
        try:
            return cls(
                config=FrameworkConfig.from_dict(data["config"]),
                workload=data.get("workload"),
                n_inputs=int(data.get("n_inputs", 9)),
                table=data.get("table"),
                ising=data.get("ising"),
                timeout_seconds=data.get("timeout_seconds"),
                max_attempts=int(data.get("max_attempts", 3)),
                checkpoint_every=data.get("checkpoint_every"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job spec: {exc}") from exc

    # -- canonical wire form (JobSpecV1) -------------------------------

    def to_wire(self) -> Dict:
        """The canonical versioned JSON shape (module docstring)."""
        return {
            "format": SPEC_FORMAT,
            "schema_version": SPEC_SCHEMA_VERSION,
            **self.to_dict(),
        }

    @classmethod
    def from_wire(cls, data: Dict) -> "JobSpec":
        """Parse the canonical wire form; strict, unlike :meth:`from_dict`.

        Rejects non-mappings, a wrong ``format``, a missing or
        unsupported ``schema_version``, unknown keys, and a missing
        ``config`` — all as :class:`~repro.errors.ServiceError` with a
        message safe to surface verbatim at an API boundary.
        """
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        declared = data.get("format")
        if declared != SPEC_FORMAT:
            raise ServiceError(
                f"not a {SPEC_FORMAT} document (format={declared!r})"
            )
        version = data.get("schema_version")
        if version != SPEC_SCHEMA_VERSION:
            raise ServiceError(
                f"unsupported job spec schema_version {version!r}; this "
                f"build speaks version {SPEC_SCHEMA_VERSION}"
            )
        known = {f.name for f in fields(cls)} | {
            "format", "schema_version", "partition",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown job spec fields: {', '.join(unknown)}"
            )
        if "config" not in data:
            raise ServiceError("job spec is missing its config")
        return cls.from_dict(
            {k: v for k, v in data.items()
             if k not in ("format", "schema_version")}
        )


def spec_from_stored(data: Dict) -> JobSpec:
    """Parse a persisted spec: wire form if tagged, legacy otherwise.

    Job-store rows written before the wire format carry no ``format``
    key; everything newer goes through the strict :meth:`JobSpec.from_wire`
    path so corruption surfaces as a clear error instead of a default.
    """
    if isinstance(data, dict) and "format" in data:
        return JobSpec.from_wire(data)
    return JobSpec.from_dict(data)


def artifact_key(table: TruthTable, config: FrameworkConfig) -> str:
    """Content-address a (problem, config) pair; see the module docs.

    The heavy arrays are digested separately (hex SHA-256 of their raw
    bytes) and embedded in a canonical sorted-keys JSON payload, whose
    digest is the key.  Float probabilities are hashed from their IEEE
    float64 bytes — no decimal round-tripping, so equality is exact.
    """
    outputs = np.packbits(table.outputs.astype(np.uint8).ravel())
    probabilities = np.ascontiguousarray(table.probabilities, dtype="<f8")
    payload = {
        "format": "repro-artifact-key",
        "key_version": 1,
        "n_inputs": table.n_inputs,
        "n_outputs": table.n_outputs,
        "outputs_sha256": hashlib.sha256(outputs.tobytes()).hexdigest(),
        "probabilities_sha256": hashlib.sha256(
            probabilities.tobytes()
        ).hexdigest(),
        "config": config.semantic_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_artifact_key(spec: JobSpec) -> str:
    """The content address of any spec, whatever its problem kind.

    Decomposition jobs hash (truth table, semantic config) via
    :func:`artifact_key`; Ising jobs hash (model, solver, semantic
    config) via :func:`repro.ising.wire.ising_artifact_key`.
    """
    if spec.ising is not None:
        from repro.ising.wire import ising_artifact_key

        return ising_artifact_key(spec.ising, spec.config)
    return artifact_key(spec.build_table(), spec.config)
