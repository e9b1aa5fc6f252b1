"""Ising problems and solve results as portable JSON job payloads.

Besides truth tables to decompose, the service runs a second problem
kind: *solve this raw Ising model with that registered solver*.  This
module defines the canonical JSON shapes such jobs travel in, so an
Ising problem rides the existing queue/gateway/fleet machinery as an
ordinary :class:`~repro.service.spec.JobSpec` and its result is a
content-addressed artifact like any design document.

Three document formats, all schema-versioned and strict (unknown keys
rejected with :class:`~repro.errors.ServiceError`):

``repro-ising-model``
    A dense model as raw-byte hex fields: little-endian float64 biases,
    the *upper-triangle nonzero* couplings as (rows, cols, values)
    triplets, and the objective offset.  Hashing the canonical dump
    gives :func:`model_sha256` — exact content addressing with no
    decimal round-tripping.
``repro-ising-problem``
    ``{solver name, model, optional decode hint}``.  The ``decode``
    hint records how spins map back to an application object (today:
    ``column_setting`` with its ``n_rows``/``n_cols``) — verification
    metadata only, deliberately *excluded* from the artifact key.
``repro-ising-result``
    A serialized :class:`~repro.ising.solvers.base.SolveResult`:
    packed spin bits plus the exact float64 energy/objective and the
    uniform metadata contract.

:func:`ising_artifact_key` is the content address of one Ising job:
SHA-256 over ``{model hash, solver name, semantic config}``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

import numpy as np

from repro.core.config import FrameworkConfig
from repro.errors import ServiceError
from repro.ising.model import DenseIsingModel, IsingModel
from repro.ising.solvers.base import (
    SolveResult,
    binary_to_spins,
    spins_to_binary,
)

__all__ = [
    "MODEL_FORMAT",
    "PROBLEM_FORMAT",
    "RESULT_FORMAT",
    "ISING_SCHEMA_VERSION",
    "model_to_dict",
    "model_from_dict",
    "model_sha256",
    "make_problem",
    "validate_problem",
    "problem_model",
    "build_problem_solver",
    "solve_result_to_dict",
    "solve_result_from_dict",
    "ising_artifact_key",
]

MODEL_FORMAT = "repro-ising-model"
PROBLEM_FORMAT = "repro-ising-problem"
RESULT_FORMAT = "repro-ising-result"
#: one version number for all three wire shapes in this module
ISING_SCHEMA_VERSION = 1

#: decode hints this build understands (spins -> application object)
_DECODE_KINDS = ("column_setting",)


def _require_envelope(data: Dict, fmt: str, known: frozenset) -> None:
    """Shared strict-envelope check for the three document shapes."""
    if not isinstance(data, dict):
        raise ServiceError(
            f"{fmt} document must be a JSON object, got "
            f"{type(data).__name__}"
        )
    declared = data.get("format")
    if declared != fmt:
        raise ServiceError(
            f"not a {fmt} document (format={declared!r})"
        )
    version = data.get("schema_version")
    if version != ISING_SCHEMA_VERSION:
        raise ServiceError(
            f"unsupported {fmt} schema_version {version!r}; this build "
            f"speaks version {ISING_SCHEMA_VERSION}"
        )
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServiceError(
            f"unknown {fmt} fields: {', '.join(unknown)}"
        )


def _hex_array(data: Dict, field: str, dtype: str) -> np.ndarray:
    try:
        return np.frombuffer(bytes.fromhex(data[field]), dtype=dtype)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            f"malformed ising model field {field!r}: {exc}"
        ) from exc


# -- model documents ---------------------------------------------------

def model_to_dict(model: IsingModel) -> Dict:
    """Serialize a model (dense or structured) to the wire shape.

    Couplings travel as the strict upper triangle's nonzeros only — the
    matrix is symmetric with a zero diagonal by the
    :class:`DenseIsingModel` contract, so this is lossless and keeps
    sparse models small on the wire.
    """
    dense = (
        model if isinstance(model, DenseIsingModel) else model.to_dense()
    )
    couplings = dense.couplings
    rows, cols = np.nonzero(np.triu(couplings, k=1))
    return {
        "format": MODEL_FORMAT,
        "schema_version": ISING_SCHEMA_VERSION,
        "n_spins": int(dense.n_spins),
        "offset": float(dense.offset),
        "biases_hex": np.ascontiguousarray(
            dense.biases, dtype="<f8"
        ).tobytes().hex(),
        "coupling_rows_hex": np.ascontiguousarray(
            rows, dtype="<i4"
        ).tobytes().hex(),
        "coupling_cols_hex": np.ascontiguousarray(
            cols, dtype="<i4"
        ).tobytes().hex(),
        "coupling_values_hex": np.ascontiguousarray(
            couplings[rows, cols], dtype="<f8"
        ).tobytes().hex(),
    }


_MODEL_KEYS = frozenset(
    {
        "format",
        "schema_version",
        "n_spins",
        "offset",
        "biases_hex",
        "coupling_rows_hex",
        "coupling_cols_hex",
        "coupling_values_hex",
    }
)


def model_from_dict(data: Dict) -> DenseIsingModel:
    """Rebuild a :class:`DenseIsingModel` from :func:`model_to_dict`."""
    _require_envelope(data, MODEL_FORMAT, _MODEL_KEYS)
    try:
        n = int(data["n_spins"])
        offset = float(data["offset"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed ising model: {exc}") from exc
    biases = _hex_array(data, "biases_hex", "<f8")
    rows = _hex_array(data, "coupling_rows_hex", "<i4")
    cols = _hex_array(data, "coupling_cols_hex", "<i4")
    values = _hex_array(data, "coupling_values_hex", "<f8")
    if biases.shape != (n,):
        raise ServiceError(
            f"ising model declares {n} spins but carries "
            f"{biases.shape[0]} biases"
        )
    if not (rows.shape == cols.shape == values.shape):
        raise ServiceError(
            "ising model coupling triplets have mismatched lengths"
        )
    if rows.size and (
        rows.min() < 0 or cols.max() >= n or (rows >= cols).any()
    ):
        raise ServiceError(
            "ising model couplings must be strict upper-triangle "
            "indices inside the spin range"
        )
    couplings = np.zeros((n, n))
    couplings[rows, cols] = values
    couplings[cols, rows] = values
    return DenseIsingModel(
        np.asarray(biases, dtype=float), couplings, offset
    )


def model_sha256(data: Dict) -> str:
    """SHA-256 of a model document's canonical sorted-keys JSON dump.

    The heavy fields are already deterministic hex strings of raw IEEE
    bytes, so equal models hash equal with no float formatting hazards.
    """
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ServiceError(
            f"model_sha256 expects a {MODEL_FORMAT} document"
        )
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- problem documents -------------------------------------------------

def make_problem(
    model: IsingModel,
    solver: str = "bsb",
    decode: Optional[Dict] = None,
) -> Dict:
    """Wrap ``model`` as a submittable Ising-problem document."""
    doc = {
        "format": PROBLEM_FORMAT,
        "schema_version": ISING_SCHEMA_VERSION,
        "solver": str(solver),
        "model": model_to_dict(model),
        "decode": dict(decode) if decode is not None else None,
    }
    return validate_problem(doc)


_PROBLEM_KEYS = frozenset(
    {"format", "schema_version", "solver", "model", "decode"}
)


def validate_problem(data: Dict) -> Dict:
    """Strictly validate a problem document; returns it unchanged.

    Deep-validates the embedded model (a rebuild is the validation) and
    the optional decode hint.  Raises
    :class:`~repro.errors.ServiceError` on any malformation — safe to
    surface verbatim at the gateway boundary.
    """
    _require_envelope(data, PROBLEM_FORMAT, _PROBLEM_KEYS)
    solver = data.get("solver")
    if not isinstance(solver, str) or not solver:
        raise ServiceError(
            "ising problem needs a non-empty solver name"
        )
    model = model_from_dict(data.get("model"))
    decode = data.get("decode")
    if decode is not None:
        if not isinstance(decode, dict):
            raise ServiceError("ising decode hint must be an object")
        kind = decode.get("kind")
        if kind not in _DECODE_KINDS:
            raise ServiceError(
                f"unknown ising decode kind {kind!r}; this build "
                f"understands {', '.join(_DECODE_KINDS)}"
            )
        unknown = sorted(set(decode) - {"kind", "n_rows", "n_cols"})
        if unknown:
            raise ServiceError(
                f"unknown ising decode fields: {', '.join(unknown)}"
            )
        try:
            n_rows = int(decode["n_rows"])
            n_cols = int(decode["n_cols"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed ising decode hint: {exc}"
            ) from exc
        if n_rows < 1 or n_cols < 1:
            raise ServiceError(
                "ising decode dimensions must be positive"
            )
        if 2 * n_rows + n_cols != model.n_spins:
            raise ServiceError(
                f"column_setting decode of ({n_rows} rows, {n_cols} "
                f"cols) needs {2 * n_rows + n_cols} spins but the "
                f"model has {model.n_spins}"
            )
    return data


def problem_model(data: Dict) -> DenseIsingModel:
    """The dense model of a (validated) problem document."""
    return model_from_dict(data["model"])


def build_problem_solver(problem: Dict, config: FrameworkConfig):
    """Construct the solver a problem document names.

    ``bsb`` — the paper's core solver and the problem default — is
    configured from ``config.solver`` exactly like the
    core-COP path (stop criterion, pump ramp, replicas, backend), so an
    Ising job's artifact key can hash the same semantic config.  Every
    other registry name is constructed with its registry defaults.
    """
    from repro.ising.schedules import LinearPump
    from repro.ising.solvers.registry import make_solver
    from repro.ising.stop_criteria import (
        EnergyVarianceStop,
        FixedIterations,
    )

    name = problem["solver"]
    if name != "bsb":
        return make_solver(name)
    cfg = config.solver
    if cfg.use_dynamic_stop:
        stop = EnergyVarianceStop(
            sample_every=cfg.sample_every,
            window=cfg.window,
            threshold=cfg.variance_threshold,
            max_iterations=cfg.max_iterations,
            min_iterations=cfg.resolved_ramp_iterations,
        )
    else:
        stop = FixedIterations(
            cfg.max_iterations, sample_every=cfg.sample_every
        )
    return make_solver(
        "bsb",
        stop=stop,
        dt=cfg.dt,
        a0=cfg.a0,
        n_replicas=cfg.n_replicas,
        pump=LinearPump(cfg.a0, cfg.resolved_ramp_iterations),
        backend=cfg.backend,
        trace_every=cfg.trace_every,
        numeric_guard=cfg.numeric_guard,
    )


# -- result documents --------------------------------------------------

def _json_safe(value):
    """Recursively coerce numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def solve_result_to_dict(result: SolveResult) -> Dict:
    """Serialize a :class:`SolveResult` to the artifact wire shape."""
    spins = np.asarray(result.spins, dtype=float).ravel()
    packed = np.packbits(spins_to_binary(spins))
    return {
        "format": RESULT_FORMAT,
        "schema_version": ISING_SCHEMA_VERSION,
        "n_spins": int(spins.shape[0]),
        "spins_hex": packed.tobytes().hex(),
        "energy": float(result.energy),
        "objective": float(result.objective),
        "n_iterations": int(result.n_iterations),
        "stop_reason": str(result.stop_reason),
        "runtime_seconds": float(result.runtime_seconds),
        "energy_trace": [float(e) for e in result.energy_trace],
        "metadata": _json_safe(dict(result.metadata)),
    }


_RESULT_KEYS = frozenset(
    {
        "format",
        "schema_version",
        "n_spins",
        "spins_hex",
        "energy",
        "objective",
        "n_iterations",
        "stop_reason",
        "runtime_seconds",
        "energy_trace",
        "metadata",
    }
)


def solve_result_from_dict(data: Dict) -> SolveResult:
    """Rebuild a :class:`SolveResult` from :func:`solve_result_to_dict`."""
    _require_envelope(data, RESULT_FORMAT, _RESULT_KEYS)
    try:
        n = int(data["n_spins"])
        packed = np.frombuffer(
            bytes.fromhex(data["spins_hex"]), dtype=np.uint8
        )
        bits = np.unpackbits(packed, count=n)
        return SolveResult(
            spins=binary_to_spins(bits),
            energy=float(data["energy"]),
            objective=float(data["objective"]),
            n_iterations=int(data["n_iterations"]),
            stop_reason=str(data["stop_reason"]),
            energy_trace=[float(e) for e in data.get("energy_trace", [])],
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),
            metadata=dict(data.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed ising result: {exc}") from exc


# -- content addressing ------------------------------------------------

def ising_artifact_key(problem: Dict, config: FrameworkConfig) -> str:
    """Content-address one Ising job (module docstring).

    The ``decode`` hint is deliberately excluded — it never changes the
    seeded solve, so two submissions differing only in decode metadata
    share the artifact.  The payload keeps a constant
    ``"partition": None`` so keys match those of artifacts stored by
    builds whose payload carried an optional partition block.
    """
    payload = {
        "format": "repro-ising-key",
        "key_version": 1,
        "model_sha256": model_sha256(problem["model"]),
        "solver": problem["solver"],
        "config": config.semantic_dict(),
        "partition": None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
