"""Canonical raw Ising problem documents built from real workloads.

The ``mixed-sizes`` load mix, the service tests and the README's
``repro submit --ising-model`` walk-through all need the same thing: a
*real* core-COP Ising model, not a random graph, that still decodes
back to an application object.  :func:`separate_mode_instance` builds
one from a registered workload: one output component laid out as a
Boolean matrix under a fixed free/bound input split, weighted by the
separate mode (Eq. 9), densified, and wrapped as a submittable
``repro-ising-problem`` with a ``column_setting`` decode hint.

Spin count is ``2 * 2**free_size + 2**(n_inputs - free_size)``, so the
width is tunable without changing problem character::

    n_inputs=5,  free_size=2  ->  16 spins
    n_inputs=6,  free_size=2  ->  24 spins
    n_inputs=10, free_size=3  ->  144 spins

Run as a module to write the problem JSON for shell pipelines::

    python -m repro.loadgen.instances --n-inputs 6 --free-size 2 \\
        --out problem.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from repro.boolean.boolean_matrix import BooleanMatrix
from repro.boolean.partition import InputPartition
from repro.core.ising_formulation import separate_mode_weights
from repro.errors import ConfigurationError
from repro.ising.structured import BipartiteDecompositionModel
from repro.ising.wire import make_problem
from repro.workloads.registry import build_workload

__all__ = ["separate_mode_instance", "main"]


def separate_mode_instance(
    workload: str = "cos",
    n_inputs: int = 8,
    free_size: int = 3,
    component: int = 0,
    solver: str = "bsb",
) -> Dict:
    """One component's separate-mode COP as a submittable problem doc.

    The lowest ``free_size`` input variables form the free set (rows),
    the rest the bound set (columns) — a fixed convention, so the same
    arguments always produce the byte-identical document (and hence
    the same artifact keys downstream).
    """
    if not 0 < free_size < n_inputs:
        raise ConfigurationError(
            f"free_size must lie strictly between 0 and n_inputs="
            f"{n_inputs}, got {free_size}"
        )
    table = build_workload(workload, n_inputs=n_inputs).table
    partition = InputPartition(
        free=range(free_size),
        bound=range(free_size, n_inputs),
        n_inputs=n_inputs,
    )
    matrix = BooleanMatrix.from_function(table, component, partition)
    weights, offset = separate_mode_weights(matrix)
    model = BipartiteDecompositionModel(weights, offset).to_dense()
    decode = {
        "kind": "column_setting",
        "n_rows": partition.n_rows,
        "n_cols": partition.n_cols,
    }
    return make_problem(model, solver=solver, decode=decode)


def main(argv: Optional[list] = None) -> int:
    """Write a problem document to ``--out`` (or stdout)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen.instances",
        description=(
            "Emit a canonical separate-mode Ising problem document"
        ),
    )
    parser.add_argument("--workload", default="cos")
    parser.add_argument("--n-inputs", type=int, default=8)
    parser.add_argument("--free-size", type=int, default=3)
    parser.add_argument("--component", type=int, default=0)
    parser.add_argument("--solver", default="bsb")
    parser.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )
    args = parser.parse_args(argv)
    problem = separate_mode_instance(
        workload=args.workload,
        n_inputs=args.n_inputs,
        free_size=args.free_size,
        component=args.component,
        solver=args.solver,
    )
    text = json.dumps(problem, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
