#!/usr/bin/env python
"""Design-space study: accuracy vs. LUT storage across methods.

The motivating use case of the paper: an error-tolerant accelerator
wants complex functions in small LUTs.  This example decomposes an
``exp(x)`` LUT with all four methods the paper compares — the DALTA
heuristic, DALTA-ILP (branch and bound under a time budget), BA
(simulated annealing), and the proposed Ising/bSB solver — and prints
the accuracy/storage/runtime trade-off each achieves, plus the Fig. 1
style storage story.

DALTA-ILP gets 0.25 s per core COP.  The budget binds on every one of
its 108 COPs (9 outputs x 6 partitions x 2 rounds), so its runtime
scales with the budget and its MED depends on the budget and the machine.
On a 2-vCPU x86 host it printed MED 16.91 in 34 s, against 16.73 in
205 s with 2 s per COP; the other rows and the ranking did not change.

Run:  python examples/approximate_lut_design.py
"""

import time

from repro.analysis import format_table
from repro.analysis.experiments import (
    ba_method,
    dalta_ilp_method,
    dalta_method,
    proposed_method,
)
from repro.core import CoreSolverConfig, FrameworkConfig
from repro.lut import build_cascade_design, cascade_cost_report
from repro.workloads import build_workload


def main() -> None:
    workload = build_workload("exp", n_inputs=9)
    table = workload.table
    flat_bits = table.n_outputs * table.size
    print(
        f"workload: exp(x) on [0, 3], n = {table.n_inputs}, "
        f"m = {table.n_outputs}  ->  flat LUT = {flat_bits} bits"
    )

    methods = [
        dalta_method(),
        dalta_ilp_method(time_limit=0.25),
        ba_method(n_moves=400),
        proposed_method(CoreSolverConfig(max_iterations=800, n_replicas=4)),
    ]
    config = FrameworkConfig(
        mode="joint",
        free_size=workload.free_size,
        n_partitions=6,
        n_rounds=2,
        seed=0,
    )

    rows = []
    for method in methods:
        start = time.perf_counter()
        result = method.run(table, config)
        elapsed = time.perf_counter() - start
        design = build_cascade_design(result)
        report = cascade_cost_report(design)
        rows.append(
            [
                method.name,
                result.med,
                report.cascade_bits,
                report.compression_ratio,
                elapsed,
            ]
        )

    print()
    print(
        format_table(
            ["method", "MED", "cascade bits", "compression", "time (s)"],
            rows,
        )
    )
    print()
    print(
        "Every method lands on the same cascade storage (it is fixed by"
        " the partition sizes); they differ in how much accuracy that"
        " storage costs — the column the paper's Table 1 ranks."
    )


if __name__ == "__main__":
    main()
