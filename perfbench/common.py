"""Helpers and the end-to-end metric catalog shared by the benchmark.

The helpers that import ``repro`` run inside a workload process, after
``run.py`` has put the checkout's ``src`` directory on ``PYTHONPATH`` and
pinned the BLAS thread counts.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess

#: the job size the service and fleet workloads submit: the size
#: ``repro loadtest`` uses (n=6, free 2, P=2, R=1, 200 iterations,
#: 2 replicas; about 0.12 s when run directly on one core)
SMALL_JOB = dict(n_inputs=6, free_size=2, n_partitions=2, n_rounds=1,
                 max_iterations=200, n_replicas=2)

#: ``name -> (unit, better)`` of every end-to-end metric
END_TO_END = {
    "setup_s": ("s", "lower"),
    "s_per_function": ("s", "lower"),
    "med_mean": ("LSB", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "completion_p50_s": ("s", "lower"),
    "completion_p90_s": ("s", "lower"),
}

#: processes that recompute served designs for the correctness check
CHECK_WORKERS = 2

#: the six Table-1 functions
TABLE1_FUNCTIONS = ("cos", "tan", "exp", "ln", "erf", "denoise")


def p90(values):
    """90th percentile, interpolated between the two nearest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def shuffled(items, seed, salt):
    """``items`` in an order fixed by the workload seed."""
    order = list(items)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


def stop_process(process, timeout=20.0) -> None:
    """SIGTERM, then SIGKILL if it does not exit in time; always reaped."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def design_bytes(design) -> bytes:
    """Canonical bytes of a design document (the equivalence check)."""
    return json.dumps(design, sort_keys=True).encode("utf-8")


def small_job_spec(workload, seed):
    """A service job of :data:`SMALL_JOB` size (built here from the seed,
    not from ``repro.loadgen``, whose mixes later changes may edit)."""
    from repro.core import CoreSolverConfig, FrameworkConfig
    from repro.service import JobSpec

    config = FrameworkConfig(
        mode="joint",
        free_size=SMALL_JOB["free_size"],
        n_partitions=SMALL_JOB["n_partitions"],
        n_rounds=SMALL_JOB["n_rounds"],
        seed=seed,
        solver=CoreSolverConfig(
            max_iterations=SMALL_JOB["max_iterations"],
            n_replicas=SMALL_JOB["n_replicas"],
        ),
    )
    return JobSpec(workload=workload, n_inputs=SMALL_JOB["n_inputs"],
                   config=config)


def direct_design(spec):
    """The design a direct ``decompose`` of ``spec`` produces."""
    from repro import IsingDecomposer
    from repro.serialization import result_to_dict

    result = IsingDecomposer(spec.config).decompose(spec.build_table())
    return result_to_dict(result)


def check_against_direct(specs_and_designs):
    """Indices whose served design differs from a direct decompose.

    ``specs_and_designs`` holds ``(spec, served_design_dict)`` pairs.
    The direct decompositions run outside every timed section, in
    :data:`CHECK_WORKERS` fresh processes.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    specs = [spec for spec, _ in specs_and_designs]
    with ProcessPoolExecutor(
        max_workers=CHECK_WORKERS,
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        direct = list(pool.map(direct_design, specs, chunksize=4))
    return [
        index
        for index, ((_, served), expected) in enumerate(
            zip(specs_and_designs, direct)
        )
        if design_bytes(expected) != design_bytes(served)
    ]
