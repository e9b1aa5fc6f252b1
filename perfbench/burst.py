"""service-burst: one closed batch through the in-process service.

The batch is submitted to a ``DecompositionService`` and drained by its
default single worker thread (a second thread buys nothing under the
GIL).  Every 4th submission repeats the previous spec, so a quarter of
the jobs resolve from the artifact cache.  The unique specs are the six
Table-1 functions at :data:`common.SMALL_JOB` size over a fixed panel of
design seeds; the workload seed sets their submission order.  The batch
holds ``--seconds`` x :data:`JOBS_PER_SECOND` jobs, rounded to a
multiple of 4; a 2-vCPU x86 host drains it in about 0.7 x ``--seconds``.
"""

from __future__ import annotations

import time
from statistics import fmean, median

from common import (
    TABLE1_FUNCTIONS,
    check_against_direct,
    design_bytes,
    p90,
    shuffled,
    small_job_spec,
)

#: batch size per second of ``--seconds``
JOBS_PER_SECOND = 6.0
#: design seeds at and above this are the panel; the warm-up uses 0
PANEL_BASE = 100


def burst_specs(n_jobs, seed):
    """The batch: unique specs in seeded order, every 4th a repeat.

    The unique specs come in blocks of six, one per function and one
    design seed per block, with the functions in seeded order within
    each block; every stretch of the queue therefore holds the same mix,
    and the completion percentiles do not depend on which functions the
    seed happened to put first.
    """
    n_unique = n_jobs - n_jobs // 4
    unique = [
        small_job_spec(function, PANEL_BASE + block)
        for block in range(-(-n_unique // 6))
        for function in shuffled(TABLE1_FUNCTIONS, seed, f"burst{block}")
    ]
    unique = iter(unique[:n_unique])
    specs = []
    for index in range(n_jobs):
        specs.append(specs[-1] if index % 4 == 3 else next(unique))
    return specs


class BurstWorkload:
    """service-burst (see the module docs)."""

    name = "service-burst"

    def __init__(self, seed, seconds, run_dir, tiny=False):
        self.run_dir = run_dir
        n_jobs = 8 if tiny else 4 * max(
            1, round(seconds * JOBS_PER_SECOND / 4)
        )
        self.specs = burst_specs(n_jobs, seed)
        self.attempted = 0
        self.failed = 0
        self.records = []

    def setup(self):
        from repro.service import DecompositionService

        self._service_cls = DecompositionService
        self.service = DecompositionService(self.run_dir / "svc")
        # warm-up: one job through the whole service path, untimed
        self.service.submit(small_job_spec("cos", 0))
        self.service.run_until_drained()

    def _burst(self, service, specs):
        """Submit ``specs`` and drain; ``(seconds, records)``."""
        start = time.perf_counter()
        submitted = service.submit_batch(specs)
        service.run_until_drained()
        seconds = time.perf_counter() - start
        self.attempted += len(specs)
        records = [service.job(job.id) for job in submitted]
        self.failed += sum(
            1 for job in records if job.state != "done" or job.attempts != 1
        )
        return seconds, records

    def measure(self):
        seconds, self.records = self._burst(self.service, self.specs)
        return self.end_to_end(seconds)

    def end_to_end(self, seconds):
        records = self.records
        executed = [job for job in records if not job.cache_hit] or records
        completions = [job.finished_at - job.created_at for job in records]
        return {
            "s_per_function": fmean(job.runtime_seconds for job in executed),
            "med_mean": fmean(job.med for job in executed),
            "jobs_per_s": len(records) / seconds,
            "completion_p50_s": median(completions),
            "completion_p90_s": p90(completions),
        }

    def measure_traced(self, tracer):
        """Per-layer metrics.  The batch's first quarter runs untraced in
        a fresh service, then traced in another, which prices the
        tracing; the rest of the batch follows traced."""
        import layers

        quarter = 4 * max(1, len(self.specs) // 16)
        untraced, _ = self._burst(
            self._service_cls(self.run_dir / "svc-untraced"),
            self.specs[:quarter],
        )
        layers.install(tracer, service=True)
        traced, head = self._burst(self.service, self.specs[:quarter])
        rest_s, rest = self._burst(self.service, self.specs[quarter:])
        tracer.restore()
        self.records = head + rest
        metrics = layers.layer_metrics(tracer, traced + rest_s, self.records)
        metrics["trace.overhead_share"] = traced / untraced - 1.0
        return metrics

    def check(self):
        errors = []
        designs = {}
        for index, job in enumerate(self.records):
            if job.state != "done":
                errors.append(f"job {job.id} ended {job.state}: {job.error}")
                continue
            if job.attempts != 1:
                errors.append(f"job {job.id} took {job.attempts} attempts")
            designs[index] = self.service.fetch_design_dict(job.id)
        unique = []
        for index, design in designs.items():
            if index % 4 == 3:
                if index - 1 in designs and design_bytes(design) != (
                    design_bytes(designs[index - 1])
                ):
                    errors.append(f"cache-hit twin {index} differs from "
                                  f"job {index - 1}")
            else:
                unique.append((self.specs[index], design))
        for index in check_against_direct(unique):
            errors.append(f"unique design {index} differs from a direct "
                          "decompose")
        return errors
