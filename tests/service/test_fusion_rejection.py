"""Fusion exclusions are accounted for, never silently skipped.

Before this existed, a batch whose jobs could not share a sweep
schedule simply ran unfused with no trace — an operator watching for
fusion wins had no way to tell "nothing batched" from "batched but
rejected".  Now every excluded job increments ``fusion_rejected_total``
and the first exclusion per reason logs once.
"""

import logging

import pytest

from repro.core import CoreSolverConfig, FrameworkConfig
from repro.obs.logconfig import get_logger, reset_warn_once, warn_once
from repro.obs.metrics import get_metrics
from repro.loadgen.instances import separate_mode_instance
from repro.service import DecompositionService, JobSpec, SchedulerPolicy
from repro.service.worker import _fusion_rejection

FAST_POLICY = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
)


def _config(**overrides):
    base = dict(
        mode="joint",
        free_size=2,
        n_partitions=2,
        n_rounds=1,
        seed=3,
        solver=CoreSolverConfig(max_iterations=200, n_replicas=2),
    )
    base.update(overrides)
    return FrameworkConfig(**base)


class TestRejectionReasons:
    def test_ising_specs_never_fuse(self):
        spec = JobSpec(
            config=_config(),
            ising=separate_mode_instance(
                workload="cos", n_inputs=6, free_size=2
            ),
        )
        assert _fusion_rejection(spec) == "ising-problem"

    def test_unbatched_config_rejected(self):
        spec = JobSpec(workload="cos", n_inputs=6, config=_config())
        assert _fusion_rejection(spec) == "config-not-batched"

    def test_multiprocess_sweep_rejected(self):
        spec = JobSpec(
            workload="cos", n_inputs=6,
            config=_config(batched=True, n_workers=2),
        )
        assert _fusion_rejection(spec) == "multiprocess-sweep"

    def test_batched_single_process_is_fusable(self):
        spec = JobSpec(
            workload="cos", n_inputs=6, config=_config(batched=True)
        )
        assert _fusion_rejection(spec) is None


class TestBatchAccounting:
    def test_unfusable_batch_counts_every_exclusion(
        self, tmp_path, caplog
    ):
        reset_warn_once()
        before = get_metrics().counter("fusion_rejected_total").value
        service = DecompositionService(
            tmp_path / "svc",
            policy=FAST_POLICY,
            batch_jobs=2,
            n_workers=1,
        )
        specs = [
            JobSpec(workload="cos", n_inputs=6, config=_config()),
            JobSpec(workload="erf", n_inputs=6, config=_config()),
        ]
        service.submit_batch(specs)
        with caplog.at_level(logging.WARNING, logger="repro"):
            service.run_until_drained(timeout=300)
        after = get_metrics().counter("fusion_rejected_total").value
        assert after - before == 2
        messages = [
            r.getMessage() for r in caplog.records
            if "sweep fusion excluded" in r.getMessage()
        ]
        assert len(messages) == 1  # warn-once, not per-job
        assert "config-not-batched" in messages[0]

    def test_warn_once_is_once_until_reset(self):
        logger = get_logger("repro.tests.fusion")
        reset_warn_once()
        assert warn_once(logger, "k", "message %s", 1)
        assert not warn_once(logger, "k", "message %s", 2)
        reset_warn_once()
        assert warn_once(logger, "k", "message %s", 3)
