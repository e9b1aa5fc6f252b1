"""Soak mode: byte-identical artifacts under chaos + load."""

from repro.gateway import GatewayClient
from repro.loadgen import default_soak_plan, get_mix, run_soak
from repro.resilience import FaultPlan, FaultRule


class TestRunSoak:
    def test_byte_identical_under_default_chaos(
        self, serving_gateway, tmp_path, load_config
    ):
        client = GatewayClient(serving_gateway.url)  # retrying client
        summary, stage = run_soak(
            client,
            get_mix("cache-cold"),
            load_config,
            rps=3.0,
            duration_seconds=1.0,
            baseline_dir=tmp_path / "baseline",
            concurrency=4,
            wait_timeout_seconds=120.0,
        )
        assert summary["requests"] == 3
        assert summary["completed"] == 3
        assert summary["failed"] == {}
        assert summary["mismatches"] == []
        assert summary["byte_identical"] is True
        assert summary["fault_plan"]["rules"]
        assert len(stage.samples) == 3

    def test_resubmission_repairs_dropped_arrivals(
        self, serving_gateway, tmp_path, load_config
    ):
        # drop every early submit on the floor: a no-retry soak client
        # exhausts its (zero) retries, and the post-chaos resubmission
        # pass must still drive every spec to an accepted job
        from repro.gateway import RetryPolicy

        client = GatewayClient(
            serving_gateway.url, retry=RetryPolicy(max_retries=0)
        )
        plan = FaultPlan(
            [FaultRule(site="client.connection_drop", at_calls=(1, 2))]
        )
        summary, _ = run_soak(
            client,
            get_mix("dedup-heavy"),
            load_config,
            rps=2.0,
            duration_seconds=1.0,
            baseline_dir=tmp_path / "baseline",
            plan=plan,
            concurrency=1,
            wait_timeout_seconds=120.0,
        )
        assert summary["resubmitted_after_chaos"] == 2
        assert summary["byte_identical"] is True

    def test_default_plan_shape(self):
        plan = default_soak_plan(seed=7)
        assert sorted(plan.rules) == [
            "client.connection_drop",
            "worker.crash",
        ]
