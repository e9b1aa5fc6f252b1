"""End-to-end: the harness driving a live in-process gateway."""

import pytest

from repro.gateway import GatewayClient, RetryPolicy
from repro.loadgen import (
    MixSubmitter,
    OpenLoopGenerator,
    SLOSpec,
    collect_completion_latencies,
    evaluate_slo,
    find_knee,
    get_mix,
    summarize_stage,
)

NO_RETRY = RetryPolicy(max_retries=0)


def run_stage(gateway, mix_name, config, *, rps, duration):
    mix = get_mix(mix_name)
    client = GatewayClient(gateway.url, retry=NO_RETRY)
    submitter = MixSubmitter(client, mix, config)
    generator = OpenLoopGenerator(
        submitter,
        mix_name=mix.name,
        concurrency=4,
    )
    stage = generator.run(rps=rps, duration_seconds=duration)
    return client, stage


class TestSweep:
    def test_dedup_heavy_curve(self, serving_gateway, load_config):
        client, stage = run_stage(
            serving_gateway,
            "dedup-heavy",
            load_config,
            rps=8.0,
            duration=1.0,
        )
        assert len(stage.samples) == 8
        assert all(s.ok for s in stage.samples)
        # the pool has 4 distinct specs, so the second lap dedups
        assert sum(1 for s in stage.samples if s.deduplicated) == 4
        assert len(stage.job_ids()) == 4

        latencies = collect_completion_latencies(
            client, stage.job_ids(), timeout_seconds=60.0
        )
        assert len(latencies) == 4
        assert all(lat >= 0.0 for lat in latencies)

        row = summarize_stage(stage, completion_latencies=latencies)
        assert row["ok"] == 8 and row["errors"] == 0
        assert row["service_latency"]["count"] == 8
        assert row["completion_latency"]["count"] == 4

        knee = find_knee([row])
        assert knee["saturated"] is False
        assert knee["offered_rps"] == row["offered_rps"]

    def test_slo_verdict_over_live_stage(
        self, serving_gateway, load_config
    ):
        _, stage = run_stage(
            serving_gateway,
            "cache-cold",
            load_config,
            rps=4.0,
            duration=1.0,
        )
        verdict = evaluate_slo(
            SLOSpec(availability=0.9, latency_p95_ms=30_000.0), [stage]
        )
        assert verdict["availability"]["observed"] == 1.0
        assert verdict["ok"]
