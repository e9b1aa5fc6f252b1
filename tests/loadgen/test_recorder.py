"""Stage summaries and knee detection on synthetic curves."""

import pytest

from repro.loadgen.generator import RequestSample, StageResult
from repro.loadgen.recorder import (
    build_report,
    find_knee,
    latency_summary,
    percentile,
    summarize_stage,
)
from repro.loadgen.report import render_load_report


def sample(index, *, status=201, ok=True, latency=0.02):
    return RequestSample(
        mix="t",
        index=index,
        scheduled=index * 0.1,
        sent=index * 0.1 + 0.005,
        latency=latency,
        open_loop_latency=latency + 0.005,
        status=status,
        ok=ok,
        deduplicated=ok and index % 2 == 1,
        job_id=f"job-{index}" if ok else None,
        error_code=None if ok else "x",
    )


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile(values, 100.0) == pytest.approx(4.0)
        assert percentile(values, 0.0) == pytest.approx(1.0)

    def test_degenerate_series(self):
        assert percentile([], 95.0) == 0.0
        assert percentile([7.0], 95.0) == 7.0

    def test_latency_summary_units(self):
        block = latency_summary([0.01, 0.02, 0.03])
        assert block["count"] == 3
        assert block["max_ms"] == pytest.approx(30.0)
        assert block["p50_ms"] == pytest.approx(20.0)
        assert latency_summary([]) is None


class TestSummarizeStage:
    def _stage(self, samples):
        return StageResult(
            mix="t",
            offered_rps=10.0,
            duration_seconds=1.0,
            elapsed_seconds=1.0,
            samples=samples,
        )

    def test_counts_partition(self):
        samples = (
            [sample(i) for i in range(6)]
            + [sample(6, status=429, ok=False)]
            + [sample(7, status=503, ok=False)]
            + [sample(8, status=400, ok=False)]
            + [sample(9, status=0, ok=False)]
        )
        row = summarize_stage(self._stage(samples))
        assert row["requests"] == 10
        assert row["ok"] == 6
        assert row["deduplicated"] == 3
        assert row["shed"] == 2
        assert row["rate_429"] == 1 and row["rate_503"] == 1
        assert row["connection_failures"] == 1
        assert row["shed_rate"] == pytest.approx(0.2)
        # 400, 429, 503 and the connection failure: 4 of 10 failed
        assert row["errors"] == 2
        assert row["error_rate"] == pytest.approx(4 / 10, abs=1e-4)
        # connection failures (status 0) carry no service latency
        assert row["service_latency"]["count"] == 9

    def test_completion_latency_block(self):
        row = summarize_stage(
            self._stage([sample(0)]), completion_latencies=[0.5, 1.5]
        )
        assert row["completion_latency"]["count"] == 2
        none_row = summarize_stage(self._stage([sample(0)]))
        assert none_row["completion_latency"] is None


def _row(rps, *, p95=20.0, achieved=None, shed=0.0):
    return {
        "offered_rps": rps,
        "achieved_rps": rps if achieved is None else achieved,
        "shed_rate": shed,
        "open_loop_latency": {"p95_ms": p95},
    }


class TestFindKnee:
    def test_unsaturated_sweep_reports_top_stage(self):
        knee = find_knee([_row(2), _row(4), _row(8)])
        assert knee["saturated"] is False
        assert knee["offered_rps"] == 8
        assert knee["first_violation_rps"] is None
        assert knee["reason"] == "all stages held"

    def test_latency_knee(self):
        knee = find_knee([_row(2), _row(4, p95=25.0), _row(8, p95=90.0)])
        assert knee["saturated"] is True
        assert knee["offered_rps"] == 4
        assert knee["first_violation_rps"] == 8
        assert "p95" in knee["reason"]

    def test_achieved_rate_knee(self):
        knee = find_knee([_row(2), _row(8, achieved=5.0)])
        assert knee["saturated"] is True
        assert knee["offered_rps"] == 2
        assert "achieved" in knee["reason"]

    def test_shed_knee(self):
        knee = find_knee([_row(2), _row(8, shed=0.4)])
        assert knee["saturated"] is True
        assert "shed rate" in knee["reason"]

    def test_empty_sweep(self):
        knee = find_knee([])
        assert knee == {
            "saturated": False,
            "offered_rps": None,
            "reason": "no stages",
        }


class TestReport:
    def test_build_and_render(self):
        samples = [sample(i) for i in range(4)]
        stage_row = summarize_stage(
            StageResult(
                mix="dedup-heavy",
                offered_rps=4.0,
                duration_seconds=1.0,
                elapsed_seconds=1.0,
                samples=samples,
            )
        )
        report = build_report(
            {
                "dedup-heavy": {
                    "summary": "pool of 4",
                    "stages": [stage_row],
                    "knee": find_knee([stage_row]),
                }
            },
            context={"gateway": "http://x"},
        )
        assert report["context"]["gateway"] == "http://x"
        assert report["slo"] is None and report["soak"] is None
        text = render_load_report(report)
        assert "mix dedup-heavy" in text
        assert "knee:" in text
