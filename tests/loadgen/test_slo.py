"""SLO parsing and burn-rate evaluation over synthetic samples."""

import pytest

from repro.errors import ConfigurationError
from repro.loadgen.generator import RequestSample, StageResult
from repro.loadgen.slo import SLOSpec, evaluate_slo, parse_slo


def sample(
    index,
    scheduled,
    *,
    ok=True,
    status=201,
    latency=0.01,
):
    return RequestSample(
        mix="t",
        index=index,
        scheduled=scheduled,
        sent=scheduled,
        latency=latency,
        open_loop_latency=latency,
        status=status if not ok else status,
        ok=ok,
        deduplicated=False,
        job_id=f"job-{index}" if ok else None,
        error_code=None if ok else "unavailable",
    )


def stage(samples, rps=10.0):
    return StageResult(
        mix="t",
        offered_rps=rps,
        duration_seconds=len(samples) / rps if rps else 0.0,
        elapsed_seconds=len(samples) / rps if rps else 0.0,
        samples=samples,
    )


class TestParse:
    def test_round_trip_with_aliases(self):
        slo = parse_slo("availability=0.995, p95_ms=500, window_s=2, max_burn=3")
        assert slo == SLOSpec(
            availability=0.995,
            latency_p95_ms=500.0,
            window_seconds=2.0,
            max_burn_rate=3.0,
        )

    def test_defaults_when_keys_omitted(self):
        assert parse_slo("p95_ms=250") == SLOSpec(latency_p95_ms=250.0)
        assert parse_slo("") == SLOSpec()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("p96_ms=1", "unknown SLO key"),
            ("availability", "malformed SLO clause"),
            ("p95_ms=fast", "must be a number"),
        ],
    )
    def test_rejects_bad_specs(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_slo(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"availability": 1.0},
            {"availability": 0.0},
            {"latency_p95_ms": 0.0},
            {"window_seconds": -1.0},
            {"max_burn_rate": 0.0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SLOSpec(**kwargs)


class TestEvaluate:
    def test_all_green(self):
        slo = SLOSpec(availability=0.9, latency_p95_ms=100.0)
        verdict = evaluate_slo(
            slo, [stage([sample(i, i * 0.1) for i in range(20)])]
        )
        assert verdict["ok"]
        assert verdict["availability"]["observed"] == 1.0
        assert verdict["latency"]["observed_p95_ms"] == pytest.approx(
            10.0
        )
        assert verdict["burn_rate"]["max"] == 0.0

    def test_availability_breach(self):
        slo = SLOSpec(availability=0.9, max_burn_rate=1000.0)
        samples = [
            sample(i, i * 0.1, ok=i % 2 == 0, status=503)
            for i in range(20)
        ]
        verdict = evaluate_slo(slo, [stage(samples)])
        assert not verdict["availability"]["ok"]
        assert verdict["availability"]["observed"] == pytest.approx(0.5)
        assert not verdict["ok"]

    def test_burst_fails_burn_but_not_availability(self):
        # 100 requests over two 5s windows; 6 failures packed into the
        # second window.  Overall availability 0.94 >= 0.9 target, but
        # the hot window burns 12%/10% = 1.2x > 1x — burn catches it.
        slo = SLOSpec(
            availability=0.9, window_seconds=5.0, max_burn_rate=1.0
        )
        samples = [sample(i, i * 0.1) for i in range(50)] + [
            sample(50 + i, 5.0 + i * 0.1, ok=i >= 6, status=503)
            for i in range(50)
        ]
        verdict = evaluate_slo(slo, [stage(samples)])
        assert verdict["availability"]["ok"]
        assert verdict["burn_rate"]["max"] == pytest.approx(1.2)
        assert not verdict["burn_rate"]["ok"]
        assert not verdict["ok"]

    def test_latency_breach(self):
        slo = SLOSpec(latency_p95_ms=50.0)
        verdict = evaluate_slo(
            slo,
            [stage([sample(i, i * 0.1, latency=0.2) for i in range(5)])],
        )
        assert not verdict["latency"]["ok"]
        assert not verdict["ok"]

    def test_windows_never_straddle_stages(self):
        # one failure in each of two stages: bucketed separately, each
        # window's rate is 1/10, not a merged 2/20
        slo = SLOSpec(
            availability=0.9, window_seconds=60.0, max_burn_rate=1.0
        )
        mk = lambda: [
            sample(i, i * 0.1, ok=i != 0, status=503) for i in range(10)
        ]
        verdict = evaluate_slo(slo, [stage(mk()), stage(mk())])
        assert verdict["burn_rate"]["windows"] == 2
        assert verdict["burn_rate"]["max"] == pytest.approx(1.0)
        assert verdict["burn_rate"]["ok"]

    def test_empty_series(self):
        verdict = evaluate_slo(SLOSpec(), [])
        assert verdict["ok"]
        assert verdict["availability"]["requests"] == 0
