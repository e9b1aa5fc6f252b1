"""Open-loop generator semantics with an injected clock.

All tests here run with ``concurrency=1`` so a single sender thread
interacts with the fake clock deterministically.
"""

from types import SimpleNamespace

import pytest

from repro.errors import GatewayError
from repro.loadgen.generator import (
    MixSubmitter,
    OpenLoopGenerator,
    RequestSample,
    StageResult,
    SubmitOutcome,
)
from repro.loadgen.mixes import get_mix


class FakeClock:
    """Monotonic clock where sleeping *is* the passage of time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds

    def advance(self, seconds):
        self.now += seconds


def _ok(index):
    return SubmitOutcome(status=201, ok=True, job_id=f"job-{index}")


class TestScheduling:
    def test_arrivals_follow_the_rate_clock(self):
        clock = FakeClock()
        calls = []

        def submit(index):
            calls.append(index)
            return _ok(index)

        gen = OpenLoopGenerator(
            submit, concurrency=1, clock=clock, sleep=clock.sleep
        )
        stage = gen.run(rps=10.0, duration_seconds=1.0)
        assert calls == list(range(10))  # one attempt per arrival
        assert [s.scheduled for s in stage.samples] == pytest.approx(
            [i / 10.0 for i in range(10)]
        )
        # an idle sender sends exactly on schedule
        assert all(s.lateness == 0.0 for s in stage.samples)

    def test_slow_responses_do_not_shift_the_schedule(self):
        clock = FakeClock()

        def submit(index):
            clock.advance(0.25)  # server takes 0.25s per request
            return _ok(index)

        gen = OpenLoopGenerator(
            submit, concurrency=1, clock=clock, sleep=clock.sleep
        )
        stage = gen.run(rps=10.0, duration_seconds=0.5)
        # the schedule is fixed up front — slowness never re-times it
        assert [s.scheduled for s in stage.samples] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4]
        )
        # every arrival is accounted for (no coordinated omission) and
        # the backlog shows up as recorded lateness, not dropped rows
        assert len(stage.samples) == 5
        late = stage.samples[-1]
        assert late.lateness == pytest.approx(0.6)  # sent 1.0, due 0.4
        assert late.latency == pytest.approx(0.25)
        assert late.open_loop_latency == pytest.approx(
            late.latency + late.lateness
        )

    def test_rejects_bad_parameters(self):
        gen = OpenLoopGenerator(_ok, concurrency=1)
        with pytest.raises(ValueError, match="rps"):
            gen.run(rps=0, duration_seconds=1.0)
        with pytest.raises(ValueError, match="concurrency"):
            OpenLoopGenerator(_ok, concurrency=0)


class TestStageResult:
    def _stage(self, samples):
        return StageResult(
            mix="t",
            offered_rps=4.0,
            duration_seconds=1.0,
            elapsed_seconds=2.0,
            samples=samples,
        )

    def _sample(self, **overrides):
        base = dict(
            mix="t",
            index=0,
            scheduled=0.0,
            sent=0.0,
            latency=0.01,
            open_loop_latency=0.01,
            status=201,
            ok=True,
            deduplicated=False,
            job_id="job-a",
            error_code=None,
        )
        base.update(overrides)
        return RequestSample(**base)

    def test_achieved_counts_any_response(self):
        stage = self._stage(
            [
                self._sample(),
                self._sample(status=429, ok=False, job_id=None),
                self._sample(status=0, ok=False, job_id=None),
            ]
        )
        assert stage.achieved_rps == pytest.approx(1.0)  # 2 / 2s
        assert stage.accepted_rps == pytest.approx(0.5)

    def test_job_ids_are_deduplicated_in_order(self):
        stage = self._stage(
            [
                self._sample(job_id="job-b"),
                self._sample(job_id="job-a"),
                self._sample(job_id="job-b", deduplicated=True),
                self._sample(status=503, ok=False, job_id=None),
            ]
        )
        assert stage.job_ids() == ["job-b", "job-a"]


class TestMixSubmitter:
    def test_maps_submit_and_gateway_errors(self, load_config):
        mix = get_mix("dedup-heavy")
        responses = {
            0: (SimpleNamespace(id="job-1"), False),
            1: (SimpleNamespace(id="job-1"), True),
        }

        class Client:
            def submit(self, spec):
                key = len(seen)
                seen.append(spec)
                if key in responses:
                    return responses[key]
                raise GatewayError(
                    "saturated",
                    status=429,
                    retry_after=1.0,
                    code="rate_limited",
                )

        seen = []
        submit = MixSubmitter(Client(), mix, load_config)
        first = submit(0)
        assert first == SubmitOutcome(
            status=201, ok=True, deduplicated=False, job_id="job-1"
        )
        second = submit(1)
        assert second.status == 200 and second.deduplicated
        third = submit(2)
        assert third == SubmitOutcome(
            status=429, ok=False, error_code="rate_limited"
        )

    def test_prepare_prebuilds_specs_once(self, load_config):
        mix = get_mix("cache-cold")
        submit = MixSubmitter(object(), mix, load_config)
        submit.prepare(4)
        built = list(submit._specs)
        submit.prepare(2)  # idempotent — never rebuilds or shrinks
        assert submit._specs == built
        assert submit.spec(1) is built[1]
