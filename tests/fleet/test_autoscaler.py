"""The queue-depth autoscaler: deterministic ``tick()`` control-loop
tests against a fake pool driven through ``resize``, plus one live
elastic drain.
"""

import dataclasses
import time
import types

import pytest

from repro.errors import ServiceError
from repro.fleet import PoolAutoscaler
from repro.service import JobSpec

from tests.fleet.conftest import make_service


class FakePool:
    """A worker-pool stand-in that records every resize."""

    name = "svc"
    retiring = 0
    spawned = 0

    def __init__(self, depths):
        state = {"i": 0}

        def counts():
            i = min(state["i"], len(depths) - 1)
            state["i"] += 1
            depth = depths[i]
            if depth is None:
                raise RuntimeError("store unavailable")
            return {"queued": depth, "running": 0}

        self.scheduler = types.SimpleNamespace(
            store=types.SimpleNamespace(counts=counts)
        )
        self.sizes = []
        self.stopped = False

    def resize(self, n):
        self.sizes.append(n)

    def stop(self, timeout=None):
        self.stopped = True


def make_scaler(depths, **kwargs):
    """An autoscaler over a scripted queue-depth sequence."""
    pool = FakePool(depths)
    return PoolAutoscaler(pool, **kwargs), pool


class TestControlLoop:
    def test_scales_up_to_depth_capped_at_max(self):
        scaler, pool = make_scaler([5], max_workers=3)
        scaler.tick(now=0.0)
        assert scaler.n_live == 3
        assert pool.sizes == [3]

    def test_min_floor_is_respected_when_idle(self):
        scaler, pool = make_scaler(
            [0, 0], min_workers=1, max_workers=4
        )
        scaler.tick(now=0.0)
        assert scaler.n_live == 1
        scaler.tick(now=100.0)  # idle forever: never below min
        assert scaler.n_live == 1
        assert pool.sizes == [1]

    def test_scale_down_waits_for_idle_period(self):
        scaler, pool = make_scaler(
            [2, 0, 0, 0],
            max_workers=4,
            scale_down_idle_seconds=2.0,
        )
        scaler.tick(now=0.0)
        assert scaler.n_live == 2
        scaler.tick(now=0.5)  # below target, but not idle long enough
        assert pool.sizes == [2]
        scaler.tick(now=2.6)  # idle window elapsed: retire ONE loop
        assert scaler.n_live == 1
        assert pool.sizes == [2, 1]
        scaler.tick(now=3.0)  # the idle clock restarted at the retire
        assert pool.sizes == [2, 1]

    def test_burst_resets_the_idle_clock(self):
        scaler, _ = make_scaler(
            [2, 0, 2, 0],
            max_workers=4,
            scale_down_idle_seconds=2.0,
        )
        scaler.tick(now=0.0)   # depth 2 -> 2 loops
        scaler.tick(now=1.0)   # idle starts
        scaler.tick(now=1.5)   # burst: busy again, clock reset
        scaler.tick(now=3.0)   # only 1.5s idle since the burst
        assert scaler.n_live == 2

    def test_unreadable_store_freezes_the_loop(self):
        scaler, pool = make_scaler([2, None, 0], max_workers=4)
        scaler.tick(now=0.0)
        assert scaler.n_live == 2
        scaler.tick(now=1.0)  # store raised: no decision on bad data
        assert scaler.n_live == 2
        assert pool.sizes == [2]

    def test_bounds_are_validated(self):
        with pytest.raises(ServiceError):
            make_scaler([0], min_workers=-1)
        with pytest.raises(ServiceError):
            make_scaler([0], min_workers=3, max_workers=2)

    def test_stop_retires_every_unit(self):
        scaler, pool = make_scaler([3], max_workers=4)
        scaler.tick(now=0.0)
        scaler.stop(timeout=1.0)
        assert pool.stopped
        assert scaler.n_live == 0


class TestLiveElasticity:
    def test_elastic_pool_drains_real_queue(
        self, tmp_path, fast_config
    ):
        """min_workers=0: nothing runs while idle, units appear under
        load, the queue drains, everything retires on stop."""
        service = make_service(tmp_path)
        jobs = [
            service.submit(
                JobSpec(
                    workload="cos",
                    n_inputs=6,
                    config=dataclasses.replace(fast_config, seed=seed),
                )
            )
            for seed in range(3)
        ]
        scaler = PoolAutoscaler(
            service.pool,
            min_workers=0,
            max_workers=2,
            interval_seconds=0.02,
            scale_down_idle_seconds=0.1,
        )
        scaler.start()
        try:
            deadline = 300
            start = time.monotonic()
            while service.store.pending() > 0:
                assert time.monotonic() - start < deadline
                time.sleep(0.02)
        finally:
            scaler.stop(timeout=30)
        for job in jobs:
            assert service.job(job.id).state == "done"
        assert scaler.n_live == 0
        snapshot = scaler.snapshot()
        assert snapshot["retiring"] == 0
        assert 1 <= snapshot["spawned_total"] <= 4
