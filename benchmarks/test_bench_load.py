"""Load benchmark: latency-vs-offered-RPS curves, knee, SLO, soak.

Drives the real HTTP gateway with the open-loop harness
(:mod:`repro.loadgen`) and writes ``BENCH_load.json`` at the repo
root:

* per-mix latency-vs-offered-RPS curves (service, open-loop, and
  server-side completion percentiles) with the identified knee;
* an SLO verdict block (availability + p95 + burn rate) per mix;
* a chaos soak plateau whose artifacts must be byte-identical to a
  fresh, unloaded local solve of the same specs.

Assertions gate on *structure and correctness* (curves present, every
accepted job completes, soak byte-identical), never on throughput —
absolute numbers vary with the host.  Scale knobs:

=================================  ==================================  =========
variable                           meaning                             default
=================================  ==================================  =========
``REPRO_BENCH_LOAD_RATES``         offered-RPS sweep, comma list        ``4,8``
``REPRO_BENCH_LOAD_DURATION``      seconds per stage                    ``1.5``
``REPRO_BENCH_LOAD_MIXES``         job mixes, comma list                ``dedup-heavy,mixed-sizes``
``REPRO_BENCH_LOAD_SOAK_SECONDS``  soak plateau length (0 disables)     ``1.5``
``REPRO_BENCH_LOAD_WORKERS``       service worker pool                  ``4``
=================================  ==================================  =========
"""

import os

from benchmarks.conftest import write_bench_json
from repro.gateway import (
    DecompositionGateway,
    GatewayClient,
    GatewayConfig,
    RetryPolicy,
)
from repro.loadgen import (
    MixSubmitter,
    OpenLoopGenerator,
    SLOSpec,
    build_report,
    collect_completion_latencies,
    evaluate_slo,
    find_knee,
    get_mix,
    run_soak,
    summarize_stage,
)
from repro.loadgen.mixes import default_load_config
from repro.service import DecompositionService, SchedulerPolicy

#: generous bench SLO — gates harness wiring, not host speed
BENCH_SLO = SLOSpec(
    availability=0.95, latency_p95_ms=30_000.0, max_burn_rate=10.0
)


def _env_list(name, default):
    return [
        part.strip()
        for part in os.environ.get(name, default).split(",")
        if part.strip()
    ]


def test_load_curves_slo_and_soak(tmp_path):
    rates = sorted(
        float(r) for r in _env_list("REPRO_BENCH_LOAD_RATES", "4,8")
    )
    duration = float(os.environ.get("REPRO_BENCH_LOAD_DURATION", 1.5))
    mix_list = _env_list(
        "REPRO_BENCH_LOAD_MIXES", "dedup-heavy,mixed-sizes"
    )
    soak_seconds = float(
        os.environ.get("REPRO_BENCH_LOAD_SOAK_SECONDS", 1.5)
    )
    n_workers = int(os.environ.get("REPRO_BENCH_LOAD_WORKERS", 4))
    config = default_load_config()

    service = DecompositionService(
        tmp_path / "svc",
        n_workers=n_workers,
        policy=SchedulerPolicy(
            retry_backoff_seconds=0.01, poll_interval_seconds=0.005
        ),
    )
    pool = service.serve_forever()
    mixes = {}
    slo_mixes = {}
    soak_block = None
    try:
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            for name in mix_list:
                mix = get_mix(name)
                client = GatewayClient(
                    gw.url, retry=RetryPolicy(max_retries=0)
                )
                submitter = MixSubmitter(client, mix, config)
                generator = OpenLoopGenerator(
                    submitter,
                    mix_name=mix.name,
                    concurrency=8,
                )
                stages, rows = [], []
                for rps in rates:
                    stage = generator.run(
                        rps=rps, duration_seconds=duration
                    )
                    latencies = collect_completion_latencies(
                        client, stage.job_ids(), timeout_seconds=120.0
                    )
                    # every accepted job must reach done — correctness
                    # gate; speed is only *recorded*
                    assert len(latencies) == len(stage.job_ids())
                    stages.append(stage)
                    rows.append(
                        summarize_stage(
                            stage, completion_latencies=latencies
                        )
                    )
                mixes[name] = {
                    "summary": mix.summary,
                    "stages": rows,
                    "knee": find_knee(rows),
                }
                slo_mixes[name] = evaluate_slo(BENCH_SLO, stages)

            if soak_seconds > 0:
                soak_client = GatewayClient(gw.url)
                summary, soak_stage = run_soak(
                    soak_client,
                    get_mix("cache-cold"),
                    config,
                    rps=min(rates),
                    duration_seconds=soak_seconds,
                    baseline_dir=tmp_path / "baseline",
                    wait_timeout_seconds=300.0,
                )
                summary["slo"] = evaluate_slo(BENCH_SLO, [soak_stage])
                soak_block = summary
    finally:
        pool.stop()

    slo_block = {
        "objective": BENCH_SLO.to_dict(),
        "mixes": slo_mixes,
        "ok": all(v["ok"] for v in slo_mixes.values()),
    }
    report = build_report(
        mixes,
        slo_block=slo_block,
        soak_block=soak_block,
        context={
            "rates": rates,
            "stage_duration_seconds": duration,
            "n_workers": n_workers,
            "harness": "open-loop (no coordinated omission)",
        },
    )
    path = write_bench_json("BENCH_load.json", report)
    print(f"\nwrote {path}")

    # -- structural gates ---------------------------------------------
    assert len(mixes) >= 2
    for name, block in mixes.items():
        assert len(block["stages"]) == len(rates)
        knee = block["knee"]
        assert isinstance(knee["saturated"], bool)
        assert knee["offered_rps"] is not None
        for row in block["stages"]:
            assert row["requests"] >= 1
            assert row["errors"] == 0, f"{name}: unexpected errors"
    for verdict in slo_mixes.values():
        assert {"availability", "latency", "burn_rate", "ok"} <= set(
            verdict
        )
    if soak_block is not None:
        assert soak_block["byte_identical"] is True
        assert soak_block["mismatches"] == []
