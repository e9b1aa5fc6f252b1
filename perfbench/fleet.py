"""fleet-openloop: open-loop arrivals through a dispatch-only gateway.

The gateway (``repro serve --dispatch-only --http``) and one remote
agent (``repro work --remote``) run as separate CLI processes with the
CLI's defaults, as in the ``fleet-smoke`` CI job.  One generator thread
submits over one client, at fixed spacing, a cos job of
:data:`common.SMALL_JOB` size with a fresh design seed per arrival; the
workload seed sets the order of the seeds.  Each submission gets
exactly one attempt.  Every job pays the claim long-poll wake-up, one
checkpoint POST per component (which also renews the lease, so the
default 5 s heartbeat interval sends none), and the completion upload.

Latency is the server's ``finished_at`` minus the arrival's scheduled
instant, both on this host's wall clock; client polling, which has its
own 0.25 s period, never enters a measured number.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from common import (
    check_against_direct,
    p90,
    shuffled,
    small_job_spec,
    stop_process,
)

#: arrivals per second: under half of one agent's capacity on a 2-vCPU
#: x86 host (a job occupies the agent ~0.16 s there), which keeps the
#: queue shallow even when the host runs 40% slower for minutes
ARRIVALS_PER_S = 3.0
#: a run holds at least this many arrivals, so that its p90 has ten
#: samples above it
MIN_ARRIVALS = 100
#: design seeds at and above this are the panel; the warm-up uses 0
PANEL_BASE = 100
AGENT_ID = "bench-agent"
#: how long set-up waits for each process to come up
START_TIMEOUT_S = 60.0


def _wait_for_line(path: Path, marker: str, process, timeout: float) -> str:
    """The first line of ``path`` containing ``marker``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            for line in path.read_text().splitlines():
                if marker in line:
                    return line
        if process.poll() is not None:
            raise RuntimeError(
                f"{path.name}: process exited with {process.returncode}:\n"
                + (path.read_text() if path.exists() else "")
            )
        time.sleep(0.01)
    raise RuntimeError(f"{path.name}: no {marker!r} within {timeout} s")


class FleetWorkload:
    """fleet-openloop (see the module docs)."""

    name = "fleet-openloop"

    def __init__(self, seed, seconds, run_dir, tiny=False):
        self.run_dir = run_dir
        n_arrivals = 6 if tiny else max(
            MIN_ARRIVALS, round(seconds * ARRIVALS_PER_S)
        )
        self.seeds = shuffled(
            range(PANEL_BASE, PANEL_BASE + n_arrivals), seed, self.name
        )
        self.attempted = 0
        self.failed = 0
        self.processes = []
        self.arrivals = []   # (scheduled wall time, job id, lateness, spec)
        self.records = []

    # -- set-up ----------------------------------------------------------

    def _spawn(self, args, log_name):
        log = open(self.run_dir / log_name, "w")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.processes.append(process)
        return process

    def setup(self):
        from repro.fleet import FleetClient
        from repro.gateway.transport import RetryPolicy

        self.access_log = self.run_dir / "access.jsonl"
        gateway = self._spawn(
            ["serve", "--service-dir", str(self.run_dir / "fleet-svc"),
             "--dispatch-only", "--http", "0",
             "--http-access-log", str(self.access_log)],
            "gateway.log",
        )
        line = _wait_for_line(self.run_dir / "gateway.log",
                              "gateway listening on", gateway,
                              START_TIMEOUT_S)
        url = line.split("gateway listening on", 1)[1].strip()
        agent = self._spawn(
            ["work", "--remote", url, "--worker-id", AGENT_ID],
            "agent.log",
        )
        _wait_for_line(self.run_dir / "agent.log", "claiming from", agent,
                       START_TIMEOUT_S)
        self.specs = [small_job_spec("cos", seed) for seed in self.seeds]
        self.reader = FleetClient(url)
        self.submitter = FleetClient(
            url, retry=RetryPolicy(max_retries=0), timeout_seconds=10.0
        )
        # warm-up: one job through gateway and agent, untimed; set-up
        # ends once the agent is idle again, its next claim parked
        warmup, _ = self.submitter.submit(small_job_spec("cos", 0))
        self.reader.wait_many([warmup.id], poll_seconds=0.02,
                              timeout_seconds=START_TIMEOUT_S)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            agents = [w for w in self.reader.workers() if w.id == AGENT_ID]
            if agents and agents[0].current_job is None:
                break
            time.sleep(0.01)
        time.sleep(0.05)

    # -- measurement -------------------------------------------------------

    def _open_loop(self, on_arrival=None):
        """Submit every arrival on schedule; one attempt each."""
        from repro.errors import GatewayError

        start = time.time() + 0.05
        for index, spec in enumerate(self.specs):
            if on_arrival is not None:
                on_arrival(index)
            due = start + index / ARRIVALS_PER_S
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            lateness = time.time() - due
            self.attempted += 1
            try:
                job, _ = self.submitter.submit(spec)
            except GatewayError as exc:
                self.failed += 1
                print(f"submission {index} refused: {exc}", flush=True)
                continue
            self.arrivals.append((due, job.id, lateness, spec))
        # the queue is shallow: wait out the last job before polling
        time.sleep(1.0)
        self.records = self.reader.wait_many(
            [job_id for _, job_id, _, _ in self.arrivals],
            poll_seconds=0.1, timeout_seconds=120.0,
        )
        self.failed += sum(
            1 for job in self.records
            if job.state != "done" or job.attempts != 1
        )

    def _completions(self, arrivals=None, records=None):
        arrivals = self.arrivals if arrivals is None else arrivals
        records = self.records if records is None else records
        return [
            job.finished_at - due
            for (due, _, _, _), job in zip(arrivals, records)
            if job.state == "done"
        ]

    def measure(self):
        self._open_loop()
        done = [job for job in self.records if job.state == "done"]
        completions = self._completions()
        first_due = self.arrivals[0][0]
        return {
            "s_per_function": fmean(job.runtime_seconds for job in done),
            "med_mean": fmean(job.med for job in done),
            "jobs_per_s": len(done) / (
                max(job.finished_at for job in done) - first_due
            ),
            "completion_p50_s": median(completions),
            "completion_p90_s": p90(completions),
        }

    def measure_traced(self, tracer):
        """Per-layer metrics from the access log, the job records and the
        generator.  The first third of the arrivals is submitted
        untraced, the rest through a traced client; the ratio of the two
        parts' completion medians prices the tracing."""
        import layers
        from repro.gateway.client import GatewayClient

        split = max(1, len(self.specs) // 3)

        def on_arrival(index):
            if index == split:
                tracer.wrap(GatewayClient, "submit", "gateway.client_submit",
                            "gateway")

        self._open_loop(on_arrival)
        tracer.restore()
        metrics = layers.zero_metrics()
        metrics.update(self._record_metrics())
        metrics.update(self._access_log_metrics())
        done = [
            index for index, job in enumerate(self.records)
            if job.state == "done"
        ]
        untraced = [i for i in done if i < split]
        traced = [i for i in done if i >= split]
        if untraced and traced:
            def p50(indices):
                return median(self._completions(
                    [self.arrivals[i] for i in indices],
                    [self.records[i] for i in indices],
                ))
            metrics["trace.overhead_share"] = p50(traced) / p50(untraced) - 1.0
        metrics["trace.spans"] = len(tracer.records)
        return metrics

    def _record_metrics(self):
        done = [
            (arrival[0], job)
            for arrival, job in zip(self.arrivals, self.records)
            if job.state == "done"
        ]
        submit = [job.created_at - due for due, job in done]
        wait = [job.started_at - job.created_at for _, job in done]
        run = [job.runtime_seconds for _, job in done]
        ship = [
            job.finished_at - job.started_at - job.runtime_seconds
            for _, job in done
        ]
        window = sum(job.finished_at - due for due, job in done)
        return {
            "fleet.claim_wait_p50_s": median(wait),
            "fleet.exec_p50_s": median(run),
            "fleet.ship_p50_s": median(ship),
            "fleet.generator_lateness_max_ms": 1e3 * max(
                arrival[2] for arrival in self.arrivals
            ),
            # completion = submit + claim wait + execution + shipping
            "share.gateway": sum(submit) / window,
            "share.fleet": (sum(wait) + sum(ship)) / window,
            "share.worker": sum(run) / window,
            "share.unattributed": 1.0 - (
                sum(submit) + sum(wait) + sum(run) + sum(ship)
            ) / window,
            "trace.window_s": window,
        }

    def _access_log_metrics(self):
        """Per-route counts and medians over the open loop's window."""
        first = self.arrivals[0][0]
        last = max(job.finished_at for job in self.records
                   if job.finished_at is not None)
        routes = {}
        errors = {"4": 0, "5": 0}
        for line in self.access_log.read_text().splitlines():
            entry = json.loads(line)
            if not first <= entry["ts"] <= last + 0.5:
                continue
            parts = [p for p in entry["path"].split("?")[0].split("/") if p]
            route = "/".join(parts[:3] if parts[1:2] == ["workers"]
                             else parts[:2])
            route = f"{entry['method']} {route}"
            routes.setdefault(route, []).append(entry)
            status = str(entry["status"])[0]
            if status in errors:
                errors[status] += 1

        def count(route, status=None):
            return sum(1 for e in routes.get(route, ())
                       if status is None or e["status"] == status)

        def p50_ms(route):
            samples = [e["duration_ms"] for e in routes.get(route, ())]
            return median(samples) if samples else 0.0

        return {
            "gateway.submit_ms_p50": p50_ms("POST v1/jobs"),
            "gateway.claim_requests": count("POST v1/workers/claim"),
            "gateway.empty_claims": count("POST v1/workers/claim", 204),
            "gateway.heartbeat_requests": count("POST v1/workers/heartbeat"),
            "gateway.checkpoint_requests": count(
                "POST v1/workers/checkpoint"
            ),
            "gateway.checkpoint_ms_p50": p50_ms("POST v1/workers/checkpoint"),
            "gateway.complete_ms_p50": p50_ms("POST v1/workers/complete"),
            "gateway.artifact_get_requests": count("GET v1/artifacts"),
            "gateway.responses_4xx": errors["4"],
            "gateway.responses_5xx": errors["5"],
        }

    # -- correctness and teardown -----------------------------------------

    def check(self):
        errors = []
        served = []
        for (_, job_id, _, spec), job in zip(self.arrivals, self.records):
            if job.state != "done":
                errors.append(f"job {job_id} ended {job.state}: {job.error}")
                continue
            if job.attempts != 1:
                errors.append(f"job {job_id} took {job.attempts} attempts")
            served.append((spec, self.reader.fetch_design_dict(job_id)))
        agents = [w for w in self.reader.workers() if w.id == AGENT_ID]
        done = sum(1 for job in self.records if job.state == "done")
        if not agents or agents[0].jobs_completed != done + 1:
            errors.append(f"the fleet registry does not show {AGENT_ID} "
                          f"completing {done} jobs and the warm-up")
        # the direct decompositions run after the processes are gone
        self.close()
        for index in check_against_direct(served):
            errors.append(f"design {index} differs from a direct decompose")
        return errors

    def close(self):
        """Drain the gateway first, then stop the agent."""
        for process in self.processes:
            stop_process(process)
        self.processes = []
