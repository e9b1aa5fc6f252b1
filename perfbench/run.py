"""Benchmark of the decomposition pipeline and its serving paths.

    python3 perfbench/run.py --workload table1-n9 --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  Workloads: ``table1-n9``,
``fig4-n16``, ``service-burst``, ``fleet-openloop`` (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  The exit code is 0 only when every
output passed its correctness check; without the program's sources next
to this directory the runner exits 2 and prints no result.

Noise controls: every workload process runs with one BLAS/OpenMP thread
and without ``REPRO_SB_BACKEND``; set-up is timed in three fresh
processes and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from common import END_TO_END, stop_process  # noqa: E402

#: set-up samples per untraced run (fresh processes; median reported)
SETUP_SAMPLES = 3
#: a run, set-up samples included, must end within this
RUN_BUDGET_S = 170.0
#: scratch space for service directories and logs, under the checkout
WORK_DIR = ROOT / ".perfbench_work"


def pinned_env() -> dict:
    """The environment of every workload process."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_SB_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # the fleet reads the gateway's address from its log as it is printed
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(args, role, run_dir, deadline):
    """Start one workload process; ``(setup_seconds, result or None)``."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--run-dir", str(run_dir),
    ] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=pinned_env(),
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               process.terminate)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.startswith("{"):
                result = json.loads(line)
            else:
                print(f"[{args.workload}] {line.rstrip()}", file=sys.stderr)
        process.wait()
    finally:
        watchdog.cancel()
        # SIGTERM first: the workload process stops its own children
        stop_process(process)
    if process.returncode != 0 or setup_s is None or (
        role == "main" and result is None
    ):
        raise RuntimeError(
            f"{role} process of {args.workload} exited with "
            f"{process.returncode}"
        )
    return setup_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)  # self-test sizes
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C: children are stopped, scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_DIR))
    try:
        setup_samples = []
        setup_s, result = run_child(args, "main", run_dir / "main",
                                    deadline)
        setup_samples.append(setup_s)
        if args.trace:
            spans = run_dir / "main" / "spans.jsonl"
            if spans.exists():
                shutil.copy(spans, WORK_DIR / (
                    f"{args.workload}-seed{args.seed}.spans.jsonl"
                ))
        else:
            for index in range(1, SETUP_SAMPLES):
                setup_s, _ = run_child(
                    args, "setup", run_dir / f"setup{index}", deadline
                )
                setup_samples.append(setup_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        from layers import PER_LAYER
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        values = result["metrics"]
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        values = dict(result["metrics"],
                      setup_s=statistics.median(setup_samples))
    for error in result["errors"]:
        print(f"[{args.workload}] INCORRECT: {error}", file=sys.stderr)
    correct = not result["errors"]
    print(f"{args.workload} seed {args.seed} on {len(os.sched_getaffinity(0))}"
          f" CPUs: {result['attempted']} attempted, {result['failed']} "
          f"failed, {'correct' if correct else 'INCORRECT'}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
