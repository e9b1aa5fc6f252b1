"""One workload process: set up, print ``READY``, measure, check, report.

``run.py`` starts this script and times it from process start to the
``READY`` line: that is one set-up sample (imports, truth tables, the
warm-up decompose, and for the fleet the gateway and agent).  With
``--role setup`` the process stops there.  With ``--role main`` it goes
on to measure and to check every output, and prints one JSON line with
the metrics, the operation counts and any correctness errors.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

WORKLOADS = ("table1-n9", "fig4-n16", "service-burst", "fleet-openloop")


def make_workload(name, seed, seconds, run_dir, tiny):
    if name in ("table1-n9", "fig4-n16"):
        from direct import DirectWorkload
        return DirectWorkload(name, seed, seconds, tiny=tiny)
    if name == "service-burst":
        from burst import BurstWorkload
        return BurstWorkload(seed, seconds, run_dir, tiny=tiny)
    from fleet import FleetWorkload
    return FleetWorkload(seed, seconds, run_dir, tiny=tiny)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup"), default="main")
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    args.run_dir.mkdir(parents=True, exist_ok=True)
    # SIGTERM unwinds through ``close``, which stops the fleet processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = make_workload(args.workload, args.seed, args.seconds,
                             args.run_dir, args.tiny)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            metrics = workload.measure_traced(tracer)
            tracer.write_jsonl(args.run_dir / "spans.jsonl")
        else:
            metrics = workload.measure()
        errors = workload.check()
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    print(json.dumps({
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": errors,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
