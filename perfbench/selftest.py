"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

1. Runs every workload once untraced and once traced at the tiny size
   and checks that each printed metric name and unit matches
   ``BENCHMARK.json`` and that every output was correct.
2. Checks that corrupted designs fail the correctness checks.
3. Checks that the runner exits nonzero, printing no result, in a
   directory that holds only ``BENCHMARK.json`` and this directory.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from child import WORKLOADS  # noqa: E402


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def check_metric_names(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the runner's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metric names or units differ "
                                "from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: outputs not all correct")
            print(f"ok  {label}", flush=True)


def check_corruption(failures):
    """Corrupted designs must fail the correctness checks."""
    import copy

    from common import check_against_direct, direct_design, small_job_spec
    from direct import check_result
    from repro import FrameworkConfig, IsingDecomposer
    from repro.boolean.decomposition import ColumnSetting
    from repro.workloads import build_workload

    workload = build_workload("cos", 6)
    result = IsingDecomposer(FrameworkConfig(
        free_size=workload.free_size, n_partitions=2, n_rounds=1, seed=0,
    )).decompose(workload.table)
    if check_result("intact", result):
        failures.append("an intact design failed the recompose check")

    flipped = copy.deepcopy(result)
    component = flipped.components[0]
    setting = component.setting
    component.setting = ColumnSetting(
        1 - setting.pattern1, 1 - setting.pattern2, setting.column_types
    )
    if not check_result("flipped", flipped):
        failures.append("a design with inverted column patterns passed")

    misreported = copy.deepcopy(result)
    misreported.med += 0.5
    if not check_result("misreported", misreported):
        failures.append("a design with a wrong reported MED passed")

    dropped = copy.deepcopy(result)
    del dropped.components[0]
    if not check_result("dropped", dropped):
        failures.append("a design missing an output's setting passed")

    spec = small_job_spec("cos", 7)
    served = direct_design(spec)
    corrupt = copy.deepcopy(served)
    corrupt["med"] += 1.0
    if check_against_direct([(spec, served), (spec, corrupt)]) != [1]:
        failures.append("a corrupted served design was not flagged")
    print("ok  corrupted designs fail the checks", flush=True)


def check_refuses_without_program(failures):
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(WORKLOADS[0], 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("the runner reported from a directory without "
                            "the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program", flush=True)


def main() -> int:
    failures = []
    check_corruption(failures)
    check_refuses_without_program(failures)
    check_metric_names(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
