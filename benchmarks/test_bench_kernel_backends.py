"""Supporting benchmark: fused kernel backends vs the seed inline loop.

Times the bSB hot loop on one large bipartite instance (r=128, c=512 —
the shape class of the paper's n=16 runs) three ways:

* the historical inline NumPy loop (frozen here, as in the unit tests),
* the fused ``numpy64`` reference backend,
* the fused float32 backends (``numpy32``/``native32``),

plus a **batched** section: ``B`` independent problems stacked into one
kernel by :func:`repro.core.batch.stack_states` (what
``run_prepared_sweeps`` does with a component's float32 chunk sweeps)
vs stepping each problem alone with the ``numpy32`` kernel, at batch
sizes 1/4/8/16/64 (8 is the framework's default chunk count).  Because
that ratio mixes a backend change with stacking, the section also
records the like-for-like number (``stacking_vs_solo``): each float32
backend stacked vs the *same* backend stepping every problem solo
through the same sampling windows, at the 16x32 (n=9 Table-1) and
128x512 (n=16 Fig-4) core-COP shapes.  Every stacked trajectory must
be bit-identical to its solo run.

Writes ``BENCH_kernels.json`` at the repo root with iterations/second
per variant and speedups vs the baselines, and checks that the fast
backends do not trade away solution quality: every backend's decoded
best objective (scored in float64) must match the ``numpy64`` result,
and the batched path must keep near-perfect decoded-sign agreement
with the per-problem float32 runs.
"""

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import REPO_ROOT, write_bench_json
from repro.core.batch import advance_window, stack_states
from repro.ising.kernels import available_backends, make_kernel
from repro.ising.kernels.native import native_engine
from repro.ising.schedules import LinearPump

N_ROWS = 128
N_COLS = 512
N_REPLICAS = 16
N_ITERATIONS = 200
DT, A0 = 0.25, 1.0
TIMING_REPEATS = 3


def _inline_reference_loop(weights, x, y, c0, pump):
    """The seed repo's pre-kernel arithmetic, timed as the baseline."""
    k = weights / 4.0
    a = k.sum(axis=1)
    r = weights.shape[0]
    for iteration in range(1, N_ITERATIONS + 1):
        a_t = pump(iteration)
        v1 = x[..., :r]
        v2 = x[..., r : 2 * r]
        t = x[..., 2 * r :]
        kt = t @ k.T
        fields = np.concatenate(
            [-a + kt, -a - kt, (v1 - v2) @ k], axis=-1
        )
        y += DT * (-(A0 - a_t) * x + c0 * fields)
        x += DT * A0 * y
        outside = np.abs(x) > 1.0
        if outside.any():
            np.clip(x, -1.0, 1.0, out=x)
            y[outside] = 0.0
    return x


def _kernel_loop(kernel, x, y, c0, pump):
    x, y = kernel.prepare_state(x, y)
    for iteration in range(1, N_ITERATIONS + 1):
        kernel.step(x, y, pump(iteration), DT, A0, c0)
    return x


def _best_objective(scorer, positions):
    spins = np.where(np.asarray(positions, dtype=float) >= 0, 1.0, -1.0)
    return float(np.min(scorer.energy(spins)))


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(2024)
    weights = rng.normal(size=(N_ROWS, N_COLS)) / np.sqrt(N_COLS)
    scorer = make_kernel(weights, backend="numpy64")
    n = scorer.n_spins
    c0 = 0.5 / (scorer.coupling_rms() * np.sqrt(n))
    x0 = rng.uniform(-0.1, 0.1, (N_REPLICAS, n))
    y0 = rng.uniform(-0.1, 0.1, (N_REPLICAS, n))
    pump = LinearPump(A0, N_ITERATIONS)
    return weights, scorer, c0, x0, y0, pump


def _time_variant(run):
    best = np.inf
    positions = None
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        positions = run()
        best = min(best, time.perf_counter() - t0)
    return N_ITERATIONS / best, positions


def test_kernel_backend_throughput(benchmark, instance):
    weights, scorer, c0, x0, y0, pump = instance

    def sweep():
        results = {}
        rate, positions = _time_variant(
            lambda: _inline_reference_loop(
                weights, x0.copy(), y0.copy(), c0, pump
            )
        )
        results["inline_reference"] = (rate, positions)
        for backend in available_backends():
            kernel = make_kernel(weights, backend=backend)
            rate, positions = _time_variant(
                lambda: _kernel_loop(kernel, x0.copy(), y0.copy(), c0, pump)
            )
            results[backend] = (rate, positions)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    inline_rate, inline_positions = results["inline_reference"]
    numpy64_rate, numpy64_positions = results["numpy64"]
    reference_objective = _best_objective(scorer, numpy64_positions)

    payload = {
        "instance": {
            "n_rows": N_ROWS,
            "n_cols": N_COLS,
            "n_replicas": N_REPLICAS,
            "n_iterations": N_ITERATIONS,
        },
        "backends": {},
    }
    print(f"\n[kernels] r={N_ROWS} c={N_COLS} replicas={N_REPLICAS}")
    for name, (rate, positions) in results.items():
        objective = _best_objective(scorer, positions)
        payload["backends"][name] = {
            "iters_per_second": rate,
            "speedup_vs_inline": rate / inline_rate,
            "speedup_vs_numpy64": rate / numpy64_rate,
            "best_decoded_objective": objective,
        }
        print(
            f"[kernels] {name:>16}: {rate:8.1f} it/s "
            f"({rate / inline_rate:4.2f}x inline) "
            f"objective {objective:.4f}"
        )

    path = write_bench_json("BENCH_kernels.json", payload)
    print(f"[kernels] wrote {path}")

    # numpy64 is the inline loop refactored, not re-derived: identical
    # trajectories, identical decode
    assert np.array_equal(numpy64_positions, inline_positions)
    assert payload["backends"]["numpy64"]["best_decoded_objective"] == (
        _best_objective(scorer, inline_positions)
    )
    # the fused float32 path is the headline: meaningfully faster than
    # the seed loop without giving up decoded solution quality
    assert payload["backends"]["numpy32"]["speedup_vs_inline"] >= 1.5
    numpy32_objective = payload["backends"]["numpy32"][
        "best_decoded_objective"
    ]
    assert numpy32_objective == pytest.approx(
        reference_objective, rel=0.05
    )


# -- batched section ----------------------------------------------------

BATCH_SIZES = (1, 4, 8, 16, 64)
BATCH_REPLICAS = 4  # the framework default (CoreSolverConfig.n_replicas)
SAMPLE_EVERY = 20   # the framework default sampling cadence
# like-for-like stacking: (r, c) core-COP shapes of n=9 |A|=4 and
# n=16 |A|=7 runs.  Every batched row is stepped this long and timed
# best-of-this-many, long enough to time the small shape on a shared
# host (100 steps best of 3 let the 3x bound flip on noise)
STACK_SHAPES = ((16, 32), (N_ROWS, N_COLS))
STACK_ITERATIONS = 200
STACK_REPEATS = 5


def _batch_instance(batch_size, n_rows=N_ROWS, n_cols=N_COLS):
    """``batch_size`` independent single-problem sweeps, as a component
    split into ``batch_size`` one-partition chunks prepares them."""
    rng = np.random.default_rng(9000 + batch_size)
    problems = []
    for _ in range(batch_size):
        weights = rng.normal(size=(1, n_rows, n_cols)) / np.sqrt(n_cols)
        scorer = make_kernel(weights[0], backend="numpy64")
        n = scorer.n_spins
        c0 = 0.5 / (scorer.coupling_rms() * np.sqrt(n))
        x0 = rng.uniform(-0.1, 0.1, (1, BATCH_REPLICAS, n))
        y0 = rng.uniform(-0.1, 0.1, (1, BATCH_REPLICAS, n))
        problems.append((weights, c0, x0, y0))
    return problems


def _per_problem_numpy32(problems, pump):
    """Baseline: each problem stepped alone by the numpy32 kernel.
    Kernels and states are built outside the timed region; only
    stepping is timed (one-time setup is amortized over a real job's
    full run)."""
    kernels = [
        make_kernel(weights, backend="numpy32")
        for weights, _, _, _ in problems
    ]
    starts = [
        kernel.prepare_state(x0.copy(), y0.copy())
        for kernel, (_, _, x0, y0) in zip(kernels, problems)
    ]

    best, finals = np.inf, None
    for _ in range(STACK_REPEATS):
        states = [(x.copy(), y.copy()) for x, y in starts]
        t0 = time.perf_counter()
        for (_, c0, _, _), kernel, (x, y) in zip(
            problems, kernels, states
        ):
            for iteration in range(1, STACK_ITERATIONS + 1):
                kernel.step(x, y, pump(iteration), DT, A0, c0)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            finals = [np.asarray(x).copy() for x, _ in states]
    return best, finals


def _windowed(
    problems,
    pump,
    backend,
    stacked=True,
    n_iterations=STACK_ITERATIONS,
    repeats=STACK_REPEATS,
):
    """Advance the problems in sampling windows, stacked or solo.

    Stacked: one kernel over every problem, built by ``stack_states``.
    Solo (``stacked=False``): each problem stepped alone by its own
    kernel through the same windows — the like-for-like baseline for
    stacking.  Kernels and states are built outside the timed region;
    only window advancement is timed.  Returns the best time and each
    problem's final positions."""
    kernels, starts = [], []
    for weights, _, x0, y0 in problems:
        kernel = make_kernel(weights, backend=backend)
        kernels.append(kernel)
        starts.append(kernel.prepare_state(x0.copy(), y0.copy()))
    c0s = [c0 for _, c0, _, _ in problems]
    if stacked:
        steppers = [stack_states(
            backend,
            [weights for weights, _, _, _ in problems],
            [x for x, _ in starts],
            [y for _, y in starts],
            c0s,
        )]
    else:
        steppers = [
            (kernel, x, y, c0)
            for kernel, (x, y), c0 in zip(kernels, starts, c0s)
        ]
    initial = [(x.copy(), y.copy()) for _, x, y, _ in steppers]

    best, finals = np.inf, None
    for _ in range(repeats):
        for (_, x, y, _), (x0, y0) in zip(steppers, initial):
            x[...] = x0
            y[...] = y0
        t0 = time.perf_counter()
        iteration = 0
        while iteration < n_iterations:
            width = min(SAMPLE_EVERY, n_iterations - iteration)
            a_ts = [pump(iteration + 1 + j) for j in range(width)]
            for kernel, x, y, c0 in steppers:
                advance_window(kernel, x, y, a_ts, DT, A0, c0)
            iteration += width
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            packed = np.concatenate([x for _, x, _, _ in steppers])
            finals = np.split(packed, len(problems))
    return best, finals


def test_batched_stacking_throughput(benchmark):
    float32_backend = (
        "native32"
        if "native32" in available_backends()
        and native_engine() is not None
        else "numpy32"
    )
    pump = LinearPump(A0, STACK_ITERATIONS)
    stack_backends = sorted({float32_backend, "numpy32"})

    def stacking_vs_solo():
        shapes = {}
        for n_rows, n_cols in STACK_SHAPES:
            rows = {}
            for batch_size in BATCH_SIZES:
                problems = _batch_instance(batch_size, n_rows, n_cols)
                rows[str(batch_size)] = {}
                for backend in stack_backends:
                    solo_s, solo_finals = _windowed(
                        problems, pump, backend, stacked=False
                    )
                    stacked_s, stacked_finals = _windowed(
                        problems, pump, backend
                    )
                    problem_iters = batch_size * STACK_ITERATIONS
                    rows[str(batch_size)][backend] = {
                        "solo_iters_per_second": problem_iters / solo_s,
                        "stacked_iters_per_second": (
                            problem_iters / stacked_s
                        ),
                        "speedup_stacked_vs_solo": solo_s / stacked_s,
                        "bit_identical_to_solo": all(
                            np.array_equal(a, b)
                            for a, b in zip(stacked_finals, solo_finals)
                        ),
                    }
            shapes[f"{n_rows}x{n_cols}"] = {
                "n_rows": n_rows,
                "n_cols": n_cols,
                "batch_sizes": rows,
            }
        return shapes

    def sweep():
        section = {}
        for batch_size in BATCH_SIZES:
            problems = _batch_instance(batch_size)
            base_s, base_finals = _per_problem_numpy32(problems, pump)
            stacked_s, stacked_finals = _windowed(
                problems, pump, float32_backend
            )
            agreement = float(
                np.mean(
                    [
                        np.sign(f) == np.sign(b)
                        for f, b in zip(stacked_finals, base_finals)
                    ]
                )
            )
            problem_iters = batch_size * STACK_ITERATIONS
            section[str(batch_size)] = {
                "per_problem_numpy32_iters_per_second": (
                    problem_iters / base_s
                ),
                "batched_iters_per_second": problem_iters / stacked_s,
                "speedup_vs_per_problem_numpy32": base_s / stacked_s,
                "sign_agreement": agreement,
            }
        return section, stacking_vs_solo()

    section, shapes = benchmark.pedantic(sweep, rounds=1, iterations=1)

    path = REPO_ROOT / "BENCH_kernels.json"
    payload = (
        json.loads(path.read_text()) if path.exists() else {}
    )
    payload["batched"] = {
        "backend": float32_backend,
        "n_rows": N_ROWS,
        "n_cols": N_COLS,
        "n_replicas": BATCH_REPLICAS,
        "n_iterations": STACK_ITERATIONS,
        "sample_every": SAMPLE_EVERY,
        "batch_sizes": section,
        "stacking_vs_solo": {
            "n_replicas": BATCH_REPLICAS,
            "n_iterations": STACK_ITERATIONS,
            "sample_every": SAMPLE_EVERY,
            "timing": f"best of {STACK_REPEATS}",
            "shapes": shapes,
        },
    }
    write_bench_json("BENCH_kernels.json", payload)

    print(f"\n[kernels/batched] backend={float32_backend}")
    for batch_size in BATCH_SIZES:
        row = section[str(batch_size)]
        print(
            f"[kernels/batched] B={batch_size:>3}: "
            f"{row['batched_iters_per_second']:9.1f} problem-it/s "
            f"({row['speedup_vs_per_problem_numpy32']:4.2f}x "
            f"per-problem numpy32), "
            f"sign agreement {row['sign_agreement']:.3f}"
        )

    for shape, block in shapes.items():
        for batch_size, by_backend in block["batch_sizes"].items():
            for backend, row in by_backend.items():
                print(
                    f"[kernels/stacking] {shape:>7} B={batch_size:>3} "
                    f"{backend:>8}: stacked "
                    f"{row['speedup_stacked_vs_solo']:5.2f}x solo, "
                    f"bit-identical {row['bit_identical_to_solo']}"
                )

    for shape, block in shapes.items():
        for batch_size, by_backend in block["batch_sizes"].items():
            for backend, row in by_backend.items():
                # stacking keeps every slice's arithmetic
                assert row["bit_identical_to_solo"], (shape, batch_size,
                                                      backend)

    for batch_size in BATCH_SIZES:
        row = section[str(batch_size)]
        # the stacked trajectories decode to (near-)identical spins
        assert row["sign_agreement"] >= 0.99
        if batch_size >= 16 and float32_backend == "native32":
            # the ISSUE's acceptance bar: >= 3x at batch >= 16
            assert row["speedup_vs_per_problem_numpy32"] >= 3.0
