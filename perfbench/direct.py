"""The direct workloads: ``IsingDecomposer.decompose`` called in process.

A run works through a fixed *panel* of decompositions: every function x
mode x panel seed.  The panel's design seeds are fixed, so the panel's
designs, and with them ``med_mean``, repeat exactly from run to run
(numpy64 is deterministic).  At P this small, the MED of one design
moves by a third or more from one design seed to the next, which would
drown any quality change in seed noise.  The workload seed sets the
order in which the panel runs: the blocks (one per design seed, each
holding every function and mode) and the decompositions within each.
The first pass over the panel always completes; further passes run
while they end closer to ``--seconds`` than stopping would, and each
must reproduce the first pass's designs.
"""

from __future__ import annotations

import time
from statistics import fmean, median

from common import design_bytes, p90, shuffled

#: P and R are equal for every function of a workload
SIZES = {
    "table1-n9": dict(
        n_inputs=9, functions=("cos", "exp", "erf"),
        modes=("separate", "joint"), n_partitions=4, n_rounds=1,
        panel_seeds=3,
    ),
    "fig4-n16": dict(
        n_inputs=16, functions=("cos", "ln", "brent-kung", "multiplier"),
        modes=("joint",), n_partitions=1, n_rounds=1, panel_seeds=3,
    ),
}

#: the same shape at a size the self-test runs in seconds
TINY = {
    "table1-n9": dict(n_inputs=6, panel_seeds=1, n_partitions=2),
    "fig4-n16": dict(n_inputs=8, panel_seeds=1),
}


class DirectWorkload:
    """table1-n9 / fig4-n16 (see the module docs)."""

    def __init__(self, name, seed, seconds, tiny=False):
        self.name = name
        self.seconds = seconds
        self.size = dict(SIZES[name], **(TINY[name] if tiny else {}))
        size = self.size
        pairs = [(f, m) for f in size["functions"] for m in size["modes"]]
        # one block per panel seed, each holding every function and mode
        self.items = [
            (function, mode, panel_seed)
            for panel_seed in shuffled(range(size["panel_seeds"]), seed, name)
            for function, mode in shuffled(pairs, seed, f"{name}{panel_seed}")
        ]
        self.block = len(pairs)
        self.attempted = 0
        self.failed = 0
        self.first_pass = {}      # item -> DecompositionResult
        self.repeats = []         # (item, design bytes) of later passes
        self.walls = []           # seconds per decompose, every pass

    # -- set-up ----------------------------------------------------------

    def setup(self):
        from repro import FrameworkConfig, IsingDecomposer
        from repro.workloads import build_workload

        size = self.size
        self._decomposer = IsingDecomposer
        self.workloads = {
            function: build_workload(function, size["n_inputs"])
            for function in size["functions"]
        }
        self.configs = {
            (function, mode, panel_seed): FrameworkConfig(
                mode=mode,
                free_size=self.workloads[function].free_size,
                n_partitions=size["n_partitions"],
                n_rounds=size["n_rounds"],
                seed=panel_seed,
            )
            for function, mode, panel_seed in self.items
        }
        # warm-up: the same panel item whatever the order, untimed
        self._decompose((size["functions"][0], size["modes"][0], 0))

    def _decompose(self, item):
        table = self.workloads[item[0]].table
        return self._decomposer(self.configs[item]).decompose(table)

    # -- measurement -------------------------------------------------------

    def _run(self, item):
        """One timed decompose; ``(seconds, result or None)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self._decompose(item)
        except Exception as exc:  # noqa: BLE001 — counted, run goes on
            self.failed += 1
            print(f"decompose {item} raised {exc!r}", flush=True)
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        self.walls.append(seconds)
        return seconds, result

    def _pass(self, items, first):
        from repro.serialization import result_to_dict

        seconds = 0.0
        for item in items:
            wall, result = self._run(item)
            seconds += wall
            if result is None:
                continue
            if first:
                self.first_pass[item] = result
            else:
                self.repeats.append(
                    (item, design_bytes(result_to_dict(result)))
                )
        return seconds

    def measure(self):
        elapsed = self._pass(self.items, first=True)
        pass_seconds = elapsed
        while elapsed + pass_seconds / 2 < self.seconds:
            elapsed += self._pass(self.items, first=False)
        return self.end_to_end()

    def end_to_end(self):
        walls = self.walls
        meds = [result.med for result in self.first_pass.values()]
        return {
            "s_per_function": sum(walls) / len(walls),
            "med_mean": fmean(meds),
            "jobs_per_s": len(walls) / sum(walls),
            "completion_p50_s": median(walls),
            "completion_p90_s": p90(walls),
        }

    def measure_traced(self, tracer):
        """Per-layer metrics.  The first block (one decomposition per
        function and mode) runs untraced, then again traced, which prices
        the tracing; the whole panel then runs traced."""
        import layers

        group = self.items[: self.block]
        untraced = self._pass(group, first=False)
        layers.install(tracer)
        traced_group = self._pass(group, first=True)
        window = traced_group + self._pass(
            self.items[len(group):], first=True
        )
        tracer.restore()
        metrics = layers.layer_metrics(tracer, window)
        metrics["trace.overhead_share"] = traced_group / untraced - 1.0
        return metrics

    # -- correctness -----------------------------------------------------

    def check(self):
        """Errors found in the run's designs (outside every timed section)."""
        from repro.serialization import result_to_dict

        errors = []
        first_bytes = {}
        for item, result in self.first_pass.items():
            errors.extend(check_result(item, result))
            first_bytes[item] = design_bytes(result_to_dict(result))
        for item, data in self.repeats:
            if item in first_bytes and data != first_bytes[item]:
                errors.append(f"{item}: a repeated decompose changed the "
                              "design")
        if len(self.first_pass) + self.failed < len(self.items):
            errors.append("the panel did not complete")
        return errors


def check_result(item, result):
    """Recompose ``result`` from its settings and compare its MED.

    Every output must have a setting, and the recomposed table's MED
    must equal ``result.med`` exactly.
    """
    from repro.boolean.metrics import mean_error_distance
    from repro.boolean.synthesis import apply_column_setting

    exact = result.exact
    missing = set(range(exact.n_outputs)) - set(result.components)
    if missing:
        return [f"{item}: outputs {sorted(missing)} have no setting"]
    approx = exact
    for index, component in sorted(result.components.items()):
        approx = apply_column_setting(
            approx, index, component.partition, component.setting
        )
    med = mean_error_distance(exact, approx)
    if med != result.med:
        return [f"{item}: recomposed MED {med!r} != reported "
                f"{result.med!r}"]
    return []
