"""Tests for the six continuous workloads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.continuous import (
    CONTINUOUS_FUNCTIONS,
    continuous_table,
)
from repro.workloads.quantization import QuantizationScheme

SCHEME = QuantizationScheme(8, 8)


class TestCatalog:
    def test_all_six_present(self):
        assert sorted(CONTINUOUS_FUNCTIONS) == [
            "cos", "denoise", "erf", "exp", "ln", "tan",
        ]

    def test_paper_domains(self):
        assert CONTINUOUS_FUNCTIONS["cos"].domain == (0.0, np.pi / 2)
        assert CONTINUOUS_FUNCTIONS["ln"].domain == (1.0, 10.0)
        assert CONTINUOUS_FUNCTIONS["exp"].output_range == (0.0, 20.09)

    def test_ranges_cover_function_images(self):
        """Each declared range contains the function's image, up to the
        paper's two-decimal rounding of the endpoints (ln(10) = 2.3026
        is printed as 2.30, tan(2 pi / 5) = 3.0777 as 3.08)."""
        for name, bench in CONTINUOUS_FUNCTIONS.items():
            xs = np.linspace(bench.domain[0], bench.domain[1], 2001)
            values = bench.func(xs)
            lo, hi = bench.output_range
            assert values.min() >= lo - 5e-3, name
            assert values.max() <= hi + 5e-3, name


class TestLazyScipy:
    def test_import_cli_leaves_scipy_special_unloaded(self):
        """``import repro.cli`` (every CLI command, agent and worker
        start) must not pay for ``scipy.special``; only erf needs it."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro.cli; "
                "print('scipy.special' in sys.modules)",
            ],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "False"

    def test_erf_is_scipy_erf(self):
        from scipy.special import erf

        xs = np.linspace(0.0, 3.0, 2001)
        assert np.array_equal(CONTINUOUS_FUNCTIONS["erf"].func(xs), erf(xs))


class TestTables:
    @pytest.mark.parametrize("name", sorted(CONTINUOUS_FUNCTIONS))
    def test_builds_and_shapes(self, name):
        table = continuous_table(name, SCHEME)
        assert table.n_inputs == 8 and table.n_outputs == 8

    def test_cos_values_spot_check(self):
        table = continuous_table("cos", SCHEME)
        # cos(0) = 1 -> full scale; cos(pi/2) = 0 -> zero
        assert table.words[0] == 255
        assert table.words[-1] == 0

    def test_exp_monotone_increasing(self):
        table = continuous_table("exp", SCHEME)
        assert (np.diff(table.words.astype(int)) >= 0).all()

    def test_denoise_matches_range(self):
        table = continuous_table("denoise", SCHEME)
        # 0.81 * exp(0) = 0.81 = range max -> full scale at x = 0
        assert table.words[0] == 255

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            continuous_table("sinh", SCHEME)
