"""The paper's six continuous benchmark functions.

Domains and ranges follow Table 1 exactly:

=========  ============  ============
function   domain        range
=========  ============  ============
cos        [0, pi/2]     [0, 1]
tan        [0, 2*pi/5]   [0, 3.08]
exp        [0, 3]        [0, 20.09]
ln         [1, 10]       [0, 2.30]
erf        [0, 3]        [0, 1]
denoise    [0, 3]        [0, 0.81]
=========  ============  ============

The AxBench ``denoise`` kernel's inner function is not specified in the
paper; we use the Gaussian weight ``0.81 * exp(-x^2)`` whose image on
``[0, 3]`` matches the reported range ``[0, 0.81]`` exactly (documented
substitution in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.boolean.truth_table import TruthTable
from repro.errors import ConfigurationError
from repro.workloads.quantization import (
    QuantizationScheme,
    quantize_real_function,
)

__all__ = ["ContinuousFunction", "CONTINUOUS_FUNCTIONS", "continuous_table"]


@dataclass(frozen=True)
class ContinuousFunction:
    """One continuous benchmark: callable plus paper domain/range."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float]
    output_range: Tuple[float, float]


def _erf(x: np.ndarray) -> np.ndarray:
    # imported on first use: scipy.special costs a large share of
    # ``import repro``, and only the erf workload needs it
    from scipy.special import erf

    return erf(x)


def _denoise(x: np.ndarray) -> np.ndarray:
    return 0.81 * np.exp(-(x**2))


CONTINUOUS_FUNCTIONS: Dict[str, ContinuousFunction] = {
    "cos": ContinuousFunction("cos", np.cos, (0.0, np.pi / 2), (0.0, 1.0)),
    "tan": ContinuousFunction(
        "tan", np.tan, (0.0, 2 * np.pi / 5), (0.0, 3.08)
    ),
    "exp": ContinuousFunction("exp", np.exp, (0.0, 3.0), (0.0, 20.09)),
    "ln": ContinuousFunction("ln", np.log, (1.0, 10.0), (0.0, 2.30)),
    "erf": ContinuousFunction("erf", _erf, (0.0, 3.0), (0.0, 1.0)),
    "denoise": ContinuousFunction(
        "denoise", _denoise, (0.0, 3.0), (0.0, 0.81)
    ),
}


def continuous_table(
    name: str,
    scheme: QuantizationScheme,
    probabilities: Optional[np.ndarray] = None,
) -> TruthTable:
    """Quantize one of the six continuous benchmarks under a scheme."""
    if name not in CONTINUOUS_FUNCTIONS:
        raise ConfigurationError(
            f"unknown continuous benchmark {name!r}; "
            f"choose from {sorted(CONTINUOUS_FUNCTIONS)}"
        )
    bench = CONTINUOUS_FUNCTIONS[name]
    return quantize_real_function(
        bench.func, scheme, bench.domain, bench.output_range, probabilities
    )
