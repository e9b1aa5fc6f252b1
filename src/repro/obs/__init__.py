"""``repro.obs`` — tracing, metrics, and solver-probe observability.

The package answers "where did the time go and what did the dynamic
solver machinery actually do?" without perturbing results: every hook
is RNG-neutral, and the disabled path is a process-global null object
(:data:`~repro.obs.tracing.NULL_TRACER` / a ``None`` probe) whose cost
is a single attribute check.

Typical use is the one-liner::

    from repro.obs import observe, write_trace

    with observe() as tracer:
        decomposer.decompose(table)
    write_trace(tracer, "run.trace.json")

which the CLI exposes as ``--trace-out PATH`` and analyses with
``repro trace report``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro._version import package_version
from repro.obs.exporters import (
    chrome_trace_dict,
    jsonl_lines,
    prometheus_text,
    trace_header,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import (
    STOP_ITERATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.probe import (
    RecordingSolverProbe,
    SolverProbe,
    get_probe_factory,
    make_probe,
    set_probe_factory,
)
from repro.obs.report import load_trace, render_report, summarize_trace
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "observe",
    # tracing
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "STOP_ITERATION_BUCKETS",
    "get_metrics",
    "set_metrics",
    # probes
    "SolverProbe",
    "RecordingSolverProbe",
    "get_probe_factory",
    "set_probe_factory",
    "make_probe",
    # exporters
    "trace_header",
    "jsonl_lines",
    "write_jsonl",
    "chrome_trace_dict",
    "write_chrome_trace",
    "write_trace",
    "prometheus_text",
    # report
    "load_trace",
    "summarize_trace",
    "render_report",
    # logging
    "get_logger",
    "configure_logging",
]


@contextmanager
def observe(
    metadata: Optional[Dict] = None,
    *,
    probe_trace_every: int = 1,
) -> Iterator[Tracer]:
    """Enable tracing and solver probes for the enclosed block.

    Creates a :class:`Tracer` stamped with the package version (plus
    ``metadata``), installs it process-globally together with a
    :class:`RecordingSolverProbe` factory feeding that tracer and the
    global metrics registry, and restores the previous tracer/factory
    on exit.  Yields the tracer so callers can export its events.
    """
    tracer = Tracer(
        metadata={"repro_version": package_version(), **(metadata or {})}
    )
    previous_factory = get_probe_factory()
    set_probe_factory(
        lambda: RecordingSolverProbe(
            tracer=tracer,
            metrics=get_metrics(),
            trace_every=probe_trace_every,
        )
    )
    try:
        with tracing(tracer):
            yield tracer
    finally:
        set_probe_factory(previous_factory)
