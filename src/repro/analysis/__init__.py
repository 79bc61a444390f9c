"""Measurement aggregation: statistics, replication, and text reports."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.analysis.stats import Summary, confidence_halfwidth, percentile, summarize

if TYPE_CHECKING:
    from repro.analysis.metrics import DEFAULT_METRICS, extract, replicate
    from repro.analysis.plot import ascii_plot, sparkline
    from repro.analysis.report import format_cell, render_table
    from repro.analysis.series import Probe
    from repro.analysis.theory import (
        go_back_n_efficiency,
        pipelined_throughput_bound,
        selective_repeat_efficiency,
        stop_and_wait_throughput,
    )

__all__ = [
    "Summary",
    "summarize",
    "confidence_halfwidth",
    "percentile",
    "render_table",
    "format_cell",
    "replicate",
    "extract",
    "DEFAULT_METRICS",
    "ascii_plot",
    "sparkline",
    "Probe",
    "selective_repeat_efficiency",
    "go_back_n_efficiency",
    "stop_and_wait_throughput",
    "pipelined_throughput_bound",
]

# a session needs only the statistics; the rest loads on first use
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.analysis.metrics": ("metrics", "DEFAULT_METRICS", "extract", "replicate"),
        "repro.analysis.plot": ("plot", "ascii_plot", "sparkline"),
        "repro.analysis.report": ("report", "format_cell", "render_table"),
        "repro.analysis.series": ("series", "Probe"),
        "repro.analysis.theory": (
            "theory",
            "go_back_n_efficiency",
            "pipelined_throughput_bound",
            "selective_repeat_efficiency",
            "stop_and_wait_throughput",
        ),
    },
)
