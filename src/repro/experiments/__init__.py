"""The E1-E12 experiment suite reproducing every claim in the paper.

Each module is one experiment; see DESIGN.md for the per-experiment index
mapping paper claims to modules and benchmark targets.  Import
:mod:`repro.experiments.registry` to enumerate or run them.
"""

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    fifo_link,
    jitter_link,
    longtail_link,
    lossy_link,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "fifo_link",
    "jitter_link",
    "lossy_link",
    "longtail_link",
]
