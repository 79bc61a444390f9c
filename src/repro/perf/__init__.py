"""Performance layer: parallel sweeps, result memoization, benchmarks.

* :mod:`repro.perf.sweep` — :class:`SweepRunner` / :func:`run_protocol_grid`
  fan independent protocol runs across a process pool and merge results
  deterministically; the sweep experiments (E2–E4, E6, E10 and E12–E17)
  route through it.
* :mod:`repro.perf.cache` — on-disk memoization of completed runs under
  ``results/cache/``, keyed by a stable hash of the full configuration.
* :mod:`repro.perf.bench` — the perf-regression harness behind the
  ``blockack perf`` CLI subcommand and the ``BENCH_<mode>.json`` files.
"""

from repro.perf.sweep import (
    MonitorSummary,
    RunConfig,
    SweepRunner,
    default_jobs,
    run_protocol_grid,
)
from repro.perf.cache import ResultCache, default_cache_root

__all__ = [
    "MonitorSummary",
    "RunConfig",
    "SweepRunner",
    "default_jobs",
    "run_protocol_grid",
    "ResultCache",
    "default_cache_root",
]
