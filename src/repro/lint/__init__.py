"""Determinism & contract static analyzer (``blockack lint``).

Everything this reproduction promises — bit-identical decision traces
for a given seed, byte-identical serial/parallel/cached sweep results,
``PYTHONHASHSEED``-independent runs — used to be enforced only
*dynamically*, by golden traces and
fuzz tests.  This package is the static analogue: an AST-based lint
pass that proves the determinism and seam contracts hold *by
construction*, on every file, on every PR.

Three rule families (see :mod:`repro.lint.registry` for the catalogue):

* **D-series (determinism)** — no wall-clock in simulated paths, no
  module-level ``random.*`` state, no unordered ``set`` iteration, no
  float ``==`` on virtual timestamps, no ``id()``/``hash()`` ordering.
* **P-series (parallelism safety)** — functions crossing the
  :mod:`repro.perf` process-pool boundary must be top-level and
  picklable; no lambdas/closures or module-global mutation in workers.
* **S-series (seam contracts)** — cross-artifact checks: the
  ``timer_observer`` seam stays duck-safe, and every obs record field
  emitted anywhere in the codebase exists in the pinned
  :mod:`repro.obs.schema`.

Findings can be silenced inline with ``# lint: ignore[RULE]`` (see
:mod:`repro.lint.suppress`); the CLI (``blockack lint`` or ``python -m
repro.lint``) exits non-zero when findings remain, which is what CI
gates on.
"""

from repro.lint.analyzer import LintReport, lint_paths, lint_sources
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, get_rule, register

# rule modules self-register on import
from repro.lint import rules_determinism, rules_parallel, rules_seams  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "Severity",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "lint_paths",
    "lint_sources",
]
