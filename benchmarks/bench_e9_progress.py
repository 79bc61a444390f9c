"""E9 — progress: na+ns+nr+vr never falls, and na advances forever.

Regenerates the experiment's table into results/e9_<mode>.txt and
asserts the paper claim's shape reproduced.  See DESIGN.md § per-
experiment index and repro.experiments.e9_progress for the full story.
"""

from conftest import run_and_record


def test_e9_progress(benchmark, results_dir):
    run_and_record(benchmark, "e9", results_dir)
