"""Every entry point the benchmark's layer tracer wraps exists.

``benchmarks/e2e/tracer.py`` wraps the ``(module, class, attribute)``
entries of its ``ENTRY_POINTS`` from outside the program, and skips an
entry it cannot resolve, so renaming or deleting one of those seams
would silently drop a span from the traced benchmark.  This resolves
each entry the way ``Tracer.install`` does, without installing the
tracer.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracer.py"
)


def _entry_points():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry[:3] for entry in module.ENTRY_POINTS]


ENTRY_POINTS = _entry_points()


def test_the_tracer_lists_entry_points():
    assert len(ENTRY_POINTS) == len(set(ENTRY_POINTS)) > 0


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    ENTRY_POINTS,
    ids=[f"{class_name}.{attr}" for _, class_name, attr in ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, class_name, attr):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert callable(getattr(cls, attr))
