"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.obs import MetricsRegistry
from repro.obs.session import SimInstruments
from repro.sim.engine import Simulator


class InstrumentedSimulator(Simulator):
    """The heap engine with :class:`SimInstruments` attached from birth.

    Every ``schedule`` goes through the instrumented twin and every drain
    (``run``, ``run_while``, ``step``) runs the instrumented twin loop,
    so tests built on it hold those twins to the lean loops' contract.
    """

    def __init__(self) -> None:
        super().__init__()
        self.set_instruments(SimInstruments(MetricsRegistry()))


#: Engine set-ups by test id.  Engine-level and end-to-end tests run once
#: per entry.  ``fast`` is the id these tests carried when a second
#: (calendar-queue) engine existed; it is kept so test ids stay stable
#: and now selects the instrumented heap engine.
ENGINE_VARIANTS = {"default": Simulator, "fast": InstrumentedSimulator}

#: Modules that construct the simulator for a run (``SessionHost``, behind
#: ``run_transfer`` and ``run_flows``, and the ``repro.perf.bench`` workloads).
_SIMULATOR_SITES = ("repro.sim.engine", "repro.sim.host")


@pytest.fixture(params=list(ENGINE_VARIANTS))
def sim(request) -> Simulator:
    """A fresh simulator, once per entry of :data:`ENGINE_VARIANTS`."""
    return ENGINE_VARIANTS[request.param]()


def use_engine(monkeypatch, variant: str) -> None:
    """Make every run started in this test build ``variant``'s engine."""
    engine_cls = ENGINE_VARIANTS[variant]
    for module in _SIMULATOR_SITES:
        monkeypatch.setattr(f"{module}.Simulator", engine_cls)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG."""
    return random.Random(12345)


def drain(sim: Simulator, max_events: int = 1_000_000) -> None:
    """Run a simulator until its queue is empty (guarded)."""
    sim.run(max_events=max_events)
