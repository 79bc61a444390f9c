"""Formal model of the paper's protocol and an explicit-state model checker."""

from repro.verify.actions import TIMEOUT_MODES, AbstractProtocolModel, Transition
from repro.verify.explorer import Explorer, ExplorationReport
from repro.verify.faulty import GbnViolation, NaiveGbnReceiver, NaiveGbnSender
from repro.verify.invariants import (
    InvariantViolation,
    assertion_6,
    assertion_7,
    assertion_8,
    assertion_9_10_11,
    check_invariant,
    require_invariant,
)
from repro.verify.refinement import (
    RefinementReport,
    check_refinement,
    replay_trace,
)
from repro.verify.runtime import InvariantMonitor, MonitorViolation
from repro.verify.scenarios import (
    ScenarioResult,
    run_intro_scenario_blockack,
    run_intro_scenario_gbn,
)
from repro.verify.state import SystemState, initial_state

__all__ = [
    "AbstractProtocolModel",
    "Transition",
    "TIMEOUT_MODES",
    "Explorer",
    "ExplorationReport",
    "SystemState",
    "initial_state",
    "assertion_6",
    "assertion_7",
    "assertion_8",
    "assertion_9_10_11",
    "check_invariant",
    "require_invariant",
    "InvariantViolation",
    "NaiveGbnSender",
    "NaiveGbnReceiver",
    "GbnViolation",
    "ScenarioResult",
    "run_intro_scenario_gbn",
    "run_intro_scenario_blockack",
    "InvariantMonitor",
    "MonitorViolation",
    "RefinementReport",
    "check_refinement",
    "replay_trace",
]
