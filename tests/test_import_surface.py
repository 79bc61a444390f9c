"""The public import surface of the re-exporting packages.

For each package below, every ``__all__`` name resolves through
``getattr`` and through ``from <package> import *`` to the very object
its defining submodule exports, and is listed by ``dir(package)``.
Every submodule that ``import <package>`` has made reachable as an
attribute stays reachable.  A block-ack session of the paper's Sections
II/IV imports none of the modules the packages load on first use.  Each
probe runs in a fresh interpreter, so a name the package fails to serve
cannot hide behind a module another test imported first.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: package -> {defining module: the names the package exports from it}
SURFACE = {
    "repro": {
        "repro": ("__version__",),
        "repro.channel.channel": ("Channel",),
        "repro.channel.delay": ("ConstantDelay", "UniformDelay", "ExponentialDelay"),
        "repro.channel.impairments": (
            "NoLoss", "BernoulliLoss", "GilbertElliottLoss", "ScriptedLoss",
        ),
        "repro.core.messages": ("DataMessage", "BlockAck", "CumulativeAck"),
        "repro.core.numbering": ("UnboundedNumbering", "ModularNumbering"),
        "repro.core.seqnum": ("SequenceDomain", "reconstruct", "minimum_domain_size"),
        "repro.core.window": ("SenderWindow", "ReceiverWindow"),
        "repro.duplex.endpoint": ("DuplexEndpoint", "DuplexFrame"),
        "repro.duplex.runner": ("run_duplex",),
        "repro.protocols.ack_policy": (
            "EagerAckPolicy", "DelayedAckPolicy", "CountingAckPolicy",
        ),
        "repro.protocols.blockack": (
            "BlockAckSender", "BlockAckReceiver", "safe_timeout_period",
        ),
        "repro.protocols.blockack_bounded": (
            "BoundedBlockAckSender", "BoundedBlockAckReceiver",
        ),
        "repro.protocols.gobackn": ("GoBackNSender", "GoBackNReceiver"),
        "repro.protocols.registry": ("make_pair", "protocol_names"),
        "repro.protocols.selective_repeat": (
            "SelectiveRepeatSender", "SelectiveRepeatReceiver",
        ),
        "repro.protocols.stenning": ("StenningSender", "StenningReceiver"),
        "repro.sim.engine": ("Simulator",),
        "repro.sim.runner": ("run_transfer", "LinkSpec", "TransferResult"),
        "repro.sim.timers": ("Timer", "TimerBank"),
        "repro.transport.clock": ("RealtimeScheduler",),
        "repro.transport.session": ("transfer_over_udp",),
        "repro.transport.udp": ("UdpTransport",),
        "repro.wire.codec": ("encode_message", "decode_message"),
        "repro.wire.framed": ("FramedChannel",),
        "repro.workloads.sources": ("GreedySource", "PoissonSource", "BurstySource"),
    },
    "repro.protocols": {
        "repro.protocols.ack_policy": (
            "AckPolicy", "EagerAckPolicy", "DelayedAckPolicy", "CountingAckPolicy",
        ),
        "repro.protocols.alternating_bit": (
            "make_alternating_bit_sender", "make_alternating_bit_receiver",
        ),
        "repro.protocols.base": (
            "SenderEndpoint", "ReceiverEndpoint", "SenderStats", "ReceiverStats",
        ),
        "repro.protocols.blockack": (
            "BlockAckSender", "BlockAckReceiver", "safe_timeout_period", "TIMEOUT_MODES",
        ),
        "repro.protocols.blockack_bounded": (
            "BoundedBlockAckSender", "BoundedBlockAckReceiver",
        ),
        "repro.protocols.gobackn": ("GoBackNSender", "GoBackNReceiver"),
        "repro.protocols.registry": ("PROTOCOLS", "make_pair", "protocol_names"),
        "repro.protocols.sack": ("SackSender", "SackReceiver", "SackAck"),
        "repro.protocols.selective_repeat": (
            "SelectiveRepeatSender", "SelectiveRepeatReceiver",
        ),
        "repro.protocols.stenning": (
            "StenningSender", "StenningReceiver", "decode_latest",
        ),
    },
    "repro.robustness": {
        "repro.robustness.budget": ("RetryBudget", "RetryVerdict"),
        "repro.robustness.controller": ("RetransmissionController",),
        "repro.robustness.corruption": ("StateCorruption",),
        "repro.robustness.faults": ("CrashRestart", "FaultPlan"),
        "repro.robustness.rtt": ("RttEstimator",),
    },
    "repro.analysis": {
        "repro.analysis.metrics": ("DEFAULT_METRICS", "replicate", "extract"),
        "repro.analysis.plot": ("ascii_plot", "sparkline"),
        "repro.analysis.report": ("render_table", "format_cell"),
        "repro.analysis.series": ("Probe",),
        "repro.analysis.stats": (
            "Summary", "summarize", "confidence_halfwidth", "percentile",
        ),
        "repro.analysis.theory": (
            "selective_repeat_efficiency",
            "go_back_n_efficiency",
            "stop_and_wait_throughput",
            "pipelined_throughput_bound",
        ),
    },
    "repro.core": {
        "repro.core.bounded": ("BoundedSenderBook", "BoundedReceiverBook"),
        "repro.core.messages": (
            "DataMessage", "BlockAck", "CumulativeAck", "is_data", "is_ack",
        ),
        "repro.core.numbering": ("Numbering", "UnboundedNumbering", "ModularNumbering"),
        "repro.core.seqnum": ("SequenceDomain", "reconstruct", "minimum_domain_size"),
        "repro.core.window": (
            "SenderWindow", "ReceiverWindow", "AckOutcome", "AcceptOutcome",
        ),
    },
    "repro.wire": {
        "repro.wire.codec": (
            "encode_message",
            "decode_message",
            "frame_overhead",
            "CorruptFrame",
            "FrameError",
            "MAX_WIRE_SEQ",
        ),
        "repro.wire.framed": ("FramedChannel",),
    },
}

#: package -> the submodules ``import <package>`` has made reachable as
#: attributes of the package
SUBMODULES = {
    "repro": (
        "channel", "core", "duplex", "protocols", "robustness", "sim",
        "trace", "transport", "wire", "workloads",
    ),
    "repro.protocols": (
        "ack_policy", "alternating_bit", "base", "blockack", "blockack_bounded",
        "gobackn", "registry", "sack", "selective_repeat", "stenning",
        "window_core",
    ),
    "repro.robustness": (
        "budget", "controller", "corruption", "faults", "rtt",
    ),
    "repro.analysis": ("metrics", "plot", "report", "series", "stats", "theory"),
    "repro.core": ("bounded", "messages", "numbering", "seqnum", "window"),
    "repro.wire": ("codec", "framed"),
}

#: the modules the packages load on first use, and the socket modules
#: only real transports need; ``repro.obs`` loads only for observed runs
LOADED_ON_FIRST_USE = (
    "repro.transport",
    "repro.duplex",
    "repro.wire.framed",
    "repro.protocols.alternating_bit",
    "repro.protocols.blockack_bounded",
    "repro.protocols.gobackn",
    "repro.protocols.sack",
    "repro.protocols.selective_repeat",
    "repro.protocols.stenning",
    "repro.core.bounded",
    "repro.robustness.corruption",
    "repro.robustness.faults",
    "repro.analysis.metrics",
    "repro.analysis.plot",
    "repro.analysis.report",
    "repro.analysis.series",
    "repro.analysis.theory",
    "repro.obs",
    "socket",
    "selectors",
)

#: one bounded-wire block-ack transfer and one two-flow DRR session with
#: telemetry off, from a fresh interpreter; reports what they imported
#: beyond the modules the bare interpreter already held
_SESSION_PROBE = """
import json, sys
bare = set(sys.modules)
from repro import BernoulliLoss, GreedySource, LinkSpec, UniformDelay
from repro import make_pair, run_transfer
from repro.channel.arbiter import ArbiterConfig
from repro.sim.host import mixed_flows, run_flows

def link():
    return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))

sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
single = run_transfer(
    sender, receiver, GreedySource(300), forward=link(), reverse=link(), seed=1
)
shared = run_flows(
    mixed_flows("blockack", (4, 8), 300, timeout_period=12.0),
    forward=link(),
    reverse=link(),
    seed=1,
    arbiter=ArbiterConfig(rate=2.0, scheduler="drr", queue_limit=64),
)
print(json.dumps({
    "completed": [single.completed and single.in_order, shared.completed and shared.in_order],
    "loaded": sorted(set(sys.modules) - bare),
}))
"""

#: imports one package in a fresh interpreter, reads ``dir`` before
#: touching any name, then resolves every ``__all__`` name one way
#: (``getattr`` or a star import) and reports each that is not the
#: object its defining module holds
_NAMES_PROBE = """
import importlib, json, sys
package, via, homes = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
module = importlib.import_module(package)
listed = set(dir(module))
if via == "star":
    namespace = {}
    exec("from " + package + " import *", namespace)
    resolved = {name: namespace[name] for name in module.__all__}
else:
    resolved = {name: getattr(module, name) for name in module.__all__}
wrong = sorted(
    name for name, value in resolved.items()
    if value is not getattr(importlib.import_module(homes[name]), name)
)
print(json.dumps({
    "all": sorted(module.__all__),
    "undirected": sorted(set(module.__all__) - listed),
    "wrong": wrong,
}))
"""

#: imports one package in a fresh interpreter and reports each listed
#: submodule that is not reachable as the package's attribute
_SUBMODULES_PROBE = """
import importlib, json, sys
package, names = sys.argv[1], json.loads(sys.argv[2])
module = importlib.import_module(package)
listed = set(dir(module))
unreachable = []
for name in names:
    if getattr(module, name, None) is not importlib.import_module(package + "." + name):
        unreachable.append(name)
print(json.dumps({
    "undirected": sorted(set(names) - listed),
    "unreachable": unreachable,
}))
"""


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; return the JSON it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("via", ["getattr", "star"])
@pytest.mark.parametrize("package", list(SURFACE))
def test_public_names_are_their_home_objects(package, via):
    homes = {name: home for home, names in SURFACE[package].items() for name in names}
    report = run_fresh(_NAMES_PROBE, package, via, json.dumps(homes))
    assert report["all"] == sorted(homes), "the table above must list __all__"
    assert report["undirected"] == [], f"missing from dir({package})"
    assert report["wrong"] == [], f"not the defining module's object via {via}"


@pytest.mark.parametrize("package", list(SUBMODULES))
def test_submodules_stay_reachable(package):
    report = run_fresh(_SUBMODULES_PROBE, package, json.dumps(SUBMODULES[package]))
    assert report["unreachable"] == [], f"not attributes of {package}"
    assert report["undirected"] == [], f"missing from dir({package})"


def test_block_ack_sessions_import_only_what_they_run():
    report = run_fresh(_SESSION_PROBE)
    assert report["completed"] == [True, True]
    unexpected = [
        module
        for module in report["loaded"]
        if any(
            module == lazy or module.startswith(lazy + ".")
            for lazy in LOADED_ON_FIRST_USE
        )
    ]
    assert unexpected == []
