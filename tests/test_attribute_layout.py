"""The per-message objects keep their attributes inline.

CPython 3.11 and 3.12 store an instance's attributes inline, named by a
key table that every instance of the class shares, so a read such as
``self.window`` specializes to a direct slot load.  ``vars(obj)``,
``obj.__dict__``, or a late attribute name that no longer fits the
shared key table builds a real dict for that instance, and every later
read of it probes the dict instead (DESIGN §10).  Endpoints, sources,
windows, timer banks, ack policies, links and the simulator are read
dozens of times per message, so none of them may lose the inline layout.

The sessions run in a fresh interpreter: the shared key tables live for
the whole process, and what earlier tests built would change the
result.  Lint rule S304 keeps ``vars(obj)`` and ``obj.__dict__`` out of
``src/``; this test also catches late names.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info < (3, 11),
    reason="inline instance attributes are a CPython 3.11+ layout",
)

#: three block-ack sessions in one interpreter, each followed by a scan
#: of the objects its messages pass through; prints the materialized ones
_LAYOUT_PROBE = '''
import gc, json
from repro import BernoulliLoss, GreedySource, LinkSpec, UniformDelay
from repro import make_pair, run_transfer
from repro.channel.arbiter import ArbiterConfig
from repro.sim.host import mixed_flows, run_flows


def materialized(obj):
    """True when ``obj`` has a materialized instance dict.

    The garbage collector's traversal of an inline object yields its
    attribute values; once a dict has been built for the instance it
    yields that one dict, holding every attribute, instead.  The check
    reads no ``__dict__`` and calls no ``vars``, which would build the
    very dict it looks for.  A dict-valued attribute of an inline object
    is not mistaken for it: its items are not the object's attributes.
    """
    if not type(obj).__dictoffset__:
        return False  # slotted: no instance dict at all
    refs = [ref for ref in gc.get_referents(obj) if ref is not type(obj)]
    if len(refs) != 1 or type(refs[0]) is not dict or not refs[0]:
        return False
    return all(
        type(name) is str and getattr(obj, name, None) is value
        for name, value in refs[0].items()
    )


def scan(session, flows):
    found = []
    for index, (sender, receiver, source) in enumerate(flows):
        objects = {
            "sender": sender,
            "receiver": receiver,
            "source": source,
            "sender.window": sender.window,
            "receiver.window": receiver.window,
            "timer bank": sender._timers,
            "ack policy": receiver.ack_policy,
            "forward link": sender.tx,
            "reverse link": receiver.tx,
            "sender.sim": sender.sim,
        }
        for role, obj in objects.items():
            if obj is not None and materialized(obj):
                found.append(f"{session}[{index}] {role}: {type(obj).__name__}")
    return found


def link():
    return LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05))


def transfer(**telemetry):
    sender, receiver = make_pair("blockack", window=8, bounded_wire=True)
    source = GreedySource(300)
    result = run_transfer(
        sender, receiver, source, forward=link(), reverse=link(), seed=1,
        **telemetry,
    )
    assert result.completed and result.in_order
    return [(sender, receiver, source)]


report = scan("bulk", transfer())
report += scan("observed", transfer(obs=True, causal=True))
flows = mixed_flows("blockack", (4, 8, 16, 32) * 4, 10_000, timeout_period=12.0)
run_flows(
    flows, forward=link(), reverse=link(), seed=1, max_time=40.0,
    arbiter=ArbiterConfig(rate=8, scheduler="drr", queue_limit=64),
)
report += scan("shared", [(f.sender, f.receiver, f.source) for f in flows])
print(json.dumps(report))
'''


def test_per_message_objects_keep_inline_attributes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    env["REPRO_OBS_DIR"] = str(tmp_path)  # any export lands here
    completed = subprocess.run(
        [sys.executable, "-c", _LAYOUT_PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(completed.stdout.splitlines()[-1]) == []
