"""Layer tracer for the benchmark's traced run.

The tracer wraps, from outside the program, the entry points of each
layer (:data:`ENTRY_POINTS`), so the program itself carries no tracing
code.  Every call through a wrapped entry point becomes a span: name,
layer, start and end (``perf_counter_ns``), and the span that was open
when it began.  Spans live in flat arrays for one pass over the traced
transfers; :meth:`Tracer.fold` turns them into per-entry-point counts
and self times, and :meth:`Tracer.write_spans` writes them out.

A span's self time is its duration minus the durations of its child
spans.  The wrapper itself costs time: part of it falls inside the span
it opens and part falls in its parent.  :meth:`Tracer.calibrate`
measures both parts on no-ops; in a real run the wrapper costs more
(the program's working set evicts it from the caches), so the caller
scales the two parts to the overhead it measured against untraced runs
of the same transfers, and :meth:`Tracer.corrected` subtracts them.

Events are attributed by wrapping the callbacks the engine dispatches
(``Channel._deliver``, ``Timer._fire``, ``LinkArbiter._on_wake`` and
the sources' scheduled arrivals), not ``Simulator.schedule``: with
telemetry on, ``Simulator.set_instruments`` swaps ``schedule`` on the
instance.  An event counts as attributed only when the drain loop's
direct child span is one of those callbacks; every other event the
engine ran, including one whose unwrapped callback calls some other
wrapped entry point, is unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: (module, class, attribute, layer, role).  Roles:
#: ``span``      a timed call;
#: ``event``     a timed callback the engine dispatches: each call made
#:               directly by the drain loop is one attributed event;
#: ``drain``     the engine's event loop: its predicate argument is traced
#:               too;
#: ``cancel``    ``Timer.stop``, which also counts real cancellations;
#: ``observers`` a registration method: the observer it is given is
#:               wrapped in a span of the layer that defines the observer;
#: ``factory``   returns a callback, which is wrapped in a span of this layer.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run_while", "engine", "drain"),
    ("repro.sim.engine", "Simulator", "schedule", "engine", "span"),
    ("repro.sim.engine", "Simulator", "_schedule_instrumented", "engine", "span"),
    ("repro.sim.timers", "Timer", "start", "timers", "span"),
    ("repro.sim.timers", "Timer", "stop", "timers", "cancel"),
    ("repro.sim.timers", "Timer", "_fire", "timers", "event"),
    ("repro.sim.timers", "AdaptiveTimerBank", "start", "timers", "span"),
    ("repro.sim.timers", "TimerBank", "stop", "timers", "span"),
    ("repro.channel.channel", "Channel", "send", "channel", "span"),
    ("repro.channel.channel", "Channel", "_deliver", "channel", "event"),
    ("repro.channel.channel", "Channel", "add_observer", "channel", "observers"),
    ("repro.channel.mux", "FlowPort", "send", "mux", "span"),
    ("repro.channel.mux", "FlowPort", "add_observer", "mux", "observers"),
    ("repro.channel.mux", "FlowMux", "_demux", "mux", "span"),
    ("repro.channel.arbiter", "LinkArbiter", "submit", "arbiter", "span"),
    ("repro.channel.arbiter", "LinkArbiter", "_on_wake", "arbiter", "event"),
    ("repro.protocols.blockack", "BlockAckSender", "submit", "protocols", "span"),
    ("repro.protocols.blockack", "BlockAckSender", "on_message", "protocols", "span"),
    ("repro.protocols.blockack", "BlockAckSender", "_on_seq_timeout", "protocols", "span"),
    ("repro.protocols.blockack", "BlockAckReceiver", "on_message", "protocols", "span"),
    ("repro.workloads.sources", "Source", "_submit_one", "workloads", "span"),
    ("repro.workloads.sources", "GreedySource", "_on_window_open", "workloads", "span"),
    ("repro.workloads.sources", "PoissonSource", "_on_arrival", "workloads", "event"),
    ("repro.workloads.sources", "ReplaySource", "_on_arrival", "workloads", "event"),
    ("repro.workloads.sources", "BurstySource", "_burst", "workloads", "event"),
    ("repro.sim.host", "SessionHost", "run", "harness", "span"),
    ("repro.obs.session", "SimInstruments", "on_schedule", "obs", "span"),
    ("repro.obs.session", "SimInstruments", "on_fire", "obs", "span"),
    ("repro.obs.session", "SimInstruments", "on_cancel_discard", "obs", "span"),
    ("repro.obs.spans", "ObsRecorder", "record", "obs", "span"),
    ("repro.obs.spans", "SpanTracker", "on_submit", "obs", "span"),
    ("repro.obs.spans", "SpanTracker", "on_deliver", "obs", "span"),
    ("repro.obs.spans", "SpanTracker", "on_event", "obs", "span"),
    ("repro.obs.causal", "CausalTee", "record", "obs", "span"),
    ("repro.obs.causal", "CausalRecorder", "on_submit", "obs", "span"),
    ("repro.obs.causal", "CausalRecorder", "on_deliver", "obs", "span"),
    ("repro.obs.causal", "CausalRecorder", "on_trace", "obs", "span"),
    ("repro.obs.causal", "CausalRecorder", "timer_observer", "obs", "factory"),
    ("repro.trace.recorder", "TraceRecorder", "record", "obs", "span"),
)

LAYERS = (
    "engine", "timers", "channel", "mux", "arbiter",
    "protocols", "workloads", "harness", "obs",
)

#: module prefix -> layer, first match wins; used for observers, whose
#: layer is the module that defines them
MODULE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.timers", "timers"),
    ("repro.channel.mux", "mux"),
    ("repro.channel.arbiter", "arbiter"),
    ("repro.channel", "channel"),
    ("repro.protocols", "protocols"),
    ("repro.core", "protocols"),
    ("repro.workloads", "workloads"),
    ("repro.sim", "harness"),
    ("repro.obs", "obs"),
    ("repro.trace", "obs"),
)

ROOT_NAME = "transfer"
PREDICATE_NAME = "Simulator.run_while.predicate"


def module_layer(module: str, default: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return default


class Tracer:
    """Span recorder with install/uninstall of the entry-point wrappers."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # key -> (name, layer)
        self._key_of: Dict[Tuple[str, str], int] = {}
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._keys = array("q")
        self._stack = [-1]
        self._roots: List[int] = []  # span index of each transfer's root
        self._patched: List[Tuple[type, str, Any, bool]] = []
        self._drain_keys: set = set()
        self._event_keys: set = set()
        self.skipped: List[str] = []
        self.events = 0
        self.cancels = 0
        self.c_in = 0.0  # ns of wrapper cost inside the span it opens
        self.c_out = 0.0  # ns of wrapper cost charged to the parent span
        self._root_key = self.key(ROOT_NAME, "harness")
        self._predicate_key = self.key(PREDICATE_NAME, "harness")

    def key(self, name: str, layer: str) -> int:
        found = self._key_of.get((name, layer))
        if found is None:
            found = self._key_of[(name, layer)] = len(self.names)
            self.names.append((name, layer))
        return found

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _span(self, fn: Callable, key: int) -> Callable:
        starts, ends, parents, keys = self._starts, self._ends, self._parents, self._keys
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(keys)
            keys.append(key)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _callback_span(self, callback: Callable, default_layer: str) -> Callable:
        name = getattr(callback, "__qualname__", type(callback).__name__)
        layer = module_layer(getattr(callback, "__module__", "") or "", default_layer)
        return self._span(callback, self.key(name, layer))

    def _wrapper(self, target: Callable, name: str, layer: str, role: str) -> Callable:
        if role == "observers":

            def register(owner, observer, *args, **kwargs):
                return target(
                    owner, self._callback_span(observer, layer), *args, **kwargs
                )

            return functools.wraps(target)(register)
        if role == "factory":

            def make(*args, **kwargs):
                return self._callback_span(target(*args, **kwargs), layer)

            return functools.wraps(target)(make)
        key = self.key(name, layer)
        spanned = self._span(target, key)
        if role == "event":
            self._event_keys.add(key)
        if role == "cancel":

            def stop(timer, *args, **kwargs):
                if timer.running:
                    self.cancels += 1
                return spanned(timer, *args, **kwargs)

            return functools.wraps(target)(stop)
        if role == "drain":
            self._drain_keys.add(key)

            def drain(sim, keep_going, *args, **kwargs):
                before = sim.events_processed
                try:
                    return spanned(
                        sim, self._span(keep_going, self._predicate_key),
                        *args, **kwargs,
                    )
                finally:
                    self.events += sim.events_processed - before

            return functools.wraps(target)(drain)
        return spanned

    def install(self) -> None:
        """Patch every entry point that exists; record the ones that do not."""
        for module_name, class_name, attr, layer, role in ENTRY_POINTS:
            label = f"{module_name}.{class_name}.{attr}"
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
                target = getattr(cls, attr)
            except (ImportError, AttributeError):
                if label not in self.skipped:
                    self.skipped.append(label)
                continue
            own = attr in vars(cls)
            setattr(cls, attr, self._wrapper(target, f"{class_name}.{attr}", layer, role))
            self._patched.append((cls, attr, target, own))

    def uninstall(self) -> None:
        """Restore every patched attribute, and check that it was restored."""
        while self._patched:
            cls, attr, target, own = self._patched.pop()
            if own:
                setattr(cls, attr, target)
            else:
                delattr(cls, attr)
            if getattr(cls, attr) is not target:
                raise RuntimeError(f"could not restore {cls.__name__}.{attr}")

    def transfer(self, entry: Callable, kwargs: Dict[str, Any]) -> Any:
        """Run one transfer under a root span."""
        self._roots.append(len(self._keys))
        return self._span(entry, self._root_key)(**kwargs)

    def reset(self) -> None:
        for column in (self._starts, self._ends, self._parents, self._keys):
            del column[:]
        self._roots.clear()
        self.events = 0
        self.cancels = 0

    # ------------------------------------------------------------------
    # calibration and folding
    # ------------------------------------------------------------------

    def calibrate(self, calls: int = 50_000, rounds: int = 7) -> None:
        """Measure the wrapper's cost inside and outside the span it opens."""

        def noop(_arg: Any) -> None:
            return None

        traced = self._span(noop, self.key("calibration", "trace"))
        clock = time.perf_counter_ns
        loop = range(calls)
        inside_costs, total_costs = [], []
        for _ in range(rounds):
            self.reset()
            t0 = clock()
            for _ in loop:
                pass
            t1 = clock()
            for _ in loop:
                noop(0)
            t2 = clock()
            for _ in loop:
                traced(0)
            t3 = clock()
            call = (t2 - t1 - (t1 - t0)) / calls  # the bare call's own cost
            inside = sum(e - s for s, e in zip(self._starts, self._ends)) / calls
            inside_costs.append(inside - call)
            total_costs.append((t3 - t2 - (t2 - t1)) / calls)
        self.reset()
        self.c_in = statistics.median(inside_costs)
        self.c_out = statistics.median(total_costs) - self.c_in

    def fold(self) -> Dict[str, Any]:
        """Per-entry-point counts and self times of the current pass."""
        starts, ends, parents, keys = self._starts, self._ends, self._parents, self._keys
        total = len(keys)
        duration = array("q", (end - start for start, end in zip(starts, ends)))
        child_ns = array("q", bytes(8 * total))
        child_count = array("q", bytes(8 * total))
        for index in range(total):
            parent = parents[index]
            if parent >= 0:
                child_ns[parent] += duration[index]
                child_count[parent] += 1
        width = len(self.names)
        counts = [0] * width
        self_ns = [0] * width
        children = [0] * width
        attributed = 0
        drain_keys, event_keys = self._drain_keys, self._event_keys
        for index in range(total):
            key = keys[index]
            counts[key] += 1
            self_ns[key] += duration[index] - child_ns[index]
            children[key] += child_count[index]
            parent = parents[index]
            if key in event_keys and parent >= 0 and keys[parent] in drain_keys:
                attributed += 1
        return {
            "counts": counts,
            "self_ns": self_ns,
            "children": children,
            "root_ns": sum(duration[index] for index in self._roots),
            "events": self.events,
            "attributed": attributed,
            "cancels": self.cancels,
            "spans": total,
        }

    @staticmethod
    def corrected(profile: Dict[str, Any], inside_ns: float, outside_ns: float) -> List[float]:
        """Per-key self times less the wrapper cost each span and its children added."""
        return [
            self_ns - count * inside_ns - children * outside_ns
            for self_ns, count, children in zip(
                profile["self_ns"], profile["counts"], profile["children"]
            )
        ]

    def name_sum(self, values: List[float], name: str) -> float:
        """Sum of a folded per-key column over the keys with this span name."""
        return sum(value for value, (key_name, _) in zip(values, self.names) if key_name == name)

    def layer_sum(self, values: List[float], layer: str) -> float:
        """Sum of a folded per-key column over the keys of one layer."""
        return sum(value for value, (_, key_layer) in zip(values, self.names) if key_layer == layer)

    def write_spans(self, path) -> int:
        """Write the current pass's spans as JSON lines; returns the count.

        ``transfer`` is the index of the span's transfer within the pass.
        """
        labels = [(json.dumps(name), json.dumps(layer)) for name, layer in self.names]
        roots = self._roots + [len(self._keys)]
        with open(path, "w", encoding="utf-8") as out:
            for transfer, (first, last) in enumerate(zip(roots, roots[1:])):
                for index in range(first, last):
                    name, layer = labels[self._keys[index]]
                    parent = self._parents[index]
                    out.write(
                        f'{{"id":{index},"name":{name},"layer":{layer},'
                        f'"start_ns":{self._starts[index]},"end_ns":{self._ends[index]},'
                        f'"parent":{parent if parent >= 0 else "null"},'
                        f'"transfer":{transfer}}}\n'
                    )
        return len(self._keys)
