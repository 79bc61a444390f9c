"""D-series rules: determinism by construction.

The reproduction's headline claims — decision traces bit-identical
for a given seed, sweep results byte-identical across serial/parallel/
cached execution, everything independent of ``PYTHONHASHSEED`` — all
reduce to a handful of source-level disciplines.  Each rule here pins
one of them:

* :class:`WallClockRule` (D101) — simulated time comes from the
  simulator, never the host clock.
* :class:`GlobalRandomRule` (D102) — randomness flows through a seeded
  ``random.Random`` instance, never the module-level
  shared state.
* :class:`SetIterationRule` (D103) — ``set`` iteration order is
  ``PYTHONHASHSEED``-dependent; anything iterated must be sorted (or
  consumed order-insensitively).
* :class:`FloatTimeEqualityRule` (D104) — virtual timestamps are
  floats accumulated by addition; ``==`` on them is a latent
  platform/ordering dependence.
* :class:`IdHashOrderRule` (D105) — ``id()`` is an address and
  ``hash()`` is salted; neither may order anything.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.analyzer import FileContext
from repro.lint.astutil import dotted_name, terminal_name, walk_scope
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = [
    "WallClockRule",
    "GlobalRandomRule",
    "SetIterationRule",
    "FloatTimeEqualityRule",
    "IdHashOrderRule",
]


# ---------------------------------------------------------------------------
# D101: wall-clock calls in simulated paths
# ---------------------------------------------------------------------------

#: dotted callables that read the host clock
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
}

#: bare names that, when imported from ``time``/``datetime``, read the clock
_WALL_CLOCK_IMPORTS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "clock_gettime"),
    ("datetime", "datetime"),
}

#: module prefixes where wall-clock is the *point* — the real-time UDP
#: transport drives actual sockets, and the bench harness measures host
#: wall-clock by definition.  Everything else in the tree simulates.
_WALL_CLOCK_ALLOWED = (
    "repro.transport",
    "repro.perf.bench",
)


@register
class WallClockRule(Rule):
    id = "D101"
    summary = "no wall-clock reads (time.time/monotonic/perf_counter/datetime.now) in simulated paths"
    rationale = (
        "Simulated runs must be a pure function of (config, seed): one "
        "host-clock read in a sim path makes decision traces "
        "machine-dependent and breaks the byte-identical sweep cache. "
        "Virtual time comes from Simulator.now; only repro.transport "
        "(real sockets) and repro.perf.bench (a timing harness) may read "
        "the host clock, plus explicitly suppressed measurement lines."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module.startswith(_WALL_CLOCK_ALLOWED):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        ctx.path, node.lineno, node.col_offset,
                        f"wall-clock call `{name}()` in a simulated path; "
                        "use the simulator's virtual clock (sim.now)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if (node.module, alias.name) in _WALL_CLOCK_IMPORTS:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`from {node.module} import {alias.name}` pulls a "
                            "wall-clock reader into a simulated path",
                        )


# ---------------------------------------------------------------------------
# D102: module-level random state
# ---------------------------------------------------------------------------

#: stateful functions of the shared module-level Mersenne Twister
_GLOBAL_RANDOM_FNS = {
    "random", "randrange", "randint", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample",
    "uniform", "triangular", "expovariate", "gauss", "normalvariate",
    "lognormvariate", "vonmisesvariate", "betavariate", "gammavariate",
    "paretovariate", "weibullvariate", "binomialvariate",
    "seed", "getstate", "setstate",
}

#: constructors/classes on the random modules that are fine to name
_RANDOM_CONSTRUCTORS = {
    "Random", "SystemRandom",
    # numpy.random: seeded generator constructors
    "RandomState", "default_rng", "Generator", "MT19937", "SeedSequence",
}


@register
class GlobalRandomRule(Rule):
    id = "D102"
    summary = "no module-level random.* state; randomness flows through a seeded instance"
    rationale = (
        "The shared module-level RNG is invisible global state: any "
        "import-order change or unrelated caller perturbs the stream, "
        "and parallel sweep workers each re-seed it differently. Every "
        "draw must come from a Random instance owned by the "
        "run config, so (config, seed) reproduces the stream exactly."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                if len(parts) == 2 and parts[0] == "random":
                    if parts[1] in _GLOBAL_RANDOM_FNS:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`{name}()` uses the shared module-level RNG; "
                            "draw from a seeded random.Random instance",
                        )
                elif "random" in parts[:-1] and parts[0] in ("np", "numpy"):
                    if parts[-1] not in _RANDOM_CONSTRUCTORS:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`{name}()` uses numpy's global RNG; construct a "
                            "seeded RandomState/Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM_FNS:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`from random import {alias.name}` binds the "
                            "shared module-level RNG",
                        )


# ---------------------------------------------------------------------------
# D103: unordered set iteration
# ---------------------------------------------------------------------------


def _is_set_expr(node: ast.expr, set_vars: Set[str]) -> bool:
    """Syntactically-known set expressions (plus tracked local names)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra keeps sets sets; one known-set side suffices
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    return False


def _set_vars_of_scope(scope: ast.AST) -> Set[str]:
    """Local names that are only ever assigned set expressions.

    Single-pass, assignment-only flow: a name every one of whose
    ``=``-bindings in this scope is a syntactic set expression is
    treated as a set.  Any non-set binding (or ``for`` target, or
    parameter) disqualifies the name — conservative in the right
    direction for a linter.
    """
    candidates: Dict[str, bool] = {}
    for node in walk_scope(scope):
        if isinstance(node, ast.Assign):
            is_set = _is_set_expr(node.value, set())
            for target in node.targets:
                if isinstance(target, ast.Name):
                    prior = candidates.get(target.id, True)
                    candidates[target.id] = prior and is_set
                else:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            candidates[name_node.id] = False
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    candidates[name_node.id] = False
        elif isinstance(node, ast.AugAssign):
            # ``s |= ...`` keeps a set a set; anything else disqualifies
            if isinstance(node.target, ast.Name) and not isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                candidates[node.target.id] = False
    return {name for name, ok in candidates.items() if ok}


#: callables whose argument order is observable downstream
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed"}
#: method names whose receiver/argument order is observable
_ORDER_SENSITIVE_METHODS = {"join", "extend"}


@register
class SetIterationRule(Rule):
    id = "D103"
    summary = "no unordered set iteration feeding loops or collections; wrap in sorted()"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED and insertion "
        "history. A set iterated into a loop, list(), tuple(), join() "
        "or extend() leaks hash order into scheduling decisions and "
        "trace emission. Order-insensitive folds (sorted/min/max/sum/"
        "len/any/all, membership) are fine; dicts preserve insertion "
        "order and are not flagged."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes: list = [ctx.tree]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scopes.append(node)
        for scope in scopes:
            set_vars = _set_vars_of_scope(scope)
            yield from self._check_scope(ctx, scope, set_vars)

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, set_vars: Set[str]
    ) -> Iterator[Finding]:
        for node in walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, set_vars):
                    yield self._finding(ctx, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, set_vars):
                        # building another set from a set is order-free
                        if isinstance(node, ast.SetComp):
                            continue
                        yield self._finding(ctx, gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                method = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if name in _ORDER_SENSITIVE_CALLS or method in _ORDER_SENSITIVE_METHODS:
                    for arg in node.args:
                        if _is_set_expr(arg, set_vars):
                            yield self._finding(
                                ctx, arg, name or f".{method}()"
                            )

    def _finding(self, ctx: FileContext, node: ast.expr, where: str) -> Finding:
        return self.finding(
            ctx.path, node.lineno, node.col_offset,
            f"set iterated by {where}: order is PYTHONHASHSEED-dependent; "
            "wrap in sorted(...) or restructure",
        )


# ---------------------------------------------------------------------------
# D104: float == on virtual timestamps
# ---------------------------------------------------------------------------

_TS_EXACT = {"now", "deadline", "timestamp", "expiry", "when"}
_TS_SUFFIXES = ("time", "_at")


def _is_timestampish(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _TS_EXACT or lowered.endswith(_TS_SUFFIXES)


def _is_fractional_float(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != int(node.value)
    )


@register
class FloatTimeEqualityRule(Rule):
    id = "D104"
    summary = "no float ==/!= on virtual timestamps; compare with <=/>= or an epsilon"
    rationale = (
        "Virtual timestamps accumulate by float addition, so equality "
        "is representation-dependent: two paths to 'the same' time can "
        "differ in the last ulp and silently reorder the event queue. "
        "Exact equality is only safe against whole-number sentinels "
        "(0.0, a configured period) that were never accumulated."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                both_ts = _is_timestampish(left) and _is_timestampish(right)
                ts_vs_frac = (
                    (_is_timestampish(left) and _is_fractional_float(right))
                    or (_is_timestampish(right) and _is_fractional_float(left))
                )
                if both_ts or ts_vs_frac:
                    yield self.finding(
                        ctx.path, node.lineno, node.col_offset,
                        "float equality on virtual timestamps; use an "
                        "ordering comparison or an explicit tolerance",
                    )
                    break


# ---------------------------------------------------------------------------
# D105: id()/hash()-based ordering
# ---------------------------------------------------------------------------


def _calls_id_or_hash(node: ast.expr) -> Optional[str]:
    """Name of the offending builtin if ``node`` computes id()/hash()."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id in ("id", "hash"):
                return sub.func.id
    return None


_SORTING_CALLS = {"sorted", "min", "max"}
_SORTING_METHODS = {"sort"}


@register
class IdHashOrderRule(Rule):
    id = "D105"
    summary = "no id()/hash() as a sort key or in ordering comparisons"
    rationale = (
        "id() is a memory address and hash() is salted by "
        "PYTHONHASHSEED: both produce a different total order every "
        "process. Ordering ties must break on stable payload (seq, "
        "time, name), like the engine's (time, seq) event keys."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                method = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if name in _SORTING_CALLS or method in _SORTING_METHODS:
                    for kw in node.keywords:
                        if kw.arg != "key":
                            continue
                        offender = self._key_offender(kw.value)
                        if offender:
                            yield self.finding(
                                ctx.path, kw.value.lineno, kw.value.col_offset,
                                f"`{offender}()` used as a sort key; order by "
                                "stable payload instead",
                            )
            elif isinstance(node, ast.Compare):
                if not any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops
                ):
                    continue
                for side in (node.left, *node.comparators):
                    if (
                        isinstance(side, ast.Call)
                        and isinstance(side.func, ast.Name)
                        and side.func.id in ("id", "hash")
                    ):
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"ordering comparison on `{side.func.id}()`; "
                            "both are process-dependent",
                        )
                        break

    @staticmethod
    def _key_offender(key: ast.expr) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda):
            return _calls_id_or_hash(key.body)
        return None
