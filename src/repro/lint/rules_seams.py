"""S-series rules: cross-artifact seam contracts.

The determinism story spans files: the observability seams must stay
duck-safe (so the uninstrumented hot loops never pay for them), and
everything exported to ``.jsonl`` must match the pinned schema that CI,
``obs diff`` and external tooling parse.  These rules correlate
artifacts that no per-file linter can see together:

* :class:`TimerSeamRule` (S302) — the ``timer_observer`` seam is only
  ever invoked via ``getattr(sim, "timer_observer", None)`` + a None
  check, never as a direct attribute call.
* :class:`ObsSchemaConformanceRule` (S303) — every field name emitted
  into a typed obs record exists in the pinned
  :mod:`repro.obs.schema` field tables (required or optional).
* :class:`InstanceDictRule` (S304) — no ``vars(obj)`` or
  ``obj.__dict__``: either one gives up the inline attribute layout
  the per-message objects rely on.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.analyzer import FileContext, ProjectContext
from repro.lint.astutil import str_keys, walk_scope
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = [
    "TimerSeamRule",
    "ObsSchemaConformanceRule",
    "InstanceDictRule",
]

_SCHEMA_MODULE = "repro.obs.schema"


# ---------------------------------------------------------------------------
# S302: timer_observer seam duck-safety
# ---------------------------------------------------------------------------


@register
class TimerSeamRule(Rule):
    id = "S302"
    summary = "invoke the timer_observer seam only via getattr(sim, 'timer_observer', None)"
    rationale = (
        "The seam defaults to None on Simulator and is swapped in "
        "per run, and Timer also runs on duck-typed sims that do not "
        "define it. Direct attribute invocation "
        "(`sim.timer_observer(op, t)`) crashes on every unobserved run "
        "and couples callers to one simulator's layout. The contract is fetch-with-default then None-check, which "
        "keeps the uninstrumented hot path allocation- and branch-free."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "timer_observer"
                and node.args
            ):
                # zero-arg calls are observer *factories* (e.g.
                # CausalRecorder.timer_observer() building the hook);
                # the seam itself is always invoked with (op, timer)
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    "direct `<obj>.timer_observer(...)` invocation; fetch "
                    "via getattr(sim, 'timer_observer', None) and None-check",
                )


# ---------------------------------------------------------------------------
# S303: obs record fields must exist in the pinned schema
# ---------------------------------------------------------------------------


def _schema_tables(tree: ast.Module) -> Optional[Dict[str, Set[str]]]:
    """record type -> allowed field names, from _FIELDS ∪ _OPTIONAL_FIELDS."""
    allowed: Dict[str, Set[str]] = {}
    found_required = False
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not names or names[0] not in ("_FIELDS", "_OPTIONAL_FIELDS"):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        if names[0] == "_FIELDS":
            found_required = True
        for rec_type, fields_node in str_keys(node.value).items():
            if isinstance(fields_node, ast.Dict):
                allowed.setdefault(rec_type, set()).update(
                    str_keys(fields_node)
                )
    return allowed if found_required else None


@register
class ObsSchemaConformanceRule(Rule):
    id = "S303"
    scope = "project"
    summary = "every obs record field emitted in code exists in the pinned repro.obs schema"
    rationale = (
        "The .jsonl export is a parsed contract: CI artifacts, obs "
        "diff, and external tooling key on field names. A field emitted "
        "in code but absent from repro.obs.schema is schema drift — it "
        "ships unvalidated and breaks consumers silently. Emit only "
        "pinned fields; pin new ones in _FIELDS (required) or "
        "_OPTIONAL_FIELDS (additive) first."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        schema_ctx = project.get_module(_SCHEMA_MODULE)
        if schema_ctx is None:
            return
        allowed = _schema_tables(schema_ctx.tree)
        if allowed is None:
            yield self.finding(
                schema_ctx.path, 1, 0,
                "could not locate the `_FIELDS` literal in the schema "
                "module; the emission contract cannot be checked",
            )
            return
        for ctx in project.files:
            if ctx.module == _SCHEMA_MODULE:
                continue
            yield from self._check_file(ctx, allowed)

    def _check_file(
        self, ctx: FileContext, allowed: Dict[str, Set[str]]
    ) -> Iterator[Finding]:
        for scope in self._scopes(ctx.tree):
            # typed-record dict literals assigned to a local name may
            # grow fields via `name["field"] = ...` later in the scope
            tracked: Dict[str, str] = {}
            for node in walk_scope(scope):
                if isinstance(node, ast.Dict):
                    rec_type = self._record_type(node, allowed)
                    if rec_type is None:
                        continue
                    yield from self._check_literal(ctx, node, rec_type, allowed)
                elif isinstance(node, ast.Assign):
                    if isinstance(node.value, ast.Dict):
                        rec_type = self._record_type(node.value, allowed)
                        if rec_type is not None:
                            for target in node.targets:
                                if isinstance(target, ast.Name):
                                    tracked[target.id] = rec_type
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in tracked
                        ):
                            key = target.slice
                            if isinstance(key, ast.Constant) and isinstance(
                                key.value, str
                            ):
                                rec_type = tracked[target.value.id]
                                if key.value not in allowed[rec_type] and key.value != "type":
                                    yield self._drift(
                                        ctx, target, key.value, rec_type
                                    )

    @staticmethod
    def _scopes(tree: ast.Module) -> List[ast.AST]:
        scopes: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        return scopes

    @staticmethod
    def _record_type(
        node: ast.Dict, allowed: Dict[str, Set[str]]
    ) -> Optional[str]:
        type_node = str_keys(node).get("type")
        if (
            type_node is not None
            and isinstance(type_node, ast.Constant)
            and isinstance(type_node.value, str)
            and type_node.value in allowed
        ):
            return type_node.value
        return None

    def _check_literal(
        self,
        ctx: FileContext,
        node: ast.Dict,
        rec_type: str,
        allowed: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        for field in str_keys(node):
            if field != "type" and field not in allowed[rec_type]:
                yield self._drift(ctx, node, field, rec_type)

    def _drift(
        self, ctx: FileContext, node: ast.AST, field: str, rec_type: str
    ) -> Finding:
        return self.finding(
            ctx.path, node.lineno, node.col_offset,
            f"field `{field}` emitted for record type `{rec_type}` is not "
            "pinned in repro.obs.schema (_FIELDS/_OPTIONAL_FIELDS)",
        )


# ---------------------------------------------------------------------------
# S304: instance dicts stay unmaterialized
# ---------------------------------------------------------------------------


@register
class InstanceDictRule(Rule):
    id = "S304"
    summary = "do not read an instance dict with vars(obj) or obj.__dict__"
    rationale = (
        "CPython 3.11 and 3.12 keep instance attributes inline, named by "
        "a key table all instances of the class share, so `self.window` "
        "is a direct slot load. `vars(obj)` or `obj.__dict__` builds a "
        "real dict for that instance, and from then on every attribute "
        "read of it probes the dict, about 3x slower per read. On an "
        "endpoint or the simulator that is paid on every message. Read "
        "attributes by name; suppress with a reason where the cost is "
        "measured or off the per-message path."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "vars"
                and len(node.args) == 1
            ):
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    "`vars(obj)` materializes the instance dict; read "
                    "the attributes by name",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__dict__"
                and not _is_type_call(node.value)
            ):
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    "`obj.__dict__` materializes the instance dict; read "
                    "the attributes by name (a class namespace, "
                    "`type(obj).__dict__`, is fine)",
                )


def _is_type_call(node: ast.expr) -> bool:
    """True for ``type(x)``: its ``__dict__`` is the class namespace."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
    )
