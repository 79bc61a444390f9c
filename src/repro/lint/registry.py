"""Rule registry: every lint rule declares itself here.

A rule is a class with an ``id`` (``D101`` …), a one-line ``summary``,
a longer ``rationale`` (what breaks when the rule is violated — shown
by ``blockack lint --list-rules``), and a ``check`` method.  Two rule
scopes exist:

* ``scope = "file"`` — ``check(ctx)`` receives one
  :class:`~repro.lint.analyzer.FileContext` at a time and yields
  findings for that file.  All D- and P-series rules are file rules.
* ``scope = "project"`` — ``check(project)`` receives the whole
  :class:`~repro.lint.analyzer.ProjectContext` (every parsed file) and
  may correlate across artifacts.  Obs schema conformance (S303) is a
  project rule: it cannot be decided one file at a time.

Adding a rule (see DESIGN §15 for the policy):

1. subclass :class:`Rule` in the matching ``rules_*`` module,
2. decorate with :func:`register`,
3. add a failing fixture + a false-positive guard to
   ``tests/test_lint_rules.py`` — a rule without a test proving it
   fires does not ship.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, TYPE_CHECKING

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.analyzer import FileContext, ProjectContext

__all__ = ["Rule", "register", "all_rules", "get_rule", "rule_ids"]

_RULE_ID = re.compile(r"^[DPS]\d{3}$")


class Rule:
    """Base class for lint rules.  Subclass, set the metadata, register."""

    #: unique id: family letter + 3 digits (``D101``, ``P201``, ``S302``)
    id: str = ""
    #: one-line imperative summary ("do not call wall-clock time ...")
    summary: str = ""
    #: what breaks when violated — the reproduction claim at stake
    rationale: str = ""
    #: ``"file"`` or ``"project"`` (see module docstring)
    scope: str = "file"
    severity: Severity = Severity.ERROR

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        """Yield findings for one file (file-scope rules)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield findings across the whole tree (project-scope rules)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(
        self, path: str, line: int, col: int, message: str, **extra: object
    ) -> Finding:
        """Convenience constructor stamping this rule's id/severity."""
        return Finding(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            extra=dict(extra),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and index the rule by id."""
    rule = cls()
    if not _RULE_ID.match(rule.id):
        raise ValueError(f"bad rule id {rule.id!r} (want D/P/S + 3 digits)")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    if not rule.summary:
        raise ValueError(f"rule {rule.id} is missing a summary")
    if rule.scope not in ("file", "project"):
        raise ValueError(f"rule {rule.id}: unknown scope {rule.scope!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (D before P before S)."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def select_rules(only: Iterable[str] = ()) -> List[Rule]:
    """The rules to run: all of them, or the ``only`` subset by id."""
    wanted = [r for r in (s.strip() for s in only) if r]
    if not wanted:
        return all_rules()
    return [get_rule(rule_id) for rule_id in wanted]
