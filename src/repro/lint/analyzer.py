"""Lint driver: parse files, run rules, filter suppressions.

The driver is deliberately boring: collect ``.py`` files, parse each
once into a :class:`FileContext` (source + AST + suppression index),
run every file-scope rule per file and every project-scope rule once
over the :class:`ProjectContext`, drop suppressed findings, and return
a sorted :class:`LintReport`.  Determinism of the *linter itself*
matters (its output is diffed in CI), so file order, rule order and
finding order are all explicitly sorted.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, select_rules
from repro.lint.suppress import SuppressionIndex, parse_suppressions

__all__ = [
    "FileContext",
    "ProjectContext",
    "LintReport",
    "lint_paths",
    "lint_sources",
]

#: directories never linted (caches, VCS internals)
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


@dataclass
class FileContext:
    """One parsed source file, as every rule sees it."""

    path: str  # display path (relative where possible)
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: dotted module name when the file sits under a package root
    #: (``repro.sim.engine``); empty for loose fixture files
    module: str = ""

    @classmethod
    def from_source(
        cls, path: str, source: str, module: str = ""
    ) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
            module=module,
        )

    def lines(self) -> List[str]:
        return self.source.splitlines()


@dataclass
class ProjectContext:
    """Every parsed file, keyed for the cross-artifact (S-series) rules."""

    files: List[FileContext] = field(default_factory=list)

    def get_module(self, module: str) -> Optional[FileContext]:
        for ctx in self.files:
            if ctx.module == module:
                return ctx
        return None


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings (or unparseable input)."""
        return 1 if (self.errors or self.parse_errors) else 0

    def as_record(self) -> dict:
        """JSON document for ``--format json`` (stable key order)."""
        return {
            "files_checked": self.files_checked,
            "parse_errors": [
                {"path": path, "message": message}
                for path, message in self.parse_errors
            ],
            "findings": [f.as_record() for f in self.findings],
        }


def _module_name(file_path: pathlib.Path) -> str:
    """Dotted module path for files under a ``repro`` package root."""
    parts = list(file_path.with_suffix("").parts)
    if "repro" not in parts:
        return ""
    parts = parts[parts.index("repro"):]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _display_path(file_path: pathlib.Path) -> str:
    try:
        return str(file_path.relative_to(pathlib.Path.cwd()))
    except ValueError:
        return str(file_path)


def iter_python_files(paths: Sequence[str]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = {}
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_dir():
            for candidate in sorted(root.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    seen[str(candidate.resolve())] = candidate
        else:
            seen[str(root.resolve())] = root
    return [seen[key] for key in sorted(seen)]


def _run_rules(
    project: ProjectContext,
    rules: Sequence[Rule],
) -> List[Finding]:
    findings: List[Finding] = []
    for ctx in project.files:
        for rule in rules:
            if rule.scope == "file":
                findings.extend(rule.check(ctx))
    for rule in rules:
        if rule.scope == "project":
            findings.extend(rule.check_project(project))
    kept = []
    for finding in findings:
        ctx = _context_for(project, finding.path)
        if ctx is not None and ctx.suppressions.is_suppressed(
            finding.line, finding.rule
        ):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


def _context_for(project: ProjectContext, path: str) -> Optional[FileContext]:
    for ctx in project.files:
        if ctx.path == path:
            return ctx
    return None


def lint_sources(
    sources: Dict[str, str],
    only: Iterable[str] = (),
    modules: Optional[Dict[str, str]] = None,
) -> LintReport:
    """Lint in-memory sources (the test fixtures' entry point).

    ``sources`` maps display path -> source text; ``modules`` optionally
    maps display path -> dotted module name (defaults to a best-effort
    guess from the path, so fixtures can impersonate real modules).
    """
    project = ProjectContext()
    parse_errors: List[Tuple[str, str]] = []
    for path in sorted(sources):
        module = (modules or {}).get(path, _module_name(pathlib.Path(path)))
        try:
            project.files.append(
                FileContext.from_source(path, sources[path], module=module)
            )
        except SyntaxError as err:
            parse_errors.append((path, f"syntax error: {err.msg} (line {err.lineno})"))
    findings = _run_rules(project, select_rules(only))
    return LintReport(
        findings=findings,
        files_checked=len(project.files),
        parse_errors=parse_errors,
    )


def lint_paths(paths: Sequence[str], only: Iterable[str] = ()) -> LintReport:
    """Lint files and/or directory trees on disk."""
    project = ProjectContext()
    parse_errors: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        display = _display_path(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as err:
            parse_errors.append((display, f"unreadable: {err}"))
            continue
        try:
            project.files.append(
                FileContext.from_source(
                    display, source, module=_module_name(file_path)
                )
            )
        except SyntaxError as err:
            parse_errors.append((display, f"syntax error: {err.msg} (line {err.lineno})"))
    findings = _run_rules(project, select_rules(only))
    return LintReport(
        findings=findings,
        files_checked=len(project.files),
        parse_errors=parse_errors,
    )
