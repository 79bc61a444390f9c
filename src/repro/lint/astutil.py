"""Small AST helpers shared by the rule modules.

Nothing here is clever: dotted-name rendering, scope walks, and literal
extraction.  Rules stay readable because these stay dumb.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Set

__all__ = [
    "dotted_name",
    "terminal_name",
    "walk_scope",
    "top_level_functions",
    "nested_function_names",
    "imported_module_names",
    "module_level_names",
    "str_keys",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` for Name/Attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes.

    Class bodies are *not* scopes for name binding purposes and are
    descended into.  The scope node itself is not yielded.  Traversal
    is breadth-first in source order, so sibling statements are seen in
    the order they execute (the S303 record tracking relies on this).
    """
    queue: Deque[ast.AST] = deque(ast.iter_child_nodes(scope))
    while queue:
        node = queue.popleft()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            queue.extend(ast.iter_child_nodes(node))


def top_level_functions(tree: ast.Module) -> Set[str]:
    """Names bound to module-top-level function definitions."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined *inside* another function or class body.

    These pickle by qualified name and fail to import in a worker
    process, which is exactly what the P-series guards against.
    """
    top = top_level_functions(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in top:
                names.add(node.name)
    # a top-level def shadowed by a nested def of the same name stays
    # allowed: the dispatch site cannot be told apart statically, and
    # the common case is the module-level one
    return names - top


def imported_module_names(tree: ast.Module) -> Set[str]:
    """Local names bound by ``import``/``from .. import`` statements."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def module_level_names(tree: ast.Module) -> Set[str]:
    """Names assigned at module top level (the worker-mutation targets)."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(
                    elt.id for elt in target.elts if isinstance(elt, ast.Name)
                )
    return names


def str_keys(node: ast.Dict) -> Dict[str, ast.expr]:
    """Constant-string keys of a dict literal -> their value nodes.

    Non-constant keys are unverifiable statically and are skipped;
    ``**spread`` entries (key is None) likewise.
    """
    out: Dict[str, ast.expr] = {}
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out[key.value] = value
    return out
