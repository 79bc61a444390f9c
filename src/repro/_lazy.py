"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package imports the modules a block-ack session runs at load time and
serves the rest of its public names through :func:`lazy_exports`, which
imports their modules on first use.  The set-up of every fresh session
then pays only for what it runs.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: Dict[str, Any],
    table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` that serve ``table``.

    ``table`` maps a module to the names ``package`` exports from it; a
    name whose module is ``<package>.<name>`` is that submodule itself.
    The first read of a name imports its module and stores the value in
    ``namespace``, the package's globals, so later reads never reach the
    hook.
    """
    homes = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module_name = homes.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
