"""Re-exports a package loads on first use (PEP 562).

A package ``__init__`` that re-exports names from submodules a typical
run never needs (the shard plane, modular verification, protocols)
binds ``__getattr__ = lazy_exports(__name__, {...})`` instead of
importing them: the submodule is imported when one of its names is
first read from the package, and the name is then bound on the package,
so later reads are plain attribute lookups.

A lazy name must not be the name of a submodule of its package: once
that submodule is imported, the import system binds the module under
the name and ``__getattr__`` is never asked for it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str, sources: Mapping[str, tuple[str, ...]]
                 ) -> Callable[[str], object]:
    """A module ``__getattr__`` for *package*: each name in *sources*
    (relative submodule -> the names it defines) is imported from its
    submodule on first access.  *sources* stays readable as the
    function's ``sources`` attribute."""
    owner = {name: module for module, names in sources.items()
             for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    __getattr__.sources = dict(sources)
    return __getattr__
