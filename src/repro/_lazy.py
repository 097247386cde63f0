"""PEP 562 lazy exports: every package ``__init__`` under ``repro`` is one table.

A package maps each public name to the submodule that defines it and
imports that submodule on the first use of the name, so ``import repro.x``
loads only its parent packages, and a process loads only what it runs. A
resolved name is cached in the package namespace: the second use is a plain
attribute read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(package: str, table: Mapping[str, str]) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` importing ``table[name]`` on first use of ``name``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(table[name], package)
        namespace[name] = getattr(module, name)
        # Importing ``.hyperband`` just bound the package attribute ``hyperband``
        # to the submodule; the export of that name (the function) must win.
        shadowed = table[name].rpartition(".")[2]
        if table.get(shadowed) == table[name]:
            namespace[shadowed] = getattr(module, shadowed)
        return namespace[name]

    return __getattr__, lambda: sorted({*namespace, *table})
