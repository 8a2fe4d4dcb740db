"""Package exports that import their defining module on first use.

A package ``__init__`` that re-exports the generation and measurement
pipeline would load it (and scipy, through routing) into every process
that imports any module of the package: the query servers, shard
workers and the ingest writer included.  Such a package instead names
those exports here and installs the returned function as its module
``__getattr__`` (PEP 562), so ``from repro import run_pipeline`` still
works but costs nothing until it is executed.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` resolving ``exports`` (name -> module).

    The first access imports the module and binds the name in the
    package, so later accesses are ordinary attribute reads.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
