"""Package exports resolved on first access (PEP 562).

A package lists each public name under the module that defines it;
``import repro`` then runs only the package's own ``__init__``, and
the module behind a name is imported the first time the name is read
(``repro.Gigascope``, ``from repro import Tracer``, ``import *``).  A
plain engine therefore never compiles the planes it does not enable.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def exports(namespace: Dict[str, Any], homes: Dict[str, Tuple[str, ...]]
            ) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``; ``homes`` maps a module to the names it
    exports.  A resolved name is cached in ``namespace``, so
    ``__getattr__`` runs once per name."""
    home = {name: module for module, names in homes.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
