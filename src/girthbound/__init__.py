"""Size bounds, extremal constructions, and exhaustive search for bipartite
graphs of girth 6 and 8.

The package exports exactly what its modules export: each module's
``__all__`` decides which of its names are public.  Nothing is imported
up front (PEP 562): a submodule, ``cli`` included, loads on first use, and
the first access to any other attribute, ``__all__`` or an exported name,
loads the five modules below and binds their exported names here.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("bounds", "constructions", "graphcore", "meanineq", "search")


def __getattr__(name):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    exports = [(n, getattr(m, n)) for m in modules for n in m.__all__]
    globals().update(exports, __all__=[n for n, _ in exports])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
