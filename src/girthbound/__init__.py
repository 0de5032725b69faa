"""Size bounds, extremal constructions, and exhaustive search for bipartite
graphs of girth 6 and 8.

The package exports exactly what its modules export: each module's
``__all__`` decides which of its names are public."""

from . import bounds, constructions, graphcore, meanineq, search
from .bounds import *
from .constructions import *
from .graphcore import *
from .meanineq import *
from .search import *

__version__ = "0.1.0"

__all__ = (
    bounds.__all__ + constructions.__all__ + graphcore.__all__ + meanineq.__all__ + search.__all__
)
