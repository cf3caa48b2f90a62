"""circsq: distinct squares in circular words.

Word algebra, square and power-class counting, factor-graph circuit
analysis, and exhaustive verification sweeps for the related counting
bounds, with a CLI frontend (``circsq --help``).
"""

# Each layer's ``__all__`` is its share of the package's interface.
from .words import *
from .squares import *
from .rauzy import *
from .verify import *

__version__ = "0.1.0"
