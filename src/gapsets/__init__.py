"""gapsets: exact enumeration of gapsets via Kunz coordinates and tilings.

A gapset is the (finite) set of gaps of a numerical semigroup.  The
package classifies gapsets and m-extensions, moves between sets and their
Kunz coordinate vectors, identifies genus-g objects with tilings of a
1 x g board, counts them exhaustively by genus / depth / multiplicity, and
evaluates the known closed formulas and bounds against that census.

The root exports each library module's `__all__`, which is the one place
that module's public API is declared.
"""

from . import census, core, formulas, kunz, sequences, tilings
from .census import *
from .core import *
from .formulas import *
from .kunz import *
from .sequences import *
from .tilings import *

__version__ = "0.1.0"

__all__ = [
    *census.__all__, *core.__all__, *formulas.__all__,
    *kunz.__all__, *sequences.__all__, *tilings.__all__,
]
