"""Structural controllability of linear differential-algebraic systems.

Decides, from the sparsity and entry degrees of a polynomial matrix alone,
whether the system M(d/dt) w = 0 is controllable for generic parameter
values, and cross-validates every verdict with an exact symbolic oracle.

Each module declares its public names once, in its own ``__all__``; the
package exports their union, module by module.
"""

from . import bigraph, decision, errors, oracle, patterns, reduction, statespace
from .bigraph import *
from .decision import *
from .errors import *
from .oracle import *
from .patterns import *
from .reduction import *
from .statespace import *

__version__ = "0.1.0"

__all__ = (
    patterns.__all__
    + bigraph.__all__
    + reduction.__all__
    + decision.__all__
    + statespace.__all__
    + oracle.__all__
    + errors.__all__
)
