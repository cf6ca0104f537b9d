"""Kahler geometry on unitary orbits of density operators.

The orbit of a density operator under unitary conjugation carries a symplectic
form, an integrable complex structure, and a compatible Riemannian metric.
This package materializes all three on concrete matrices, verifies their
defining identities numerically, and evaluates the geometric uncertainty
bound they induce alongside the Robertson-Schrodinger baseline.
"""

import sys as _sys

from .config import *
from .errors import *
from .operators import *
from .tangent import *
from .kahler import *
from .integrability import *
from .uncertainty import *
from .dynamics import *
from .checks import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the modules are read from
# sys.modules, since the package name ``uncertainty`` is the function
__all__ = [name for module in ("config", "errors", "operators", "tangent", "kahler",
                               "integrability", "uncertainty", "dynamics", "checks")
           for name in _sys.modules[f"{__name__}.{module}"].__all__]
