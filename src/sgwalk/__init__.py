"""Continuous-time quantum walks on signed graphs.

Dense, desk-scale toolkit for building signed graphs (joins, products,
cubelike graphs, double covers), decomposing their spectra, verifying
perfect state transfer and periodicity, taking equitable quotients, and
lifting walks to many-particle powers.  The ``sgwalk`` command exposes
the same operations plus a scenario verification suite.  The package
exports exactly the names in its modules' ``__all__`` lists.
"""

from .core import *
from .construct import *
from .spectral import *
from .quotient import *
from .multiparticle import *
from .scenarios import *

__version__ = "0.1.0"
