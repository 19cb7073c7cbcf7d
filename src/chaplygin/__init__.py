"""Numerical workbench for almost-Poisson brackets of rolling rigid bodies.

Covers the reduced and full phase-space bracket structures of a ball with a
generalized rolling constraint of rank 0..3 (rank 2 is the Chaplygin
sphere), gauge transformations by 2-forms, conformal and twisted-Poisson
Hamiltonization checks, Casimirs, invariant measures, and fixed-step
dynamics with conservation diagnostics.
"""

from .brackets import *
from .dynamics import *
from .errors import *
from .geometry import *
from .rolling import *
from .scenario import *
from .verify import *

__version__ = "0.1.0"
