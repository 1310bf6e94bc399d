"""Equilibrium interfaces and tangential waves in a thermocapillary fluid.

A thermocapillary (second-gradient) fluid stores energy in the gradients of
density and entropy.  Near the critical point its liquid-vapor interface is
a tanh front whose width, bulk densities and tension follow closed forms in
the undercooling T_c - T0, and its acceleration waves' celerity vanishes
quadratically.  eos, equilibrium, waves and scaling compute each closed form
and its numerical route (the package re-exports their __all__), checks
compares the two routes and cli is the deterministic command line.

If this import is what loads numpy, numpy loads on one OpenBLAS thread, so
artifact bytes do not follow the core count, and os.environ is restored;
an OPENBLAS_NUM_THREADS already set, or another BLAS build, is left alone.
"""

import os
import sys

# equilibrium is the first module to import numpy, and OpenBLAS reads its
# thread count once, when numpy loads
_pin = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _pin:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import eos, equilibrium, scaling, waves
finally:
    if _pin:
        del os.environ["OPENBLAS_NUM_THREADS"]
from .eos import *
from .equilibrium import *
from .scaling import *
from .waves import *

__version__ = "0.1.0"
__all__ = [*eos.__all__, *equilibrium.__all__, *scaling.__all__, *waves.__all__, "__version__"]
