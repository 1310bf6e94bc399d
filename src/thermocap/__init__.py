"""Equilibrium interfaces and tangential waves in a thermocapillary fluid.

A thermocapillary (second-gradient) fluid stores energy in the gradients of
density and entropy.  Near the critical point its liquid-vapor interface is
a tanh front whose width, bulk densities and tension follow closed forms in
the undercooling T_c - T0, and its acceleration waves' celerity vanishes
quadratically.  eos, equilibrium, waves and scaling compute each closed form
and its numerical route (the package re-exports their __all__, importing
waves and scaling only on first access, PEP 562), checks compares the two
routes and cli is the deterministic command line.

If this import loads numpy (equilibrium does), numpy loads on one OpenBLAS
thread, so artifact bytes do not follow the core count, and os.environ is
restored; a preset OPENBLAS_NUM_THREADS, or another BLAS build, is left alone.
"""

import os
import sys

# equilibrium is the first module to import numpy, and OpenBLAS reads its
# thread count once, when numpy loads
_pin = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _pin:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import eos, equilibrium
finally:
    if _pin:
        del os.environ["OPENBLAS_NUM_THREADS"]
from .eos import *
from .equilibrium import *

# each lazy module's __all__, in its own order (tests/test_exports.py holds them equal)
_LAZY = {"scaling": ("SweepConfig", "SweepRow", "ExponentFit", "ScalingReport",
                     "VerificationSummary", "EXPONENT_TARGETS", "fit_exponent", "measured_width",
                     "tanh_deviation", "run_sweep", "verify_exponents", "report_to_csv"),
         "waves": ("WaveLocus", "CelerityResult", "jump_matrix", "jump_matrices",
                   "celerity_general", "celerity_closed", "celerity_by_determinant",
                   "celerity_roots", "celerity_at_critical_density", "dividing_surface_locus",
                   "dividing_surface_density_gradient")}

__version__ = "0.1.0"
__all__ = [*eos.__all__, *equilibrium.__all__, *_LAZY["scaling"], *_LAZY["waves"], "__version__"]


def __getattr__(name):
    # loads only the module that holds name: `from . import cli` probes here too
    for module, names in _LAZY.items():
        if name == module or name in names:
            # an import statement's route, which -X importtime reports and
            # importlib.import_module would bypass; it binds globals()[module]
            __import__(f"{__name__}.{module}")
            return globals()[module] if name == module else getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
