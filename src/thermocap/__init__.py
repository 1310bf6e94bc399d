"""Equilibrium interfaces and tangential waves in a thermocapillary fluid.

A thermocapillary (second-gradient) fluid stores energy in the gradients of
both density and entropy.  Near the critical point its liquid-vapor
interface is a tanh density front whose width, bulk densities and surface
tension follow closed forms in the undercooling T_c - T0, and the layer
carries isentropic acceleration waves whose celerity vanishes quadratically
at the critical point.  The package computes all of these twice, once from
the closed forms and once numerically, and checks that the two routes agree.

Modules: eos (equation of state and chemical potentials), equilibrium
(profiles, surface tension, capillary stress), waves (jump system and
celerity), scaling (power-law sweeps), checks (cross-module invariant
suite), cli (deterministic command line).  The package re-exports each
__all__ of eos, equilibrium, scaling and waves, the one list of its names.
"""

from . import eos, equilibrium, scaling, waves
from .eos import *
from .equilibrium import *
from .scaling import *
from .waves import *

__version__ = "0.1.0"
__all__ = [*eos.__all__, *equilibrium.__all__, *scaling.__all__, *waves.__all__, "__version__"]
