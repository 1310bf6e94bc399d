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
suite), cli (deterministic command line).
"""

from .eos import (
    BulkConditions,
    FluidParams,
    ThermoState,
    bulk_conditions,
    bulk_energy,
    bulk_energy_partials,
    chemical_potential_cubic,
    chemical_potential_full,
    entropy_slave,
    pressure,
    temperature,
    validate_params,
)
from .equilibrium import (
    GridConfig,
    InterfaceObservables,
    NewtonReport,
    Profile,
    bulk_states,
    closed_profile,
    equilibrium_stress_residual,
    interface_observables,
    interface_width,
    solve_full_bvp,
    stress_tensor,
    surface_tension_closed,
    surface_tension_quadrature,
)
from .scaling import (
    ScalingReport,
    SweepConfig,
    fit_exponent,
    run_sweep,
    verify_exponents,
)
from .waves import (
    CelerityResult,
    WaveLocus,
    celerity_at_critical_density,
    celerity_by_determinant,
    celerity_general,
    dividing_surface_locus,
    jump_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BulkConditions",
    "FluidParams",
    "ThermoState",
    "bulk_conditions",
    "bulk_energy",
    "bulk_energy_partials",
    "chemical_potential_cubic",
    "chemical_potential_full",
    "entropy_slave",
    "pressure",
    "temperature",
    "validate_params",
    "GridConfig",
    "InterfaceObservables",
    "NewtonReport",
    "Profile",
    "bulk_states",
    "closed_profile",
    "equilibrium_stress_residual",
    "interface_observables",
    "interface_width",
    "solve_full_bvp",
    "stress_tensor",
    "surface_tension_closed",
    "surface_tension_quadrature",
    "ScalingReport",
    "SweepConfig",
    "fit_exponent",
    "run_sweep",
    "verify_exponents",
    "CelerityResult",
    "WaveLocus",
    "celerity_at_critical_density",
    "celerity_by_determinant",
    "celerity_general",
    "dividing_surface_locus",
    "jump_matrix",
    "__version__",
]
