"""The package's export contract: each module's __all__ is the one list of
its public names, and the package re-exports all four lists."""

import thermocap
from thermocap import eos, equilibrium, scaling, waves

MODULES = (eos, equilibrium, scaling, waves)

# the top-level names of 0.1.0 before the re-exports; none may go
PUBLISHED = {
    "BulkConditions", "FluidParams", "ThermoState", "bulk_conditions", "bulk_energy",
    "bulk_energy_partials", "chemical_potential_cubic", "chemical_potential_full",
    "entropy_slave", "pressure", "temperature", "validate_params",
    "GridConfig", "InterfaceObservables", "NewtonReport", "Profile", "bulk_states",
    "closed_profile", "equilibrium_stress_residual", "interface_observables",
    "interface_width", "solve_full_bvp", "stress_tensor", "surface_tension_closed",
    "surface_tension_quadrature",
    "ScalingReport", "SweepConfig", "fit_exponent", "run_sweep", "verify_exponents",
    "CelerityResult", "WaveLocus", "celerity_at_critical_density",
    "celerity_by_determinant", "celerity_general", "dividing_surface_locus", "jump_matrix",
    "__version__",
}


def test_package_exports_the_four_module_lists_without_duplicates():
    # a name in two lists would be shadowed silently by the later star import
    expected = [name for m in MODULES for name in m.__all__] + ["__version__"]
    assert thermocap.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_export_is_its_modules_own_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(thermocap, name) is getattr(m, name), (m.__name__, name)


def test_no_published_name_is_dropped():
    assert PUBLISHED <= set(thermocap.__all__)
    namespace = {}
    exec("from thermocap import *", namespace)
    assert PUBLISHED <= set(namespace)
