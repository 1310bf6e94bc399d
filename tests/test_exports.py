"""The package's export contract: each module's __all__ is the one list of
its public names, and the package re-exports all four lists.  The package
names scaling's and waves' exports itself, to load each module on first
use, and these tests hold its copies equal to the modules' lists.  Every
dataclass the modules define must be an eos.frozen_record."""

import dataclasses
import subprocess
import sys

import pytest

import thermocap
from thermocap import checks, cli, eos, equilibrium, scaling, waves

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


# every dataclass the package defines, found so that a new one is checked too
RECORDS = [obj for m in (*MODULES, checks, cli) for obj in vars(m).values()
           if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == m.__name__]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_each_record_class_shares_every_method_but_init(cls):
    # eos.frozen_record's methods: dataclass generated __init__ alone
    assert (cls.__setattr__, cls.__delattr__, cls.__repr__) == (
        eos._set_once, eos._no_delete, eos._record_repr)
    identity = cls is equilibrium.Profile  # frozen_record(eq=False)
    assert (cls.__eq__, cls.__hash__) == ((object.__eq__, object.__hash__) if identity
                                          else (eos._record_eq, eos._record_hash))


def test_no_published_name_is_dropped():
    assert PUBLISHED <= set(thermocap.__all__)
    namespace = {}
    exec("from thermocap import *", namespace)
    assert PUBLISHED <= set(namespace)


def _in_fresh_interpreter(code):
    # the module-level imports above load scaling and waves in this process,
    # so the lazy path is seen only in a new one
    proc = subprocess.run([sys.executable, "-c", "import sys, thermocap\n" + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_lazy_export_loads_its_own_module_alone():
    _in_fresh_interpreter(
        "assert not {'thermocap.scaling', 'thermocap.waves'} & set(sys.modules)\n"
        "assert thermocap.WaveLocus is thermocap.waves.WaveLocus\n"
        "assert 'thermocap.scaling' not in sys.modules\n"
        "assert thermocap.SweepConfig is thermocap.scaling.SweepConfig\n")


def test_star_import_covers_the_published_names_in_a_fresh_interpreter():
    _in_fresh_interpreter(
        "namespace = {}\n"
        "exec('from thermocap import *', namespace)\n"
        f"assert {PUBLISHED!r} <= set(namespace)\n")


def test_all_keeps_its_order_before_the_lazy_modules_load():
    _in_fresh_interpreter(
        "names = list(thermocap.__all__)\n"
        "assert '__all__' in dir(thermocap)\n"
        "from thermocap import eos, equilibrium, scaling, waves\n"
        "modules = (eos, equilibrium, scaling, waves)\n"
        "assert names == [n for m in modules for n in m.__all__] + ['__version__']\n")


def test_an_unknown_name_is_an_attribute_error_that_loads_nothing():
    _in_fresh_interpreter(
        "try:\n"
        "    thermocap.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "assert not {'thermocap.scaling', 'thermocap.waves'} & set(sys.modules)\n")
