"""Fault matrix of the `check` suite.

Each case puts one fault into one named function, in every module that
imported it by name, runs run_checks at seed 0 on the default grid at
delta_t = 0.1, 0.01 and 1e-4, and asserts the exact set of rows that fail,
or the error class where the suite stops.  A fault that should fail a row
but fails none today is a strict xfail: a threshold that comes to catch it
turns the case into an unexpected pass, and the table must be updated.
"""

from dataclasses import replace

import pytest

from thermocap import checks, cli, eos, equilibrium, scaling, waves
from thermocap.checks import run_checks
from thermocap.eos import FluidParams, bulk_conditions
from thermocap.equilibrium import GridConfig
from thermocap.errors import ModelError, UndecayedTail

_MODULES = (eos, equilibrium, waves, checks, scaling, cli)
_DELTA_TS = (1e-1, 1e-2, 1e-4)

PARTIALS = "eos-partials-vs-finite-difference"
HESSIAN = "eos-hessian-vs-finite-difference"
SLAVED = "slaved-chemical-potential-identity"
BULK = "bulk-states-at-coexistence"
PROFILE = "profile-equation-residual"
INTEGRAL = "first-integral-residual"
QUADRATURE = "surface-tension-quadrature-vs-closed"
STRESS = "equilibrium-stress-residual"
DETERMINANT = "jump-determinant-identity"
ROOT = "celerity-root-vs-closed-form"
CONSISTENCY = "dividing-surface-celerity-consistency"
TOWARD = "celerity-root-toward-critical-point"


def _scaled(factor):
    # the function's value times factor
    return lambda real: lambda *args, **kwargs: factor * real(*args, **kwargs)


def _entry(i, factor):
    # entry i of the function's tuple of arrays times factor
    def fault(real):
        def faulty(*args, **kwargs):
            out = list(real(*args, **kwargs))
            out[i] = factor * out[i]
            return tuple(out)
        return faulty
    return fault


def _field(name, factor):
    # field name of the function's frozen dataclass times factor
    def fault(real):
        def faulty(*args):
            out = real(*args)
            return replace(out, **{name: factor * getattr(out, name)})
        return faulty
    return fault


def _centre(factor):
    # the centre node of the function's array times factor: a localized fault
    def fault(real):
        def faulty(*args):
            out = real(*args)
            out[out.size // 2] *= factor
            return out
        return faulty
    return fault


def _jump_entry(row, col, factor):
    # entry (row, col) of every jump matrix times factor
    def fault(real):
        def faulty(*args):
            mat = real(*args).copy()
            mat[..., row, col] *= factor
            return mat
        return faulty
    return fault


def _solver_d(factor):
    # the coupling D times factor in the solver's equations and their Jacobian alone
    def fault(real):
        return lambda p, *args: real(replace(p, D=factor * p.D), *args)
    return {"_collocation_residual": fault, "_collocation_jacobian": fault}


class _Blind(frozenset):
    """Rows that should fail and pass today: their thresholds are absolute
    (or relative to max(1, |value|)) and lie far above the quantity's own
    scale at small delta_t.  Each is a strict xfail."""


def _cubic_fault(real):
    # 1 % of the cubic term B m^3 added
    return lambda p, rho, dt: real(p, rho, dt) + 0.01 * p.B * (rho - p.rho_c) ** 3


def _bulk_fault(**shift):
    # both bulk states with one field moved by the given function of it
    def fault(real):
        def faulty(*args):
            return tuple(replace(st, **{k: f(getattr(st, k)) for k, f in shift.items()})
                         for st in real(*args))
        return faulty
    return fault


def _laplacian_fault(real):
    # the rho div Phi term of the stress through lap_rho times 1.001
    return lambda p, rho, s, g_rho, g_s, lap_rho, lap_s: real(p, rho, s, g_rho, g_s,
                                                               1.001 * lap_rho, lap_s)


def _every(*rows):
    return (set(rows),) * len(_DELTA_TS)


# (case, {function name: fault}, outcome at each of _DELTA_TS)
_FAULTS = [
    ("none", {}, _every()),
    ("bulk_energy-x1.001", {"bulk_energy": _scaled(1.001)}, _every(PARTIALS)),
    ("hessian-rr-x1.01", {"bulk_energy_hessian": _entry(0, 1.01)}, _every(HESSIAN)),
    ("hessian-rs-x1.01", {"bulk_energy_hessian": _entry(1, 1.01)}, _every(HESSIAN)),
    ("hessian-ss-x1.01", {"bulk_energy_hessian": _entry(2, 1.01)}, _every(HESSIAN)),
    # the solver's own equations move, and it holds the front only by a force
    ("partials-rho-x1.001", {"bulk_energy_partials": _entry(0, 1.001)},
     (UndecayedTail, UndecayedTail, _Blind({PARTIALS, HESSIAN, SLAVED}))),
    ("chemical_potential_cubic-plus-1%", {"chemical_potential_cubic": _cubic_fault},
     _every(SLAVED)),
    ("entropy_slave-x(1+1e-6)", {"entropy_slave": _scaled(1.0 + 1e-6)}, _every(BULK, SLAVED)),
    ("bulk_states-rho-plus-1e-9", {"bulk_states": _bulk_fault(rho=lambda r: r + 1e-9)},
     _every(BULK)),
    ("bulk_states-s-x(1+1e-9)", {"bulk_states": _bulk_fault(s=lambda s: s * (1.0 + 1e-9))},
     ({BULK}, {BULK}, _Blind({BULK}))),
    ("tanh_front-width-x1/1.001", {"tanh_front": lambda real: lambda p, bc, y: real(
        p, bc, 1.001 * y)},
     ({INTEGRAL, PROFILE, QUADRATURE}, {PROFILE, QUADRATURE}, {QUADRATURE})),
    ("surface_tension_closed-x1.01", {"surface_tension_closed": _scaled(1.01)},
     _every(QUADRATURE)),
    ("simpson_uniform-x1.0001", {"simpson_uniform": _scaled(1.0001)}, _every(QUADRATURE)),
    ("derivative_4th-x1.001", {"derivative_4th": _scaled(1.001)},
     ({STRESS, INTEGRAL, QUADRATURE}, {QUADRATURE}, {QUADRATURE})),
    # one node off by 5e-5 at 0.1: the stress row reads 25x its threshold,
    # the first integral 2.5x, and the quadrature stays under its own
    ("derivative_4th-centre-x(1+5e-5)", {"derivative_4th": _centre(1.0 + 5e-5)},
     ({STRESS, INTEGRAL}, _Blind({STRESS, INTEGRAL}), _Blind({STRESS, INTEGRAL}))),
    ("second_derivative_4th-x1.001", {"second_derivative_4th": _scaled(1.001)},
     ({STRESS, PROFILE}, {PROFILE}, _Blind({PROFILE}))),
    ("solver-D-x1.01", _solver_d(1.01), ({STRESS}, _Blind({STRESS}), _Blind({STRESS}))),
    ("solver-D-x1.1", _solver_d(1.1), ({STRESS}, {STRESS}, _Blind({STRESS}))),
    ("solver-D-x2", _solver_d(2.0), (UndecayedTail, {STRESS}, _Blind({STRESS}))),
    ("pressure-x1.001", {"pressure": _scaled(1.001)},
     ({STRESS}, _Blind({STRESS}), _Blind({STRESS}))),
    ("stress_tensor-lap_rho-x1.001", {"stress_tensor": _laplacian_fault},
     ({STRESS}, _Blind({STRESS}), _Blind({STRESS}))),
    # the energy-flux row: rho moves the determinant by a factor, so v
    # stays and lam3 moves; D a and E a leave the determinant and move lam3
    ("jump-entry-1,2-x1.01", {"jump_matrices": _jump_entry(1, 2, 1.01)},
     _every(DETERMINANT, ROOT)),
    ("jump-entry-1,0-x1.01", {"jump_matrices": _jump_entry(1, 0, 1.01)}, _every(ROOT)),
    ("jump-entry-1,1-x1.01", {"jump_matrices": _jump_entry(1, 1, 1.01)}, _every(ROOT)),
    ("jump-entry-2,0-x1.01", {"jump_matrices": _jump_entry(2, 0, 1.01)},
     _every(DETERMINANT, ROOT, TOWARD)),
    # the capillary row's null vector breaks C lam1 + D lam2 = 0, which the root refuses
    ("jump-entry-0,1-x1.01", {"jump_matrices": _jump_entry(0, 1, 1.01)},
     (ModelError,) * len(_DELTA_TS)),
    ("celerity_at_critical_density-x1.001",
     {"celerity_at_critical_density": _field("v", 1.001)}, _every(CONSISTENCY, TOWARD)),
    ("dividing_surface_locus-g2-x1.001",
     {"dividing_surface_locus": _field("grad_s_tg_sq", 1.001)}, _every(CONSISTENCY, TOWARD)),
    ("dividing_surface_density_gradient-x1.001",
     {"dividing_surface_density_gradient": _scaled(1.001)}, _every(CONSISTENCY, TOWARD)),
]


def _cases():
    blind = pytest.mark.xfail(strict=True, reason="threshold above the row's scale")
    for case, faults, outcomes in _FAULTS:
        for dt, outcome in zip(_DELTA_TS, outcomes):
            yield pytest.param(faults, dt, outcome, id=f"{case}-dT={dt:g}",
                               marks=blind if isinstance(outcome, _Blind) else ())


def _patch(monkeypatch, name, fault):
    # fault(real) in place of the function name, in every module that holds it
    real = next(getattr(module, name) for module in _MODULES if hasattr(module, name))
    for module in _MODULES:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fault(real))


@pytest.mark.parametrize("faults, dt, outcome", _cases())
def test_check_fails_the_rows_each_fault_reaches(monkeypatch, faults, dt, outcome):
    for name, fault in faults.items():
        _patch(monkeypatch, name, fault)
    p = FluidParams()
    bc = bulk_conditions(p, delta_t=dt)
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            run_checks(p, bc, GridConfig(), 0)
    else:
        failed = {row["name"] for row in run_checks(p, bc, GridConfig(), 0) if not row["passed"]}
        assert failed == outcome


def test_every_row_has_a_fault_in_the_matrix():
    # a row that no fault fails certifies nothing
    p = FluidParams()
    names = {row["name"] for row in run_checks(p, bulk_conditions(p, delta_t=0.1),
                                               GridConfig(), 0)}
    caught = set().union(*(o for _, _, outcomes in _FAULTS for o in outcomes
                           if isinstance(o, set)))
    assert caught == names
