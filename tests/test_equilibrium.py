"""Interface profile tests: grids, closed forms, the Newton solver, stress.

Frozen numbers in here come from hand derivations with the reference
constants (A = B = C = rho_c = T_c = 1, D = 0.2, E = 1) at an undercooling
of 0.01: bulk densities 1 +/- 0.1, width sqrt(50), surface tension
(2 * 0.01)^(3/2) / 3, coexistence pressure 5e-5.
"""

import importlib.machinery
import io
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import simpson, solve_bvp

from thermocap import (
    FluidParams,
    GridConfig,
    Profile,
    bulk_conditions,
    bulk_states,
    celerity_at_critical_density,
    closed_profile,
    dividing_surface_locus,
    equilibrium_stress_residual,
    interface_observables,
    interface_width,
    pressure,
    solve_full_bvp,
    stress_tensor,
    surface_tension_closed,
    surface_tension_quadrature,
)
from thermocap import cli, equilibrium
from thermocap.eos import bulk_energy_partials
from thermocap.equilibrium import (
    NewtonReport,
    derivative_4th,
    first_integral_residual,
    profile_to_csv,
    reduced_residual,
    second_derivative_4th,
    simpson_uniform,
    stress_yy_profile,
    _band_pattern,
    _coupled_jacobian_banded,
    _coupled_residual,
    _newton,
)
from thermocap.errors import (
    CriticalIsotherm,
    InvalidConfig,
    MaxIterations,
    NewtonDiverged,
    NonPositiveData,
    UndecayedTail,
)

P0 = FluidParams()
BC = bulk_conditions(P0, delta_t=0.01)


# ---------------------------------------------------------------------------
# Grid and profile invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"n_points": 1000},          # even
    {"n_points": 49},            # odd but too small
    {"n_points": 0},
    {"half_width_in_zeta": 7.9},
    {"half_width_in_zeta": 0.0},
])
def test_grid_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfig):
        GridConfig(**kwargs)


@pytest.mark.parametrize("value", ["20", True, None, 10 ** 400],
                         ids=["str", "bool", "None", "huge-int"])
def test_grid_config_reads_its_width_as_a_strict_number(value):
    # a bool, a string or an out-of-range integer is no width; each is
    # refused as a config error before any arithmetic sees it
    with pytest.raises(InvalidConfig, match=r"grid\.half_width_in_zeta"):
        GridConfig(half_width_in_zeta=value)
    assert type(GridConfig(half_width_in_zeta=20).half_width_in_zeta) is float


def test_grid_config_boundary_values_are_accepted():
    g = GridConfig(half_width_in_zeta=8.0, n_points=51)
    assert g.n_points == 51


def test_grid_config_takes_any_integer_node_count_as_an_int():
    # a numpy integer is an integer, as a numpy float is a number for the
    # width; a bool, a float or a string is still no node count
    g = GridConfig(n_points=np.int64(1001))
    assert type(g.n_points) is int and g.n_points == 1001
    for value in (True, 1001.0, "1001"):
        with pytest.raises(InvalidConfig, match="n_points must be an odd integer"):
            GridConfig(n_points=value)


def test_profile_validation():
    y = np.linspace(-1.0, 1.0, 11)
    rho = np.full(11, P0.rho_c)
    s = np.full(11, -0.005)
    with pytest.raises(ValueError, match="equal length"):
        Profile(y, rho[:-1], s, BC, provenance="test")
    with pytest.raises(ValueError, match="increasing"):
        Profile(y[::-1], rho, s, BC, provenance="test")
    with pytest.raises(ValueError, match="uniform"):
        Profile(np.concatenate([y[:-1], [y[-1] + 0.5]]), rho, s, BC, provenance="test")
    with pytest.raises(ValueError, match="5 nodes"):
        Profile(y[:4], rho[:4], s[:4], BC, provenance="test")


def test_profile_arrays_are_frozen():
    prof = closed_profile(P0, BC, GridConfig(n_points=51))
    with pytest.raises(ValueError):
        prof.rho[0] = 2.0
    assert prof.mid_index == 25
    assert prof.h == pytest.approx(prof.y[1] - prof.y[0])


def test_grid_midpoint_is_exactly_zero():
    for n in (51, 101, 1001):
        prof = closed_profile(P0, BC, GridConfig(n_points=n))
        assert prof.y[prof.mid_index] == 0.0


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_interface_width_reference_value():
    assert interface_width(P0, BC) == pytest.approx(math.sqrt(50.0), rel=1e-15)
    # width doubles when the undercooling is quartered
    bc4 = bulk_conditions(P0, delta_t=0.0025)
    assert interface_width(P0, bc4) == pytest.approx(2 * math.sqrt(50.0), rel=1e-14)


def test_interface_width_diverges_on_the_critical_isotherm():
    with pytest.raises(CriticalIsotherm):
        interface_width(P0, bulk_conditions(P0, delta_t=0.0))


@pytest.mark.parametrize("closed_form", [
    interface_width, surface_tension_closed, dividing_surface_locus,
    celerity_at_critical_density,
])
def test_closed_forms_refuse_a_state_with_no_interface(closed_form):
    # at delta_t = 2 the vapor branch is rho_v = 1 - sqrt(2) < 0: each closed
    # form refuses it with bulk_states' own error instead of answering
    bc = bulk_conditions(P0, delta_t=2.0)
    with pytest.raises(NonPositiveData) as expected:
        bulk_states(P0, bc)
    with pytest.raises(NonPositiveData) as refused:
        closed_form(P0, bc)
    assert str(refused.value) == str(expected.value)


def test_bulk_states_name_an_overflowing_slaved_entropy():
    # (A^2 / B) * delta_t overflows to inf before delta_t scales it back
    p = FluidParams(A=1e150, B=1e-10)
    with pytest.raises(OverflowError, match=r"undercooling 1e-162 overflows"):
        bulk_states(p, bulk_conditions(p, delta_t=1e-162))


def test_closed_profile_is_the_tanh_front():
    prof = closed_profile(P0, BC)
    zeta = interface_width(P0, BC)
    liquid, vapor = bulk_states(P0, BC)
    expected = P0.rho_c + 0.5 * (liquid.rho - vapor.rho) * np.tanh(prof.y / (2 * zeta))
    np.testing.assert_allclose(prof.rho, expected, rtol=1e-14, atol=1e-16)
    assert prof.rho[prof.mid_index] == P0.rho_c
    # antisymmetry about the dividing surface, exact by construction
    np.testing.assert_allclose(prof.rho + prof.rho[::-1], 2 * P0.rho_c,
                               rtol=0, atol=1e-15)
    assert prof.provenance == "closed-form"


def test_surface_tension_closed_reference_value():
    expected = (2 * 0.01) ** 1.5 / 3.0
    assert surface_tension_closed(P0, BC) == pytest.approx(expected, rel=1e-15)


def test_surface_tension_quadrature_agrees_with_closed_form():
    for dt in (1e-4, 1e-3, 1e-2, 1e-1):
        bc = bulk_conditions(P0, delta_t=dt)
        quad = surface_tension_quadrature(P0, closed_profile(P0, bc))
        assert quad == pytest.approx(surface_tension_closed(P0, bc), rel=1e-6)


@pytest.mark.parametrize("n", [101, 1000, 1001, 16001])
def test_simpson_matches_scipy_for_both_parities(n):
    # integrands that do not vanish at the ends, so an even node count
    # exposes any error in the last-interval correction
    x = np.linspace(-1.0, 2.0, n)
    h = x[1] - x[0]
    rng = np.random.default_rng(n)
    for f in (np.exp(x) * (1.0 + x * x), rng.uniform(0.5, 1.5, n)):
        assert simpson_uniform(f, h) == pytest.approx(simpson(f, dx=h), rel=1e-14, abs=0.0)


def test_quadrature_refuses_undecayed_tails():
    # 8 zeta of half-width is a legal grid but leaves a tanh tail of about
    # 7e-5 at the boundary, far beyond the 1e-6-of-the-jump budget
    short = closed_profile(P0, BC, GridConfig(half_width_in_zeta=8.0, n_points=201))
    with pytest.raises(UndecayedTail):
        surface_tension_quadrature(P0, short)


def test_interface_observables_bundle():
    prof = closed_profile(P0, BC)
    obs = interface_observables(P0, BC, prof)
    assert obs.rho_l == pytest.approx(1.1, rel=1e-15)
    assert obs.rho_v == pytest.approx(0.9, rel=1e-15)
    assert obs.zeta == pytest.approx(math.sqrt(50.0), rel=1e-15)
    assert obs.f0 == pytest.approx(2.5e-5, rel=1e-15)
    assert obs.sigma_quad == pytest.approx(obs.sigma_closed, rel=1e-6)
    assert obs.to_dict()["delta_T"] == BC.delta_t


@pytest.mark.parametrize("diagnostic", [
    interface_observables, reduced_residual, first_integral_residual])
def test_diagnostics_refuse_conditions_other_than_the_profiles_own(diagnostic):
    # the delta_T = 1e-2 front judged at delta_T = 1e-3 would mix two
    # problems: observables quoting one undercooling beside the other's
    # tension, or a residual of 9e-4 on an exact profile
    prof = closed_profile(P0, BC)
    other = bulk_conditions(P0, delta_t=1e-3)
    with pytest.raises(InvalidConfig, match=r"delta_t=0\.001.*delta_t=0\.01\)"):
        diagnostic(P0, other, prof)


# ---------------------------------------------------------------------------
# Finite-difference stencils
# ---------------------------------------------------------------------------

def test_stencils_are_exact_on_quartics():
    x = np.linspace(-2.0, 3.0, 41)
    h = x[1] - x[0]
    f = 0.3 * x ** 4 - x ** 3 + 2 * x ** 2 - 5 * x + 1
    df = 1.2 * x ** 3 - 3 * x ** 2 + 4 * x - 5
    d2f = 3.6 * x ** 2 - 6 * x + 4
    np.testing.assert_allclose(derivative_4th(f, h), df, rtol=1e-12, atol=1e-11)
    # the second-derivative stencil is central only: interior nodes 2..n-3
    np.testing.assert_allclose(second_derivative_4th(f, h), d2f[2:-2],
                               rtol=1e-12, atol=1e-10)


def test_stencils_converge_at_fourth_order():
    errs = []
    for n in (101, 201, 401):
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        err1 = np.max(np.abs(derivative_4th(np.sin(3 * x), h) - 3 * np.cos(3 * x)))
        err2 = np.max(np.abs(second_derivative_4th(np.sin(3 * x), h)
                             + 9 * np.sin(3 * x[2:-2])))
        errs.append((err1, err2))
    for i in (0, 1):
        order = math.log(errs[0][i] / errs[2][i]) / math.log(4.0)
        assert order > 3.7, f"stencil {i} converges at order {order:.2f}"


# ---------------------------------------------------------------------------
# Residual certificates of the closed profile
# ---------------------------------------------------------------------------

def test_closed_profile_residuals_at_reference_grid():
    prof = closed_profile(P0, BC)
    assert np.max(np.abs(reduced_residual(P0, BC, prof))) < 1e-10
    assert np.max(np.abs(first_integral_residual(P0, BC, prof))) < 1e-11


def test_residuals_converge_at_order_four():
    norms = []
    for n in (251, 501, 1001):
        prof = closed_profile(P0, BC, GridConfig(n_points=n))
        norms.append((np.max(np.abs(reduced_residual(P0, BC, prof))),
                      np.max(np.abs(first_integral_residual(P0, BC, prof)))))
    for i in (0, 1):
        order = math.log(norms[0][i] / norms[2][i]) / math.log(4.0)
        assert order > 3.5, f"residual {i} converges at order {order:.2f}"


def test_residual_localizes_a_point_defect():
    prof = closed_profile(P0, BC)
    rho = prof.rho.copy()
    mid = prof.mid_index
    rho[mid] += 1e-6
    bent = Profile(prof.y, rho, prof.s.copy(), BC, provenance="perturbed")
    resid = np.abs(reduced_residual(P0, BC, bent))
    # residual nodes start at index 2, so the defect lands at mid - 2
    assert np.argmax(resid) == mid - 2
    assert resid.max() > 1e-5
    assert np.max(resid[: mid - 10]) < 1e-9
    assert np.max(resid[mid + 10:]) < 1e-9


def test_uniform_bulk_profile_has_zero_residual():
    liquid, _ = bulk_states(P0, BC)
    y = np.linspace(-5.0, 5.0, 101)
    flat = Profile(y, np.full(101, liquid.rho), np.full(101, liquid.s), BC,
                   provenance="uniform-bulk")
    np.testing.assert_allclose(reduced_residual(P0, BC, flat), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def test_newton_report_invariant():
    with pytest.raises(ValueError, match="residual <= tolerance"):
        NewtonReport(iterations=3, residual_norm=1.0, converged=True,
                     damping_history=(0, 0, 0), tolerance=1e-10)


def test_full_solve_converges_quickly_at_reference_undercooling():
    prof, report = solve_full_bvp(P0, BC)
    assert report.converged
    assert report.iterations <= 10
    assert report.residual_norm <= 1e-10
    assert len(report.damping_history) == report.iterations
    assert prof.provenance == "full-solver"
    # Dirichlet closure: the truncated boundary carries the exact bulk states
    liquid, vapor = bulk_states(P0, BC)
    assert prof.rho[0] == vapor.rho and prof.rho[-1] == liquid.rho
    assert prof.s[0] == vapor.s and prof.s[-1] == liquid.s


def test_full_solution_stays_near_the_tanh_front():
    prof, _ = solve_full_bvp(P0, BC)
    seed = closed_profile(P0, BC)
    # entropy-density gradient coupling shifts the profile at O(delta_t)
    assert np.max(np.abs(prof.rho - seed.rho)) < 1e-3
    assert np.max(np.abs(prof.rho - seed.rho)) > 1e-5


def test_full_solution_satisfies_momentum_balance():
    for dt, bound in ((1e-2, 1e-7), (1e-3, 1e-9), (1e-4, 1e-11)):
        bc = bulk_conditions(P0, delta_t=dt)
        prof, report = solve_full_bvp(P0, bc)
        assert report.converged
        assert equilibrium_stress_residual(P0, prof) < bound


def test_full_solve_handles_the_large_undercooling():
    # delta_t = 0.1 has a nearly singular translation mode; the solver must
    # still reach the tolerance and keep densities inside the bulk bracket
    bc = bulk_conditions(P0, delta_t=0.1)
    prof, report = solve_full_bvp(P0, bc)
    assert report.converged
    assert report.residual_norm <= 1e-10
    assert report.iterations <= 40
    liquid, vapor = bulk_states(P0, bc)
    slack = 1e-6 * (liquid.rho - vapor.rho)
    assert prof.rho.min() >= vapor.rho - slack
    assert prof.rho.max() <= liquid.rho + slack


def test_bordered_newton_pins_the_front_at_the_large_undercooling():
    # the phase condition removes the translation mode: Newton converges
    # quadratically from the seed with full steps, the front stays exactly
    # at y = 0, and the equations themselves (not only the bordered system)
    # meet the tolerance
    bc = bulk_conditions(P0, delta_t=0.1)
    prof, report = solve_full_bvp(P0, bc)
    assert report.converged and report.iterations <= 4
    assert report.damping_history == (0,) * report.iterations
    assert prof.rho[prof.mid_index] == P0.rho_c
    plain = np.max(np.abs(_coupled_residual(P0, bc, prof.rho, prof.s, prof.h)))
    assert plain == report.residual_norm <= report.tolerance
    assert len(report.residual_history) == report.iterations
    assert report.residual_history[-1] <= report.tolerance
    assert list(report.residual_history) == sorted(report.residual_history, reverse=True)
    assert 0.0 < abs(report.phase_force) < 1e-8
    assert report.to_dict()["phase_force"] == report.phase_force


def test_line_search_rescues_a_strongly_coupled_solve():
    # a negative density-entropy coupling far from the critical point: full
    # Newton steps overshoot, and only halved steps reach the tolerance
    p = FluidParams(D=-0.5, E=0.3)
    bc = bulk_conditions(p, delta_t=0.5)
    _, report = solve_full_bvp(p, bc, GridConfig(half_width_in_zeta=40.0, n_points=1001))
    assert report.converged and report.residual_norm <= report.tolerance
    assert sum(report.damping_history) > 0


def test_line_search_refuses_a_stalled_solve_with_report():
    # on a coarse grid the residual cannot fall by any halving of the step:
    # the solve stops at the halving budget instead of taking an uphill step
    p = FluidParams(D=-0.3, E=0.3)
    bc = bulk_conditions(p, delta_t=0.9)
    with pytest.raises(NewtonDiverged, match="after 20 step halvings") as info:
        solve_full_bvp(p, bc, GridConfig(half_width_in_zeta=40.0, n_points=51))
    report = info.value.report
    assert report is not None and not report.converged
    assert report.damping_history[-1] == 20


def test_too_short_box_raises_undecayed_tail_with_report():
    # delta_t = 0.3 decays too slowly for 15 widths: the bordered system
    # converges, but only by a pinning force that leaves the equations
    # unsolved, so the solve refuses instead of running out its budget
    bc = bulk_conditions(P0, delta_t=0.3)
    with pytest.raises(UndecayedTail, match="half_width_in_zeta = 15") as info:
        solve_full_bvp(P0, bc)
    report = info.value.report
    assert not report.converged and report.iterations <= 10
    assert report.residual_history[-1] <= report.tolerance < report.residual_norm
    assert f"c = {report.phase_force:.3e}" in str(info.value)


@pytest.mark.parametrize("n", [4001, 8001, 16001])
def test_too_short_box_is_refused_alike_on_every_grid(n):
    # E = 3 decays too slowly for 15 widths at delta_t = 0.3.  At n = 16001
    # the bordered residual stalls at its rounding floor, about 1.05e-10,
    # just above the tolerance; that floor lies far below the force that
    # holds the front (|c| max|psi| ~ 1.3e-4), so the refusal is the one
    # the coarser grids give, not a divergence
    p = FluidParams(E=3.0)
    bc = bulk_conditions(p, delta_t=0.3)
    with pytest.raises(UndecayedTail, match="half_width_in_zeta = 15 truncates the tails; widen it") as info:
        solve_full_bvp(p, bc, GridConfig(n_points=n))
    report = info.value.report
    assert not report.converged
    assert report.phase_force == pytest.approx(6.076e-4, rel=1e-3)
    assert report.residual_norm == pytest.approx(1.289e-4, rel=1e-3)


@pytest.mark.parametrize("n", [8001, 16001])
@pytest.mark.parametrize("dt", [1e-1, 1e-2, 1e-3])
def test_fine_grid_is_seeded_by_a_coarse_presolve(n, dt):
    # from 8 * 1000 + 1 nodes on, a 1001-node solve over the same box
    # removes the closed seed's O(delta_t) model error, so the fine loop
    # needs one step, and lands on the closed-seeded solution
    bc = bulk_conditions(P0, delta_t=dt)
    grid = GridConfig(n_points=n)
    prof, report = solve_full_bvp(P0, bc, grid)
    assert report.converged and report.iterations == 1
    assert report.seed_points == 1001 and report.seed_iterations >= 1
    assert report.to_dict()["seed_points"] == 1001
    assert prof.rho[prof.mid_index] == P0.rho_c
    closed = closed_profile(P0, bc, grid)
    rho, s, closed_seeded = _newton(P0, bc, closed, closed.rho, closed.s)
    assert closed_seeded.iterations > 1 and closed_seeded.seed_points == 0
    assert np.max(np.abs(prof.rho - rho)) <= 1e-10
    assert np.max(np.abs(prof.s - s)) <= 1e-10


@pytest.mark.parametrize("n", [51, 1001, 4001, 7999])
def test_coarser_grids_keep_the_closed_seed_bit_for_bit(n):
    # below 8 * 1000 + 1 nodes the solve is one closed-seeded loop
    bc = bulk_conditions(P0, delta_t=0.1)
    grid = GridConfig(n_points=n)
    prof, report = solve_full_bvp(P0, bc, grid)
    closed = closed_profile(P0, bc, grid)
    rho, s, loop = _newton(P0, bc, closed, closed.rho, closed.s)
    assert report.seed_points == report.seed_iterations == 0
    assert np.array_equal(prof.rho, rho) and np.array_equal(prof.s, s)
    f = _coupled_residual(P0, bc, rho, s, closed.h)
    assert report.residual_norm == float(np.max(np.abs(f)))
    assert (report.iterations, report.damping_history, report.residual_history,
            report.phase_force) == (loop.iterations, loop.damping_history,
                                    loop.residual_history, loop.phase_force)


def test_fine_grid_still_refuses_a_box_too_short_for_the_tails():
    # only the fine solution is judged: the pre-solve's truncated profile
    # seeds it, and the fine residual still exposes the pinning force, the
    # one the closed-seeded loop finds
    bc = bulk_conditions(P0, delta_t=0.3)
    grid = GridConfig(n_points=16001)
    with pytest.raises(UndecayedTail, match="half_width_in_zeta = 15") as info:
        solve_full_bvp(P0, bc, grid)
    report = info.value.report
    assert not report.converged and report.seed_points == 1001
    assert report.residual_history[-1] <= report.tolerance < report.residual_norm
    closed = closed_profile(P0, bc, grid)
    _, _, closed_seeded = _newton(P0, bc, closed, closed.rho, closed.s)
    assert report.phase_force == pytest.approx(closed_seeded.phase_force, rel=1e-6)


@pytest.mark.parametrize("error", [NewtonDiverged, MaxIterations])
def test_presolve_failure_keeps_its_class_and_names_the_presolve(monkeypatch, error):
    def failing(p, bc, closed, *args):
        assert closed.y.size == 1001
        raise error("no convergence", NewtonReport(0, 1.0, False, (), 1e-10))

    monkeypatch.setattr(equilibrium, "_newton", failing)
    bc = bulk_conditions(P0, delta_t=0.1)
    with pytest.raises(error, match="^1001-node pre-solve: no convergence") as info:
        solve_full_bvp(P0, bc, GridConfig(n_points=16001))
    assert info.value.report.iterations == 0


def test_presolve_divergence_exits_3_from_the_cli(monkeypatch, capsys, tmp_path):
    # a singular system on the 1001-node grid only: the pre-solve fails
    real_gbsv = equilibrium._dgbsv()

    def singular_on_coarse(kl, ku, ab, b, overwrite_ab=False, overwrite_b=False):
        if b.shape[0] == 2 * 999:
            return ab, np.zeros(b.shape[0], dtype=np.int32), b, 5
        return real_gbsv(kl, ku, ab, b, overwrite_ab=overwrite_ab, overwrite_b=overwrite_b)

    monkeypatch.setattr(equilibrium, "_dgbsv", lambda: singular_on_coarse)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"grid": {"n_points": 16001}}')
    out = tmp_path / "out"
    assert cli.main(["profile", "--full", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "NewtonDiverged: 1001-node pre-solve: singular Jacobian" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("n, prefix", [(1001, ""), (16001, "1001-node pre-solve: ")])
def test_iteration_cap_raises_max_iterations_with_report(monkeypatch, n, prefix):
    # delta_t = 0.1 needs more than one step on either grid; with a budget
    # of one the solve stops at its cap, and a capped pre-solve names itself
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 1)
    bc = bulk_conditions(P0, delta_t=0.1)
    with pytest.raises(MaxIterations, match="no convergence in 1 iterations") as info:
        solve_full_bvp(P0, bc, GridConfig(n_points=n))
    assert str(info.value).startswith(prefix + "no convergence")
    report = info.value.report
    assert report.iterations == 1 and not report.converged


def test_every_newton_report_counts_its_own_history(monkeypatch):
    # a report's iteration count is the length of its histories, in every
    # solve's report and in the one each refusal carries
    reports = []

    class Recorded(NewtonReport):
        def __post_init__(self):
            super().__post_init__()
            reports.append(self)

    monkeypatch.setattr(equilibrium, "NewtonReport", Recorded)
    solve_full_bvp(P0, BC)
    solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.1), GridConfig(n_points=16001))
    with pytest.raises(UndecayedTail):
        solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.3))
    p = FluidParams(E=3.0)
    with pytest.raises(UndecayedTail):  # the loop ends at the rounding floor of G
        solve_full_bvp(p, bulk_conditions(p, delta_t=0.3), GridConfig(n_points=16001))
    p = FluidParams(D=-0.3, E=0.3)
    with pytest.raises(NewtonDiverged, match="after 20 step halvings"):
        solve_full_bvp(p, bulk_conditions(p, delta_t=0.9),
                       GridConfig(half_width_in_zeta=40.0, n_points=51))
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_MAX_ITER", 1)
        with pytest.raises(MaxIterations):
            solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.1))
    real_gbsv = equilibrium._dgbsv()
    calls = []

    def singular_on_the_second_step(kl, ku, ab, b, **kwargs):
        calls.append(b.shape[0])
        if len(calls) == 2:
            return ab, np.zeros(b.shape[0], dtype=np.int32), b, 5
        return real_gbsv(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(equilibrium, "_dgbsv", lambda: singular_on_the_second_step)
    with pytest.raises(NewtonDiverged, match="singular Jacobian at iteration 1"):
        solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.1))
    assert len(reports) == 9
    assert sum(r.iterations > 0 and not r.converged for r in reports) >= 4
    for r in reports:
        assert r.iterations == len(r.residual_history) == len(r.damping_history), r


def _overshooting_newton(monkeypatch):
    # the real solve, with one density pushed above the liquid bulk value
    real = equilibrium._newton

    def overshooting(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0][1] = 2.0
        return out

    monkeypatch.setattr(equilibrium, "_newton", overshooting)


def test_solution_outside_the_density_bracket_is_refused(monkeypatch):
    _overshooting_newton(monkeypatch)
    with pytest.raises(NewtonDiverged, match="leaves the physical density bracket"):
        solve_full_bvp(P0, BC)


def test_solution_outside_the_density_bracket_exits_3_from_the_cli(monkeypatch, capsys,
                                                                  tmp_path):
    _overshooting_newton(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["profile", "--full", "--out", str(out)]) == 3
    assert "NewtonDiverged: converged iterate leaves" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("p, dt, grid, sigma_quad", [
    # sigma_quad of the solves that converged before the bordering, frozen
    (P0, 0.3, GridConfig(half_width_in_zeta=60.0, n_points=4001), 0.14145169564049084),
    (FluidParams(E=3.0), 0.1, GridConfig(half_width_in_zeta=30.0, n_points=2001),
     0.028618319869956593),
])
def test_wide_enough_box_converges_to_the_unpinned_tension(p, dt, grid, sigma_quad):
    bc = bulk_conditions(p, delta_t=dt)
    prof, report = solve_full_bvp(p, bc, grid)
    assert report.converged and report.residual_norm <= report.tolerance
    obs = interface_observables(p, bc, prof)
    assert obs.sigma_quad == pytest.approx(sigma_quad, rel=1e-6)


def test_full_solve_follows_the_critical_potential():
    # mu_c enters the energy as mu_c*rho and the density equation as -mu_c,
    # so a shifted mu_c must leave the solved profile where it was (up to the
    # rounding-level drift the near-free translation mode allows)
    shifted = FluidParams(mu_c=0.7)
    prof, _ = solve_full_bvp(P0, BC)
    prof_shifted, report = solve_full_bvp(shifted, BC)
    assert report.converged
    np.testing.assert_allclose(prof_shifted.rho, prof.rho, rtol=0, atol=1e-8)
    np.testing.assert_allclose(prof_shifted.s, prof.s, rtol=0, atol=1e-8)
    closed = closed_profile(shifted, BC)
    assert np.max(np.abs(reduced_residual(shifted, BC, closed))) < 1e-7


@pytest.mark.parametrize("gauge", [{"mu_c": 1e6}, {"T_c": 1e6},
                                   {"mu_c": -3.0, "T_c": 7.0, "p_c": 1e6}],
                         ids=["mu_c", "T_c", "all"])
@pytest.mark.parametrize("n", [1001, 16001])
@pytest.mark.parametrize("dt", [1e-1, 1e-4])
def test_full_solve_depends_on_the_gauge_constants_only_through_delta_t(gauge, n, dt):
    # mu_c, T_c and p_c only reproduce the critical state: the equations
    # read delta_t alone, so large constants may not cost digits (formed from
    # the gauge-full energy, mu_c = 1e6 rounds the residual above _TOL)
    grid = GridConfig(n_points=n)
    prof, report = solve_full_bvp(P0, bulk_conditions(P0, delta_t=dt), grid)
    p = FluidParams(**gauge)
    prof_gauged, report_gauged = solve_full_bvp(p, bulk_conditions(p, delta_t=dt), grid)
    assert (report_gauged.iterations, report_gauged.seed_iterations) == (
        report.iterations, report.seed_iterations)
    np.testing.assert_allclose(prof_gauged.rho, prof.rho, rtol=0, atol=1e-12)
    np.testing.assert_allclose(prof_gauged.s, prof.s, rtol=0, atol=1e-12)


def test_decoupled_gradient_energy_reduces_to_single_field():
    # with D = 0 the entropy equation decouples; the density equation is
    # then exactly the reduced one and the solution hugs the tanh front
    p = FluidParams(D=0.0)
    prof, report = solve_full_bvp(p, BC)
    assert report.converged and report.iterations <= 10
    seed = closed_profile(p, BC)
    assert np.max(np.abs(prof.rho - seed.rho)) < 2e-4


def test_banded_jacobian_matches_finite_differences():
    g = GridConfig(half_width_in_zeta=8.0, n_points=51)
    bc = bulk_conditions(P0, delta_t=0.05)
    seed = closed_profile(P0, bc, g)
    rho = seed.rho.copy()
    s = seed.s.copy()
    h = seed.h
    q = rho.size - 2
    m = 2 * q
    # NaN everywhere, so a slot the assembly leaves unwritten (or a copy of
    # the buffer written in its place) cannot pass as a zero
    buf = np.full((10, m), np.nan, order="F")
    ab = _coupled_jacobian_banded(P0, bc, rho, s, _band_pattern(P0, h), buf)
    assert np.shares_memory(ab, buf) and ab.shape == (7, m)
    dense = np.zeros((m, m))
    for j in range(m):
        for i in range(max(0, j - 3), min(m, j + 4)):
            dense[i, j] = ab[3 + i - j, j]
    # symmetry is structural: the system is the gradient of an energy
    np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-12)

    def residual_of(vec):
        return _coupled_residual(P0, bc,
                                 np.concatenate([[rho[0]], vec[0::2], [rho[-1]]]),
                                 np.concatenate([[s[0]], vec[1::2], [s[-1]]]), h)

    x0 = np.empty(m)
    x0[0::2] = rho[1:-1]
    x0[1::2] = s[1:-1]
    base = residual_of(x0)
    step = 1e-7
    fd = np.zeros((m, m))
    for j in range(m):
        bumped = x0.copy()
        bumped[j] += step
        fd[:, j] = (residual_of(bumped) - base) / step
    np.testing.assert_allclose(dense, fd, rtol=2e-5, atol=1e-6)
    # the whole gbsv buffer is the checked matrix laid out, entry for entry:
    # the LU-workspace rows and the slots of neighbours off the grid are zero
    expected = np.zeros((10, m))
    for j in range(m):
        for i in range(max(0, j - 3), min(m, j + 4)):
            expected[6 + i - j, j] = dense[i, j]
    np.testing.assert_array_equal(buf, expected)


def test_full_solve_footprint_per_node():
    # a solve peaks near 400 B per node, 160 of them its one band buffer,
    # which every iteration overwrites in place; a second buffer of that
    # size, kept beside it, would take the peak past the bound
    n = 16001
    g = GridConfig(n_points=n)
    bc = bulk_conditions(P0, delta_t=0.1)
    solve_full_bvp(P0, bc, g)  # loads dgbsv outside the trace
    tracemalloc.start()
    try:
        solve_full_bvp(P0, bc, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 450.0


def test_dgbsv_is_scipys_own_routine():
    # loaded straight from scipy's compiled extension, it is the very object
    # the package route hands out, so no solve can change by a bit
    gbsv, = scipy.linalg.get_lapack_funcs(("gbsv",), dtype=np.float64)
    assert equilibrium._dgbsv() is gbsv
    assert equilibrium._dgbsv.__wrapped__() is gbsv  # a fresh load, not the cache


@pytest.mark.parametrize("direct_first", [True, False])
def test_scipy_linalg_binds_flapack_in_either_import_order(direct_first):
    # the direct load leaves scipy's package state as its own import does:
    # scipy.linalg._flapack is the package attribute and the sys.modules
    # entry, and the package route hands out the same dgbsv; no thermocap
    # finder is left on sys.meta_path
    load = "gbsv = equilibrium._dgbsv()"
    script = f"""
import sys
import numpy as np
from thermocap import equilibrium
{load if direct_first else ""}
import scipy.linalg
{"" if direct_first else load}
flapack = getattr(scipy.linalg, "_flapack", None)
print(flapack is not None, flapack is sys.modules["scipy.linalg._flapack"],
      scipy.linalg.get_lapack_funcs(("gbsv",), dtype=np.float64)[0] is gbsv,
      any(getattr(f, "__module__", "").startswith("thermocap") for f in sys.meta_path))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True", "False"]


def test_dgbsv_falls_back_to_the_package_route(monkeypatch):
    # where the extension cannot be located (an editable build, say), the
    # loader takes scipy.linalg's route and still returns the same routine
    real_find_spec = importlib.machinery.PathFinder.find_spec
    asked = []

    def no_extension(name, path=None, target=None):
        if name == "scipy.linalg._flapack":
            asked.append(name)
            return None
        return real_find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_extension)
    gbsv, = scipy.linalg.get_lapack_funcs(("gbsv",), dtype=np.float64)
    assert equilibrium._dgbsv.__wrapped__() is gbsv
    assert asked == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("n", [51, 1001, 16001])
@pytest.mark.parametrize("dt", [1e-1, 1e-4])
def test_newton_steps_match_solve_banded_bit_for_bit(monkeypatch, n, dt):
    # every step the solver takes with its Fortran buffer and a direct dgbsv
    # equals scipy's solve_banded on the same Jacobian and on both right-hand
    # sides, the Newton residual and the translation mode
    real_gbsv, = scipy.linalg.get_lapack_funcs(("gbsv",), dtype=np.float64)
    calls = []

    def checked_gbsv(kl, ku, ab, b, overwrite_ab=False, overwrite_b=False):
        assert (kl, ku) == (3, 3) and ab.shape == (10, b.shape[0]) and b.shape[1] == 2
        assert ab.flags.f_contiguous and b.flags.f_contiguous and not ab[:kl].any()
        expected = scipy.linalg.solve_banded((kl, ku), ab[kl:], b)
        lu, piv, x, info = real_gbsv(kl, ku, ab, b, overwrite_ab=overwrite_ab,
                                     overwrite_b=overwrite_b)
        assert info == 0 and np.array_equal(x, expected)
        assert np.shares_memory(lu, ab) and np.shares_memory(x, b)  # factored in place
        calls.append(b.shape[0])
        return lu, piv, x, info

    monkeypatch.setattr(equilibrium, "_dgbsv", lambda: checked_gbsv)
    bc = bulk_conditions(P0, delta_t=dt)
    _, report = solve_full_bvp(P0, bc, GridConfig(n_points=n))
    assert report.converged and report.iterations >= 1
    assert len(calls) == report.iterations + report.seed_iterations


def test_singular_newton_system_raises_with_report(monkeypatch, capsys, tmp_path):
    def singular_gbsv(kl, ku, ab, b, overwrite_ab=False, overwrite_b=False):
        return ab, np.zeros(b.size, dtype=np.int32), b, 5  # U[4, 4] == 0

    monkeypatch.setattr(equilibrium, "_dgbsv", lambda: singular_gbsv)
    with pytest.raises(NewtonDiverged, match="singular Jacobian") as info:
        solve_full_bvp(P0, BC)
    assert info.value.report.iterations == 0 and not info.value.report.converged
    # the CLI turns it into the documented numerical-failure exit with the report
    assert cli.main(["profile", "--full", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NewtonDiverged: singular Jacobian" in err and '"converged": false' in err


@pytest.mark.parametrize("target", ["_coupled_residual", "bulk_energy_hessian"])
def test_non_finite_newton_system_raises_with_report(monkeypatch, target):
    # a NaN in the right-hand side or in the Jacobian stops the solve with a
    # named error instead of reaching LAPACK (or passing as converged)
    real = getattr(equilibrium, target)

    def poisoned(*args):
        out = real(*args)
        first = out[0] if isinstance(out, tuple) else out
        first[first.size // 2] = math.nan
        return out

    monkeypatch.setattr(equilibrium, target, poisoned)
    with pytest.raises(NewtonDiverged, match="non-finite Newton system") as info:
        solve_full_bvp(P0, BC)
    assert info.value.report.iterations == 0 and not info.value.report.converged


def test_full_solution_matches_independent_collocation_solver():
    # cross-check against scipy's adaptive collocation on the first-order
    # system; agreement is limited by this solver's O(h^2) discretization
    liquid, vapor = bulk_states(P0, BC)
    det = P0.C * P0.E - P0.D * P0.D

    def rhs(y, u):
        rho, drho, s, ds = u
        gr, gs = bulk_energy_partials(P0, rho, s)
        f1 = gr - s * BC.T0 - P0.mu_c
        f2 = gs - rho * BC.T0
        return np.vstack([drho, (P0.E * f1 - P0.D * f2) / det,
                          ds, (P0.C * f2 - P0.D * f1) / det])

    def bcs(ua, ub):
        return np.array([ua[0] - vapor.rho, ua[2] - vapor.s,
                         ub[0] - liquid.rho, ub[2] - liquid.s])

    prof, _ = solve_full_bvp(P0, BC)
    seed = closed_profile(P0, BC)
    u0 = np.vstack([seed.rho, np.gradient(seed.rho, seed.y),
                    seed.s, np.gradient(seed.s, seed.y)])
    sol = solve_bvp(rhs, bcs, seed.y, u0, tol=1e-10, max_nodes=200000)
    assert sol.status == 0
    np.testing.assert_allclose(prof.rho, sol.sol(prof.y)[0], rtol=0, atol=1e-4)
    np.testing.assert_allclose(prof.s, sol.sol(prof.y)[2], rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# Capillary stress
# ---------------------------------------------------------------------------

def test_stress_is_minus_pressure_at_uniform_bulk():
    liquid, _ = bulk_states(P0, BC)
    zero = np.zeros(3)
    sig = stress_tensor(P0, liquid.rho, liquid.s, zero, zero, 0.0, 0.0)
    np.testing.assert_allclose(
        sig, -pressure(P0, liquid.rho, liquid.s) * np.eye(3), rtol=1e-14)


def test_stress_tensor_is_symmetric_for_generic_gradients():
    rng = np.random.default_rng(3)
    liquid, _ = bulk_states(P0, BC)
    for _ in range(20):
        grad_rho = rng.normal(size=3)
        grad_s = rng.normal(size=3)
        sig = stress_tensor(P0, liquid.rho, liquid.s, grad_rho, grad_s,
                            rng.normal(), rng.normal())
        np.testing.assert_allclose(sig, sig.T, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="space axis"):
        stress_tensor(P0, liquid.rho, liquid.s, np.zeros(2), np.zeros(3), 0.0, 0.0)


def test_stress_tensor_stack_equals_the_per_point_calls():
    # a (4, 5, 6) stack of random states and 3-d gradients gives every
    # point the bits its own call gives
    rng = np.random.default_rng(17)
    shape = (4, 5, 6)
    rho = rng.uniform(0.5, 1.5, shape)
    s = 0.01 * rng.normal(size=shape)
    grad_rho, grad_s = rng.normal(size=(2,) + shape + (3,))
    lap_rho, lap_s = rng.normal(size=(2,) + shape)
    stack = stress_tensor(P0, rho, s, grad_rho, grad_s, lap_rho, lap_s)
    assert stack.shape == shape + (3, 3)
    for k in np.ndindex(shape):
        one = stress_tensor(P0, float(rho[k]), float(s[k]), grad_rho[k], grad_s[k],
                            float(lap_rho[k]), float(lap_s[k]))
        assert np.array_equal(stack[k], one)


def test_normal_stress_keeps_the_bits_of_the_one_component_formula():
    # stress_yy_profile reads sigma_yy off stress_tensor with one space
    # axis; on a solved profile it equals, bit for bit, the yy component
    # written out by hand
    prof, _ = solve_full_bvp(P0, BC)
    h = prof.h
    drho = derivative_4th(prof.rho, h)[2:-2]
    ds = derivative_4th(prof.s, h)[2:-2]
    rho, s = prof.rho[2:-2], prof.s[2:-2]
    phi_y = P0.C * drho + P0.D * ds
    psi_y = P0.D * drho + P0.E * ds
    p_total = pressure(P0, rho, s) - 0.5 * (drho * phi_y + ds * psi_y)
    div_phi = (P0.C * second_derivative_4th(prof.rho, h)
               + P0.D * second_derivative_4th(prof.s, h))
    expected = -(p_total - rho * div_phi) - phi_y * drho - psi_y * ds
    y, sigma_yy = stress_yy_profile(P0, prof)
    assert np.array_equal(y, prof.y[2:-2])
    assert np.array_equal(sigma_yy, expected)


def test_normal_stress_is_constant_and_equals_bulk_traction():
    # the strong form of mechanical equilibrium: sigma_yy is a first
    # integral, equal to minus the coexistence pressure everywhere
    prof, _ = solve_full_bvp(P0, BC, GridConfig(n_points=4001))
    _, sigma_yy = stress_yy_profile(P0, prof)
    liquid, _ = bulk_states(P0, BC)
    traction = -pressure(P0, liquid.rho, liquid.s)
    assert np.ptp(sigma_yy) <= 1e-8
    assert np.max(np.abs(sigma_yy - traction)) <= 1e-8


def test_stress_residual_flags_a_non_equilibrium_profile():
    prof = closed_profile(P0, BC)
    wrong = Profile(prof.y, prof.rho, np.full_like(prof.s, -0.005), BC,
                    provenance="constant-entropy")
    assert equilibrium_stress_residual(P0, wrong) > 1e-5
    assert equilibrium_stress_residual(P0, prof) < 1e-5


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_profile_csv_roundtrip():
    prof = closed_profile(P0, BC, GridConfig(n_points=51))
    buf = io.StringIO()
    profile_to_csv(prof, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "y,rho,s"
    assert len(lines) == 52
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    np.testing.assert_array_equal(data[:, 0], prof.y)
    np.testing.assert_array_equal(data[:, 1], prof.rho)
    np.testing.assert_array_equal(data[:, 2], prof.s)
