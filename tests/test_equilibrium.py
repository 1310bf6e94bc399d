"""Interface profile tests: grids, closed forms, the Newton solver, stress.

Frozen numbers in here come from hand derivations with the reference
constants (A = B = C = rho_c = T_c = 1, D = 0.2, E = 1) at an undercooling
of 0.01: bulk densities 1 +/- 0.1, width sqrt(50), surface tension
(2 * 0.01)^(3/2) / 3, coexistence pressure 5e-5.
"""

import io
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
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
    _Level,
    _collocation_jacobian,
    _collocation_residual,
)
from thermocap.errors import (
    CriticalIsotherm,
    InvalidConfig,
    MaxIterations,
    NewtonDiverged,
    NonPositiveData,
    UndecayedTail,
    UnderResolved,
)

P0 = FluidParams()
BC = bulk_conditions(P0, delta_t=0.01)
# a strongly coupled fluid whose delta_t = 0.1 front on the default box still
# takes two collocation levels, 40 and 80 intervals, each converged
P_REFINED = FluidParams(D=-0.5, E=0.3)


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


def test_bulk_states_refuse_a_jump_the_tail_gate_cannot_resolve():
    # 1e-6 of the jump, the share the tails are held to, must be at least
    # one spacing of the doubles at rho_c; below it neither the tail gate
    # nor the collocation's tail test measures anything
    bc = bulk_conditions(P0, delta_t=1e-19)  # 1e-6 of the jump is 2.8 spacings
    liquid, vapor = bulk_states(P0, bc)
    assert 1e-6 * (liquid.rho - vapor.rho) >= np.spacing(P0.rho_c)
    prof, report = solve_full_bvp(P0, bc)
    assert report.converged and surface_tension_quadrature(P0, prof) > 0.0
    with pytest.raises(CriticalIsotherm, match="does not separate the bulk densities"):
        bulk_states(P0, bulk_conditions(P0, delta_t=1e-21))  # 0.3 spacings


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


# the slice forms the correlation passes replace, kept as references: each
# adds a window's terms left to right and divides last

def _slice_derivative_4th(f, h):
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    return d


def _slice_second_derivative_4th(f, h):
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)


def _slice_simpson(f, h):
    odd = f[:f.size - 1 + f.size % 2]
    total = np.sum(odd[:-2:2] + 4.0 * odd[1:-1:2] + odd[2::2]) * (h / 3.0)
    if f.size % 2 == 0:
        total += h / 12.0 * (5.0 * f[-1] + 8.0 * f[-2] - f[-3])
    return float(total)


def _random_samples(rng, n):
    # samples of random sign and magnitudes 1e-6 to 1e6, one draw each, and
    # a smooth profile scaled by one such magnitude, with h from 1e-4 to 10
    x = np.linspace(-3.0, 3.0, n)
    yield (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n),
           10.0 ** rng.uniform(-4.0, 1.0))
    yield 10.0 ** rng.uniform(-6.0, 6.0) * np.tanh(x + rng.uniform()), 10.0 ** rng.uniform(-4.0, 1.0)


_STENCIL_SIZES = [5, 6, 7, 8, 9, 10, 11, 101, 1000, 1001, 4001, 16001, 20000, 20001]


@pytest.mark.parametrize("n", _STENCIL_SIZES)
def test_stencils_keep_the_bits_of_their_slice_forms(n):
    # the first derivative's kernel products (+-1, +-8, 0) are exact, so its
    # correlation pass is the slice form bit for bit; -30 f rounds, and a
    # BLAS that fuses multiply and add may round it once less, so the second
    # derivative is held to 4 eps of the sum of its terms' magnitudes
    rng = np.random.default_rng(n)
    for f, h in _random_samples(rng, n):
        assert np.array_equal(derivative_4th(f, h), _slice_derivative_4th(f, h))
        a = np.abs(f)
        terms = (a[:-4] + 16.0 * a[1:-3] + 30.0 * a[2:-2] + 16.0 * a[3:-1] + a[4:]) / (12.0 * h * h)
        gap = np.abs(second_derivative_4th(f, h) - _slice_second_derivative_4th(f, h))
        assert np.all(gap <= 4.0 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("n", [3, 4] + _STENCIL_SIZES)
def test_simpson_keeps_the_bits_of_its_slice_form(n):
    # every panel product (1, 4) is exact, so the panel sums are the slice
    # form's bit for bit, and so is their total
    rng = np.random.default_rng(n)
    for f, h in _random_samples(rng, n):
        assert simpson_uniform(f, h) == _slice_simpson(f, h)


@pytest.mark.parametrize("n", range(5))
def test_stencils_name_the_five_sample_minimum(n):
    # np.correlate swaps a kernel longer than its data: three samples would
    # give three values of a reversed window, so short data is refused
    f = np.linspace(0.0, 1.0, n)
    for stencil in (derivative_4th, second_derivative_4th):
        with pytest.raises(ValueError, match=f"{stencil.__name__} needs at least 5 samples, got {n}"):
            stencil(f, 0.25)


@pytest.mark.parametrize("n", range(3))
def test_simpson_names_the_three_sample_minimum(n):
    # one sample would read as h/3 * 2f rather than 0, and 0 or 2 would
    # index past the data
    with pytest.raises(ValueError, match=f"simpson_uniform needs at least 3 samples, got {n}"):
        simpson_uniform(np.ones(n), 0.5)


@pytest.mark.parametrize("n", [3, 4, 101, 1000])
def test_simpson_takes_array_likes_as_the_stencils_do(n):
    # a list or an int array reads as its float64 samples, bit for bit, as
    # derivative_4th and second_derivative_4th read theirs
    ints = np.random.default_rng(n).integers(-1000, 1000, n)
    expected = simpson_uniform(ints.astype(float), 0.25)
    assert simpson_uniform(ints, 0.25) == expected
    assert simpson_uniform(ints.tolist(), 0.25) == expected


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


def _recorded_levels(monkeypatch):
    # every level's (level, u, report), u = [rho - rho_c; s] at its nodes, in
    # the order the ladder solves them; a level whose Newton raises is
    # recorded as (level,)
    levels = []
    real = equilibrium._newton

    def recording(p, bc, level, *args):
        levels.append((level,))
        out = real(p, bc, level, *args)
        levels[-1] += out
        return out

    monkeypatch.setattr(equilibrium, "_newton", recording)
    return levels


def test_bordered_newton_pins_the_front_at_the_large_undercooling(monkeypatch):
    # the phase condition removes the translation mode: Newton converges
    # quadratically from the seed with full steps, the front stays exactly
    # at y = 0, and the equations themselves (not only the bordered system)
    # meet the tolerance
    levels = _recorded_levels(monkeypatch)
    bc = bulk_conditions(P0, delta_t=0.1)
    prof, report = solve_full_bvp(P0, bc)
    assert report.converged and report.iterations <= 4
    assert report.damping_history == (0,) * report.iterations
    assert prof.rho[prof.mid_index] == P0.rho_c
    level, u, last = levels[-1]
    assert last is report
    assert u[0, level.n // 2] == 0.0 and level.y[level.n // 2] == 0.0
    plain = np.max(np.abs(_collocation_residual(P0, bc, level, *u)))
    assert plain == report.residual_norm <= report.tolerance
    assert len(report.residual_history) == report.iterations
    assert report.residual_history[-1] <= report.tolerance
    assert list(report.residual_history) == sorted(report.residual_history, reverse=True)
    assert 0.0 < abs(report.phase_force) < 1e-8
    assert report.to_dict()["phase_force"] == report.phase_force


def test_line_search_rescues_a_strongly_coupled_solve(monkeypatch):
    # a negative density-entropy coupling far from the critical point: full
    # Newton steps overshoot, and only halved steps bring the first level
    # down; with no halving allowed the solve stops at its first step
    p = FluidParams(D=-0.5, E=0.3)
    bc = bulk_conditions(p, delta_t=0.5)
    grid = GridConfig(half_width_in_zeta=40.0, n_points=1001)
    levels = _recorded_levels(monkeypatch)
    _, report = solve_full_bvp(p, bc, grid)
    assert report.converged and report.residual_norm <= report.tolerance
    assert sum(levels[0][2].damping_history) > 0
    monkeypatch.setattr(equilibrium, "_MAX_DAMPING", 0)
    with pytest.raises(NewtonDiverged, match="after 0 step halvings"):
        solve_full_bvp(p, bc, grid)


def test_line_search_refuses_a_stalled_solve_with_report(monkeypatch):
    # with two halvings per step the same solve takes one damped step, then
    # no halving lowers the residual: the first level stops at the halving
    # budget instead of taking an uphill step, and its failure is the solve's
    monkeypatch.setattr(equilibrium, "_MAX_DAMPING", 2)
    levels = _recorded_levels(monkeypatch)
    p = FluidParams(D=-0.5, E=0.3)
    bc = bulk_conditions(p, delta_t=0.5)
    with pytest.raises(NewtonDiverged, match="after 2 step halvings") as info:
        solve_full_bvp(p, bc, GridConfig(half_width_in_zeta=40.0, n_points=1001))
    report = info.value.report
    assert report is not None and not report.converged and report.iterations == 1
    assert report.damping_history == (2,)
    assert [level.n for level, *_ in levels] == [equilibrium._FIRST_NODES]
    assert report.seed_points == report.seed_iterations == 0


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


def test_a_resolved_too_short_box_is_refused_without_refining(monkeypatch):
    # on 8 widths at delta_t = 0.1 the first level resolves the truncated
    # profile, so its own verdict, the box's force, is raised at once
    levels = _recorded_levels(monkeypatch)
    with pytest.raises(UndecayedTail, match="c = 1.204e-05") as info:
        solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.1), GridConfig(half_width_in_zeta=8.0))
    assert [level.n for level, *_ in levels] == [equilibrium._FIRST_NODES]
    assert info.value.report.seed_points == info.value.report.seed_iterations == 0


@pytest.mark.parametrize("n", [4001, 8001, 16001])
def test_too_short_box_is_refused_alike_on_every_grid(n):
    # E = 3 decays too slowly for 15 widths at delta_t = 0.3: every grid
    # gets the one refusal, with the one force, since the collocation does
    # not depend on the grid the profile would be returned on
    p = FluidParams(E=3.0)
    bc = bulk_conditions(p, delta_t=0.3)
    with pytest.raises(UndecayedTail, match="half_width_in_zeta = 15 truncates the tails; widen it") as info:
        solve_full_bvp(p, bc, GridConfig(n_points=n))
    report = info.value.report
    assert not report.converged
    assert report.phase_force == pytest.approx(6.076e-4, rel=1e-3)
    assert report.residual_norm == pytest.approx(1.289e-4, rel=1e-3)


@pytest.mark.parametrize("p, dt, half_width, ladder", [
    (P0, 1e-1, 15.0, [40]), (P0, 8e-2, 15.0, [40]), (P0, 5e-2, 15.0, [40]),
    (P0, 1e-2, 15.0, [40]), (P0, 1e-4, 15.0, [40]), (P0, 1e-6, 15.0, [40]),
    (P_REFINED, 0.5, 40.0, [40, 80, 160]),
])
def test_default_box_is_resolved_within_two_levels(monkeypatch, p, dt, half_width, ladder):
    # with the map scale at 6 widths, 40 intervals resolve the default
    # constants on their box up to the delta_t ~ 0.12 where it refuses the
    # tails; the strongly coupled front on 40 widths still needs 160
    levels = _recorded_levels(monkeypatch)
    _, report = solve_full_bvp(p, bulk_conditions(p, delta_t=dt),
                               GridConfig(half_width_in_zeta=half_width))
    assert [level.n for level, *_ in levels] == ladder
    assert report.seed_points == (ladder[-2] if len(ladder) > 1 else 0)


def test_an_unresolved_level_seeds_a_finer_one(monkeypatch):
    # the strongly coupled front needs more than 80 intervals: the coarser
    # levels' bordered solves end with the equations unsolved and their
    # coefficients undecayed, and each seeds the next by its interpolant,
    # until 160 intervals converge in a few full steps
    levels = _recorded_levels(monkeypatch)
    p = FluidParams(D=-0.5, E=0.3)
    bc = bulk_conditions(p, delta_t=0.5)
    grid = GridConfig(half_width_in_zeta=40.0, n_points=1001)
    _, report = solve_full_bvp(p, bc, grid)
    assert [level.n for level, *_ in levels] == [40, 80, 160]
    assert not any(coarse.converged for _, _, coarse in levels[:-1])
    assert report.converged and report.damping_history == (0,) * report.iterations
    assert (report.seed_points, report.seed_iterations) == (80, levels[1][2].iterations)
    assert report.to_dict()["seed_points"] == 80
    for (level, *_), (finer, *_) in zip(levels, levels[1:]):
        assert np.array_equal(finer.y[::2], level.y)
    # past the last level the profile is refused as under-resolved
    levels.clear()
    monkeypatch.setattr(equilibrium, "_MAX_NODES", 80)
    with pytest.raises(UnderResolved, match="80 Chebyshev intervals") as info:
        solve_full_bvp(p, bc, grid)
    assert info.value.report is levels[-1][2]


def test_a_failed_unresolved_level_is_the_verdict(monkeypatch):
    # P_REFINED at delta_t = 0.1 needs three steps on 40 intervals and then
    # 80: with a budget of two the first level fails with its tail
    # undecayed, and that failure is raised at once, not refined
    levels = _recorded_levels(monkeypatch)
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
    with pytest.raises(MaxIterations, match="^no convergence in 2 iterations") as info:
        solve_full_bvp(P_REFINED, bulk_conditions(P_REFINED, delta_t=0.1))
    assert [level.n for level, *_ in levels] == [equilibrium._FIRST_NODES]
    report = info.value.report
    assert report.iterations == 2 and not report.converged
    assert report.seed_points == report.seed_iterations == 0


def _max_iter_one(monkeypatch):
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 1)


def _singular_on_the_finer_level(monkeypatch):
    _singular_on_call(monkeypatch, 4)  # the first level of P_REFINED takes three solves


@pytest.mark.parametrize("p, error, fault, message, ladder, counts", [
    (P0, MaxIterations, _max_iter_one, "^no convergence in 1 iterations", [40], (1, 0, 0)),
    (P_REFINED, NewtonDiverged, _singular_on_the_finer_level,
     "^singular Jacobian at iteration 0", [40, 80], (0, 40, 3)),
])
def test_the_finest_level_failure_keeps_its_class(monkeypatch, p, error, fault, message, ladder,
                                                  counts):
    # the level whose Newton fails is the last the ladder tries: its failure
    # is the solve's, with a report naming the level before it (0 for none)
    levels = _recorded_levels(monkeypatch)
    fault(monkeypatch)
    with pytest.raises(error, match=message) as info:
        solve_full_bvp(p, bulk_conditions(p, delta_t=0.1))
    assert [level.n for level, *_ in levels] == ladder
    report = info.value.report
    assert not report.converged
    assert (report.iterations, report.seed_points, report.seed_iterations) == counts


def test_under_resolved_profile_exits_3_from_the_cli(monkeypatch, capsys, tmp_path):
    # P_REFINED at delta_t = 0.1 needs 80 intervals: capped at 40, the CLI
    # refuses it with the documented numerical-failure exit and writes nothing
    monkeypatch.setattr(equilibrium, "_MAX_NODES", 40)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"params": {"D": -0.5, "E": 0.3}, "delta_T": 0.1}')
    out = tmp_path / "out"
    assert cli.main(["profile", "--full", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "UnderResolved: the coupled profile is under-resolved: 40 Chebyshev" in err
    assert '"seed_points": 0' in err
    assert not out.exists() or not list(out.iterdir())


def test_a_resolved_level_is_judged_without_refining(monkeypatch):
    # a level whose tail has decayed raises its own error at once: with a
    # budget of one iteration delta_t = 0.01 stops at the first level
    levels = _recorded_levels(monkeypatch)
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 1)
    with pytest.raises(MaxIterations):
        solve_full_bvp(P0, BC)
    assert [level.n for level, *_ in levels] == [equilibrium._FIRST_NODES]


@pytest.mark.parametrize("dt", [1e-1, 1e-2, 1e-4])
def test_fine_grids_take_the_one_collocation_solve(dt):
    # the node count is the solver's own: n = 32001 converges with the report
    # every other grid gets (at delta_t = 0.1 a finite-difference solve met
    # its rounding floor there and refused the box)
    bc = bulk_conditions(P0, delta_t=dt)
    reports = [solve_full_bvp(P0, bc, GridConfig(n_points=n))[1] for n in (1001, 16001, 32001)]
    assert reports[0].converged
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("n", [51, 201, 4001, 16001])
def test_every_grid_samples_the_one_interpolant(n):
    # n_points only sets where the last level's interpolant is read: each
    # grid gets the report of n = 1001 and, at the heights it shares with
    # that grid, its values, exactly rho_c at y = 0 and the bulk states at
    # the box ends
    bc = bulk_conditions(P0, delta_t=0.01)
    ref, ref_report = solve_full_bvp(P0, bc)
    prof, report = solve_full_bvp(P0, bc, GridConfig(n_points=n))
    assert report == ref_report and prof.y.size == n
    liquid, vapor = bulk_states(P0, bc)
    assert prof.rho[prof.mid_index] == P0.rho_c
    assert (prof.rho[0], prof.rho[-1], prof.s[0], prof.s[-1]) == (
        vapor.rho, liquid.rho, vapor.s, liquid.s)
    every, stride = max((n - 1) // 1000, 1), max(1000 // (n - 1), 1)
    np.testing.assert_allclose(prof.y[::every], ref.y[::stride], rtol=0, atol=1e-13)
    np.testing.assert_allclose(prof.rho[::every], ref.rho[::stride], rtol=0, atol=1e-14)
    np.testing.assert_allclose(prof.s[::every], ref.s[::stride], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dt, half_width", [(1e-2, 15.0), (2.2e-4, 10.0), (2.215e-4, 10.0)])
def test_the_report_does_not_depend_on_how_the_grid_end_rounds(dt, half_width):
    # the grid's last height h (n - 1) / 2 rounds to a neighbour of
    # L = half_width * zeta at some n; the collocation is built on L itself,
    # so every grid gets one report (built on the grid's end, n = 51 and 201
    # got other residuals in these cases)
    bc = bulk_conditions(P0, delta_t=dt)
    grids = [GridConfig(half_width_in_zeta=half_width, n_points=n) for n in (51, 201, 1001, 2001)]
    ends = {equilibrium._heights(g, interface_width(P0, bc))[-1] for g in grids}
    assert len(ends) > 1
    reports = [solve_full_bvp(P0, bc, g)[1] for g in grids]
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("dt", [1e-1, 8e-2, 5e-2, 1e-2, 1e-4])
def test_the_solved_density_is_within_1e8_of_a_320_interval_solve(monkeypatch, dt):
    # one level of 40 intervals answers each of these (8e-10 to 2.6e-9 of
    # the jump; with the map scale at 4 widths, 5e-2 read 1.7e-8)
    bc = bulk_conditions(P0, delta_t=dt)
    prof, report = solve_full_bvp(P0, bc)
    assert report.seed_points == 0
    monkeypatch.setattr(equilibrium, "_FIRST_NODES", 320)
    ref, ref_report = solve_full_bvp(P0, bc)
    assert ref_report.converged and ref_report.seed_points == 0
    liquid, vapor = bulk_states(P0, bc)
    assert np.max(np.abs(prof.rho - ref.rho)) <= 1e-8 * (liquid.rho - vapor.rho)


def test_collocation_level_interpolates_its_own_nodes():
    # the interpolant through a level's nodal values reproduces them, and
    # the nodes of n are the even nodes of 2n, bit for bit
    level = _Level(64, 30.0, 8.0)
    assert level.y[0] == -30.0 and level.y[-1] == 30.0 and level.y[32] == 0.0
    np.testing.assert_array_equal(_Level(128, 30.0, 8.0).y[::2], level.y)
    f = np.stack([np.tanh(level.y / 4.0), np.exp(-level.y ** 2 / 50.0)])
    np.testing.assert_allclose(level.values_at(f, level.y), f, rtol=0, atol=1e-14)
    # exactly mirror-symmetric, as values_at requires; its 4501 heights y >= 0
    # fill two blocks of values_at and part of a third
    y = 30.0 * np.arange(-4500, 4501) / 4500
    np.testing.assert_allclose(level.values_at(f, y)[0], np.tanh(y / 4.0), rtol=0, atol=1e-9)


def _converged_levels(monkeypatch) -> dict:
    # {intervals: (level, [m; s])} of P_REFINED's delta_t = 0.1 solve, whose
    # ladder converges on 40 intervals and then on 80, as each hands them to
    # values_at
    seen = {}
    values_at = _Level.values_at

    def spy(level, f, y):
        seen[level.n] = (level, f)
        return values_at(level, f, y)

    monkeypatch.setattr(_Level, "values_at", spy)
    solve_full_bvp(P_REFINED, bulk_conditions(P_REFINED, delta_t=0.1))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("n", [51, 1001, 16001])
@pytest.mark.parametrize("intervals", [40, 80])
def test_values_at_matches_the_direct_chebyshev_sum(monkeypatch, intervals, n):
    # values_at builds T_k on y >= 0 and mirrors it by parity; on a converged
    # m (nearly odd) and s (nearly even), both with even and odd terms, it
    # agrees with the direct sum of c_k cos(k arccos x) at every height of the
    # output grid (chebval's Clenshaw recurrence is itself up to 2e-15 off it)
    level, f = _converged_levels(monkeypatch)[intervals]
    assert level.n == intervals
    y = equilibrium._heights(GridConfig(n_points=n), level.ell / equilibrium._MAP_SCALE)
    assert y[-1] == level.y[-1]
    x = y * math.sqrt(level.a) / np.sqrt(level.ell ** 2 + y * y)
    direct = (f @ level.cheb.T) @ np.cos(np.outer(np.arange(intervals + 1), np.arccos(x)))
    scale = np.max(np.abs(f), axis=1, keepdims=True)
    assert np.all(np.abs(level.values_at(f, y) - direct) <= 1e-15 * scale)


@pytest.mark.parametrize("y", [
    np.linspace(-30.0, 30.0, 9001),          # off by rounding: max|y[::-1] + y| is 7e-15
    30.0 * np.arange(-4500, 4501) / 4500 + 1e-3,
    30.0 * np.arange(-4500, 4500) / 4500,    # one end short
])
def test_values_at_refuses_a_grid_that_is_not_mirror_symmetric(y):
    level = _Level(40, 30.0, 8.0)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        level.values_at(np.stack([np.tanh(level.y / 4.0)]), y)


def test_iteration_cap_raises_max_iterations_with_report(monkeypatch):
    # delta_t = 0.01 needs two steps; with a budget of one the solve stops at
    # its cap
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 1)
    with pytest.raises(MaxIterations, match="^no convergence in 1 iterations") as info:
        solve_full_bvp(P0, BC)
    report = info.value.report
    assert report.iterations == 1 and not report.converged


def _singular_on_call(monkeypatch, k):
    # np.linalg.solve, raising LinAlgError on its k-th call
    real = np.linalg.solve
    calls = []

    def solve(a, b):
        calls.append(a.shape)
        if len(calls) == k:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)


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
    strong = FluidParams(D=-0.5, E=0.3)
    solve_full_bvp(strong, bulk_conditions(strong, delta_t=0.5),
                   GridConfig(half_width_in_zeta=40.0, n_points=1001))  # three levels
    with pytest.raises(UndecayedTail):
        solve_full_bvp(P0, bulk_conditions(P0, delta_t=0.3))
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_MAX_DAMPING", 2)
        with pytest.raises(NewtonDiverged, match="after 2 step halvings"):
            solve_full_bvp(strong, bulk_conditions(strong, delta_t=0.5),
                           GridConfig(half_width_in_zeta=40.0, n_points=1001))
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_MAX_ITER", 1)
        with pytest.raises(MaxIterations):
            solve_full_bvp(P0, BC)
    _singular_on_call(monkeypatch, 2)
    with pytest.raises(NewtonDiverged, match="singular Jacobian at iteration 1"):
        solve_full_bvp(P0, BC)
    assert len(reports) == 9
    assert sum(r.iterations > 0 and not r.converged for r in reports) >= 4
    for r in reports:
        assert r.iterations == len(r.residual_history) == len(r.damping_history), r


def _overshooting_newton(monkeypatch):
    # the real solve, its smooth iterate stretched past the liquid bulk value
    real = equilibrium._newton

    def overshooting(*args):
        u, report = real(*args)
        return u * [[1.5], [1.0]], report

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
    # sigma_quad of the unpinned front, which 40 to 256 intervals give alike
    # to 1e-11
    (P0, 0.3, GridConfig(half_width_in_zeta=60.0, n_points=4001), 0.14144817368),
    (FluidParams(E=3.0), 0.1, GridConfig(half_width_in_zeta=30.0, n_points=2001),
     0.0286176016429),
])
def test_wide_enough_box_converges_to_the_unpinned_tension(p, dt, grid, sigma_quad):
    bc = bulk_conditions(p, delta_t=dt)
    prof, report = solve_full_bvp(p, bc, grid)
    assert report.converged and report.residual_norm <= report.tolerance
    obs = interface_observables(p, bc, prof)
    assert obs.sigma_quad == pytest.approx(sigma_quad, rel=0, abs=1e-11)


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


@pytest.mark.parametrize("p, dt, n", [
    (P0, 0.05, 16), (P0, 0.5, 16), (P0, 0.05, 40), (FluidParams(D=-0.5, E=0.3), 0.5, 16),
])
def test_collocation_jacobian_matches_finite_differences(p, dt, n):
    bc = bulk_conditions(p, delta_t=dt)
    zeta = interface_width(p, bc)
    level = _Level(n, 8.0 * zeta, 4.0 * zeta)
    m = 0.1 * np.tanh(level.y / (2.0 * zeta))
    s = -0.05 - 0.5 * m * m  # smooth, near the slaved entropy
    jac = _collocation_jacobian(p, bc, level, m, s)
    q = level.n - 1
    assert jac.shape == (2 * q, 2 * q)

    def residual_of(vec):
        return _collocation_residual(p, bc, level,
                                     np.concatenate([[m[0]], vec[:q], [m[-1]]]),
                                     np.concatenate([[s[0]], vec[q:], [s[-1]]]))

    x0 = np.concatenate([m[1:-1], s[1:-1]])
    step = 1e-6
    fd = np.empty((2 * q, 2 * q))
    for j in range(2 * q):
        up, down = x0.copy(), x0.copy()
        up[j] += step
        down[j] -= step
        fd[:, j] = (residual_of(up) - residual_of(down)) / (2.0 * step)
    scale = np.max(np.abs(jac))
    np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-7 * scale)
    # the coupling blocks are equal: d(F_1)/ds and d(F_2)/drho are both
    # D d2 less h_rs
    np.testing.assert_array_equal(jac[:q, q:], jac[q:, :q])


def test_full_solve_footprint_per_node():
    # a solve holds about 1.5 MB of its collocation and of the one table of
    # interpolation, and about 35 B per node beside them: at n = 16001 it
    # peaks near 130 B per node where it takes two levels, as P_REFINED does
    # at delta_t = 0.1 (one level reads about 80)
    n = 16001
    g = GridConfig(n_points=n)
    bc = bulk_conditions(P_REFINED, delta_t=0.1)
    solve_full_bvp(P_REFINED, bc, g)  # caches the Lobatto nodes outside the trace
    tracemalloc.start()
    try:
        solve_full_bvp(P_REFINED, bc, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 160.0


def test_singular_newton_system_raises_with_report(monkeypatch, capsys, tmp_path):
    _singular_on_call(monkeypatch, 1)
    with pytest.raises(NewtonDiverged, match="singular Jacobian") as info:
        solve_full_bvp(P0, BC)
    assert info.value.report.iterations == 0 and not info.value.report.converged
    # the CLI turns it into the documented numerical-failure exit with the report
    _singular_on_call(monkeypatch, 1)
    assert cli.main(["profile", "--full", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NewtonDiverged: singular Jacobian" in err and '"converged": false' in err


@pytest.mark.parametrize("target", ["_collocation_residual", "bulk_energy_hessian"])
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
    # system; agreement is limited by the front's near-free translation,
    # which the bordering pins at y = 0 and solve_bvp leaves to its
    # tolerance (shifted by 0.01, its front agrees to 4e-6)
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


def _one_pass_sigma_yy(p, prof):
    # stress_yy_profile's arithmetic in one pass over the whole profile
    h = prof.h
    return stress_tensor(p, prof.rho[2:-2], prof.s[2:-2], derivative_4th(prof.rho, h)[2:-2, None],
                         derivative_4th(prof.s, h)[2:-2, None], second_derivative_4th(prof.rho, h),
                         second_derivative_4th(prof.s, h))[:, 0, 0]


_BLOCK = equilibrium._STRESS_BLOCK


# n - 4 = k * _BLOCK + r interior nodes: one block, whole blocks, and last
# blocks of 1 to 4 nodes after one and after two whole ones
@pytest.mark.parametrize("n", [1001, _BLOCK + 4, 2 * _BLOCK + 4]
                         + [k * _BLOCK + 4 + r for k in (1, 2) for r in (1, 2, 3, 4)])
@pytest.mark.parametrize("route", ["closed", "solved"])
def test_blocked_normal_stress_keeps_the_bits_of_one_pass(n, route):
    # a coupling D < 0 and a pressure constant p_c != 0; an even n is the
    # odd grid one node longer, cut at its top
    p = FluidParams(p_c=0.3, D=-0.5, E=0.3)
    bc = bulk_conditions(p, delta_t=0.01)
    g = GridConfig(n_points=n | 1)
    prof = closed_profile(p, bc, g) if route == "closed" else solve_full_bvp(p, bc, g)[0]
    prof = Profile(prof.y[:n], prof.rho[:n], prof.s[:n], bc, prof.provenance)
    y, sigma_yy = stress_yy_profile(p, prof)
    assert np.array_equal(y, prof.y[2:-2])
    assert np.array_equal(sigma_yy, _one_pass_sigma_yy(p, prof))
    one_pass = derivative_4th(_one_pass_sigma_yy(replace(p, p_c=0.0), prof), prof.h)
    assert equilibrium_stress_residual(p, prof) == float(np.max(np.abs(one_pass)))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_stress_certificate_names_the_five_sample_minimum(n):
    # sigma_yy has n - 4 values, and its derivative needs 5 of them: a
    # profile of 5 to 8 nodes is refused by name, one of 9 is certified
    prof = closed_profile(P0, BC, GridConfig(n_points=51))
    short = Profile(prof.y[23:23 + n], prof.rho[23:23 + n], prof.s[23:23 + n], BC, "short")
    if n < 9:
        with pytest.raises(ValueError, match="at least 5 samples"):
            equilibrium_stress_residual(P0, short)
    else:
        assert math.isfinite(equilibrium_stress_residual(P0, short))
    with pytest.raises(ValueError, match=f"at least 5 samples, got {n - 5}"):
        derivative_4th(prof.rho[:n - 5], prof.h)


def test_stress_certificate_footprint_per_node():
    # its blocks hold a fixed few hundred KiB of temporaries; beyond them
    # sigma_yy, its derivative and the derivative's correlation hold about
    # 24 B per node, and one unblocked pass over the profile about 136
    n = 160001
    prof = closed_profile(P0, BC, GridConfig(n_points=n))
    equilibrium_stress_residual(P0, prof)
    tracemalloc.start()
    try:
        equilibrium_stress_residual(P0, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 48.0


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


def _row_by_row_csv(prof):
    # the reference: one write per row, from whole-profile lists
    buf = io.StringIO()
    buf.write("y,rho,s\n")
    for row in zip(prof.y.tolist(), prof.rho.tolist(), prof.s.tolist()):
        buf.write("%r,%r,%r\n" % row)
    return buf.getvalue()


_CSV_BLOCK = equilibrium._CSV_BLOCK


@pytest.mark.parametrize("n", [5, 51, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                               2 * _CSV_BLOCK, 2 * _CSV_BLOCK + 1])
def test_blocked_csv_keeps_the_bytes_of_the_row_by_row_writer(n, tmp_path):
    # through a file opened as the command line opens its artifacts
    prof = closed_profile(P0, BC, GridConfig(n_points=max(n | 1, 51)))
    prof = Profile(prof.y[:n], prof.rho[:n], prof.s[:n], BC, prof.provenance)
    path = tmp_path / "profile.csv"
    with open(path, "x", encoding="utf-8", newline="\n") as fh:
        profile_to_csv(prof, fh)
    assert path.read_bytes() == _row_by_row_csv(prof).encode("utf-8")


def test_csv_footprint_per_node(tmp_path):
    # one block's Python floats and strings, under 1 MB, whatever the grid;
    # three whole-profile lists of floats would hold about 96 B per node
    n = 160001
    prof = closed_profile(P0, BC, GridConfig(n_points=n))
    path = tmp_path / "profile.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        profile_to_csv(prof, fh)
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            profile_to_csv(prof, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 16.0
