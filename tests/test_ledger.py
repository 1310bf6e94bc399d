"""Ledger of open defects: each case asserts the correct behaviour.

Every case fails today for a known reason, named in ROADMAP.md, and is a
strict xfail: the change that mends it turns the case into an unexpected
pass, which fails the suite until its mark is removed.  The configs are
the ones the defects were found on; do not re-seed or resize them.
"""

import pytest

from thermocap.checks import run_checks
from thermocap.eos import FluidParams, bulk_conditions
from thermocap.equilibrium import GridConfig, solve_full_bvp
from thermocap.errors import NewtonDiverged
from thermocap.scaling import SweepConfig, run_sweep, verify_exponents


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the absolute _TOL accepts the closed seed unsolved")
def test_small_undercooling_is_solved_not_seeded():
    # the seed's residual is 7.70e-11, 23 % under _TOL = 1e-10, so no
    # BLAS rounding of the seed moves it across
    p = FluidParams()
    _, report = solve_full_bvp(p, bulk_conditions(p, delta_t=1e-6), GridConfig())
    assert report.iterations >= 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the stencil stress certificate's rounding grows with n")
def test_check_passes_on_a_fine_grid():
    p = FluidParams()
    rows = run_checks(p, bulk_conditions(p, delta_t=1e-2), GridConfig(n_points=160001), 0)
    assert [row["name"] for row in rows if not row["passed"]] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7(c): the full sweep's v is the slaved closed form")
def test_full_sweep_fails_the_celerity_law_the_solved_profile_breaks():
    # at D = 1, E = 2 (delta = 1) the solved dividing-surface celerity falls
    # as delta_t^3, not delta_t^2
    report = run_sweep(FluidParams(D=1.0, E=2.0), SweepConfig(
        delta_t_values=(0.05, 0.01, 1e-3, 1e-4), use_full_solver=True))
    assert not verify_exponents(report).verdicts["v"]


@pytest.mark.xfail(strict=True, raises=NewtonDiverged,
                   reason="ROADMAP item 1: the 80-interval level accepts its seed and the "
                          "interpolant leaves the density bracket")
def test_strong_negative_coupling_at_tiny_undercooling_is_answered():
    p = FluidParams(A=8.110989953396448, B=0.11405269057448045, rho_c=0.7115717951976751,
                    C=0.06924914509169537, D=-2.1518876965357463, E=80.21639339212373)
    solve_full_bvp(p, bulk_conditions(p, delta_t=6.081520957682784e-8),
                   GridConfig(half_width_in_zeta=25.0))
