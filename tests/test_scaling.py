"""Power-law sweep tests: exponent fitting, measured observables, verdicts.

Targets under test (log-log slopes in the undercooling): density amplitude
1/2, entropy amplitude 1, width -1/2, surface tension 3/2, celerity 2, and
full-vs-reduced deviation 1.
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from thermocap import (
    FluidParams,
    GridConfig,
    bulk_conditions,
    closed_profile,
    fit_exponent,
    interface_width,
    run_sweep,
    solve_full_bvp,
    tanh_front,
    verify_exponents,
)
from thermocap.scaling import (
    CSV_HEADER,
    EXPONENT_TARGETS,
    SweepConfig,
    SweepRow,
    measured_width,
    report_to_csv,
    tanh_deviation,
)
from thermocap.errors import DegenerateSpan, InvalidConfig, NonPositiveData

P0 = FluidParams()
BC = bulk_conditions(P0, delta_t=0.01)


# ---------------------------------------------------------------------------
# Configuration invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values", [
    (1e-2,),                          # single point
    (1e-1, 1e-2, 1e-3),               # too few
    (1e-1, 1e-2, 1e-2, 1e-3),         # not strictly decreasing
    (1e-1, 1e-2, 1e-3, -1e-4),        # non-positive
    (1e-1, 9e-2, 8e-2, 7e-2),         # spans well under two decades
])
def test_sweep_config_rejects_bad_undercoolings(values):
    with pytest.raises(InvalidConfig):
        SweepConfig(delta_t_values=values)


def test_sweep_config_defaults():
    cfg = SweepConfig()
    assert cfg.delta_t_values == (1e-1, 1e-2, 1e-3, 1e-4)
    assert cfg.use_full_solver is False


def test_exponent_targets():
    assert EXPONENT_TARGETS == {"amp_rho": 0.5, "amp_s": 1.0, "zeta": -0.5,
                                "sigma": 1.5, "v": 2.0, "deviation": 1.0}


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

def test_fit_exponent_recovers_a_cubic_law():
    slope, intercept, max_resid = fit_exponent([(1.0, 1.0), (10.0, 1e3), (100.0, 1e6)])
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert max_resid < 1e-12


def test_fit_exponent_handles_two_points_and_noise():
    slope, _, _ = fit_exponent([(1.0, 2.0), (100.0, 2e-4)])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    slope, _, max_resid = fit_exponent(
        [(1.0, 1.05), (10.0, 9.7e2), (100.0, 1.02e6)])
    assert slope == pytest.approx(3.0, abs=0.05)
    assert 0.0 < max_resid < 0.1


def test_fit_exponent_error_paths():
    with pytest.raises(DegenerateSpan):
        fit_exponent([(1.0, 1.0)])
    with pytest.raises(DegenerateSpan):          # under one decade of x
        fit_exponent([(1.0, 1.0), (5.0, 25.0)])
    with pytest.raises(NonPositiveData):
        fit_exponent([(1.0, 1.0), (10.0, -3.0)])
    with pytest.raises(NonPositiveData):
        fit_exponent([(1.0, 0.0), (10.0, 10.0)])
    # the one rule for which measurements a law may be fitted on
    for bad in (math.inf, math.nan):
        with pytest.raises(NonPositiveData, match="finite, strictly positive"):
            fit_exponent([(1.0, 1.0), (10.0, bad), (100.0, 1e4)])
        with pytest.raises(NonPositiveData, match="finite, strictly positive"):
            fit_exponent([(1.0, 1.0), (bad, 10.0), (100.0, 1e4)])


# ---------------------------------------------------------------------------
# Measured observables
# ---------------------------------------------------------------------------

def test_measured_width_recovers_the_closed_width():
    # the maximum-slope thickness is zeta on the tanh front; the 4th-order
    # slope on the default 1001 nodes leaves a relative error near 3e-8
    for dt in (1e-1, 1e-2, 1e-3, 1e-4):
        bc = bulk_conditions(P0, delta_t=dt)
        prof = closed_profile(P0, bc)
        assert measured_width(P0, prof) == pytest.approx(interface_width(P0, bc), rel=1e-7)


def test_measured_width_on_the_full_solution():
    prof, _ = solve_full_bvp(P0, BC)
    zeta = interface_width(P0, BC)
    assert measured_width(P0, prof) == pytest.approx(zeta, rel=0.02)


def test_tanh_deviation_vanishes_on_the_closed_profile():
    # exactly: a closed profile is tanh_front on its own nodes, bit for bit
    for n_points in (51, 1001):
        for dt in (1e-6, 1e-2, 0.1):
            prof = closed_profile(P0, bulk_conditions(P0, delta_t=dt), GridConfig(n_points=n_points))
            assert np.array_equal(tanh_front(P0, prof.bc, prof.y), prof.rho)
            assert tanh_deviation(P0, prof) == 0.0


def test_tanh_deviation_of_the_full_solution_is_first_order():
    # the measured gap at delta_t = 0.01 sits around 5e-4 of rho_c; the
    # solved front is pinned at y = 0, so it reflects shape, not position
    prof, _ = solve_full_bvp(P0, BC)
    dev = tanh_deviation(P0, prof)
    assert 1e-4 < dev < 1e-3
    assert tanh_deviation(P0, prof) == dev  # pure function of the profile


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_closed_form_sweep_reproduces_every_exponent():
    report = run_sweep(P0, SweepConfig())
    assert len(report.rows) == 4
    assert all(r.error is None for r in report.rows)
    assert set(report.fits) == {"amp_rho", "amp_s", "zeta", "sigma", "v"}
    for law, fit in report.fits.items():
        assert fit.slope == pytest.approx(EXPONENT_TARGETS[law], abs=1e-6), law
        assert fit.tolerance == 0.02
    summary = verify_exponents(report)
    assert summary.all_passed
    assert "deviation" not in summary.verdicts


def test_full_solver_sweep_passes_within_loose_tolerances():
    report = run_sweep(P0, SweepConfig(use_full_solver=True))
    assert all(r.error is None for r in report.rows)
    assert set(report.fits) == {"amp_rho", "amp_s", "zeta", "sigma", "v",
                                "deviation"}
    # the celerity comes from the closed-form locus either way, so it keeps
    # the tight tolerance; everything measured from the solved profile is
    # allowed first-order corrections in the undercooling
    assert {law: fit.tolerance for law, fit in report.fits.items()} == {
        "amp_rho": 0.1, "amp_s": 0.1, "zeta": 0.1, "sigma": 0.1, "v": 0.02,
        "deviation": 0.1}
    summary = verify_exponents(report)
    assert summary.all_passed, {k: f.slope for k, f in report.fits.items()}
    deviations = [r.full_vs_reduced_deviation for r in report.rows]
    assert all(a > b for a, b in zip(deviations, deviations[1:])), deviations


def test_tolerance_overrides_change_the_verdict():
    # the override is judged once, where the fit is built, so the fit and
    # the verdict carry the same tolerance and the same outcome
    report = run_sweep(P0, SweepConfig(use_full_solver=True,
                                       tolerances={"deviation": 1e-6}))
    assert report.fits["deviation"].tolerance == 1e-6
    assert report.fits["deviation"].passed is False
    assert report.fits["amp_rho"].tolerance == 0.1
    strict = verify_exponents(report)
    assert strict.verdicts["deviation"] is False
    assert strict.all_passed is False
    assert strict.verdicts["amp_rho"] is True


@pytest.mark.parametrize("values", [(0.1, 0.08, 0.06, 1e-3), (0.06, 0.05, 0.045, 5e-4)])
def test_deviation_has_no_fit_when_its_window_spans_under_a_decade(values):
    # only delta_t <= 0.04 keeps the amplitude sqrt(A delta_t / B) within
    # 0.2 rho_c: one row here, so the law has no fit rather than a slope
    # taken from rows outside its window
    report = run_sweep(P0, SweepConfig(delta_t_values=values, use_full_solver=True))
    assert all(r.error is None for r in report.rows)
    assert set(report.fits) == {"amp_rho", "amp_s", "zeta", "sigma", "v"}
    summary = verify_exponents(report)
    assert summary.verdicts["deviation"] is False
    assert summary.all_passed is False


def test_a_law_with_an_overflowed_measurement_has_no_fit():
    # v overflows to inf at delta_t = 0.1 alone; the law is not fitted on
    # the three rows left: it has no fit, and the sweep fails
    p = FluidParams(C=1e-7, E=8e307, D=0.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        report = run_sweep(p, SweepConfig())
    assert all(r.error is None for r in report.rows)
    assert report.rows[0].v == math.inf
    assert all(math.isfinite(r.v) for r in report.rows[1:])
    assert "v" not in report.fits
    summary = verify_exponents(report)
    assert summary.verdicts["v"] is False and summary.all_passed is False


@pytest.mark.parametrize("tolerances, match", [
    ({"not_a_law": 0.1}, "unknown sweep.tolerances keys"),
    ({"sigma": 0.0}, "must be > 0"),
    ({"sigma": -1.0}, "must be > 0"),
    ({"sigma": math.inf}, r"sweep\.tolerances\.sigma must be finite"),
    ({"sigma": math.nan}, r"sweep\.tolerances\.sigma must be finite"),
])
def test_sweep_config_refuses_tolerances_that_cannot_judge(tolerances, match):
    with pytest.raises(InvalidConfig, match=match):
        SweepConfig(tolerances=tolerances)


@pytest.mark.parametrize("value", [True, "abc", None, 10 ** 400])
def test_sweep_config_refuses_non_numbers(value):
    with pytest.raises(InvalidConfig, match=r"sweep\.tolerances\.v"):
        SweepConfig(tolerances={"v": value})
    with pytest.raises(InvalidConfig, match=r"sweep\.delta_t_values\[2\]"):
        SweepConfig(delta_t_values=(1e-1, 1e-2, value, 1e-4))


def test_sweep_config_copies_its_tolerances():
    given = {"sigma": 1}
    cfg = SweepConfig(tolerances=given)
    given["sigma"] = 5.0
    assert cfg.tolerances == {"sigma": 1.0}
    assert type(cfg.tolerances["sigma"]) is float
    with pytest.raises(TypeError):
        cfg.tolerances["v"] = 0.5


def test_sweep_isolates_row_failures():
    # an 8-zeta box is legal for solving but too short for the tension
    # quadrature, so every row fails in the same understandable way and the
    # report carries the reasons instead of raising
    cfg = SweepConfig(grid=GridConfig(half_width_in_zeta=8.0, n_points=201))
    report = run_sweep(P0, cfg)
    assert all(r.error is not None for r in report.rows)
    assert all("bulk densities" in r.error for r in report.rows)
    assert all(math.isnan(r.sigma_quad) for r in report.rows)
    summary = verify_exponents(report)
    assert summary.all_passed is False


def test_sweep_fails_a_row_whose_amplitude_floating_point_cannot_resolve():
    # with A = 8e-32 the delta_t = 0.1 bulk densities lie 1.5 spacings of
    # the doubles apart at rho_c = 1: the row fails instead of reporting an
    # amplitude of rounding as a measurement
    report = run_sweep(FluidParams(A=8e-32, B=0.5), SweepConfig())
    row = report.rows[0]
    assert row.delta_t == 0.1 and math.isnan(row.amp_rho)
    assert row.error.startswith("CriticalIsotherm: undercooling 0.1 does not separate")
    assert verify_exponents(report).all_passed is False


def test_sweep_raises_a_config_error_instead_of_failing_rows():
    # a box overflowing every row's grid is the config's fault, not a row's
    cfg = SweepConfig(grid=GridConfig(half_width_in_zeta=1e308))
    with pytest.raises(InvalidConfig, match="overflows"):
        run_sweep(P0, cfg)


def test_a_failed_row_fails_the_verdict():
    # every fit still passes after the last row is swapped for a failed one,
    # so only the row count can flag the missing undercooling
    report = run_sweep(P0, SweepConfig(delta_t_values=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5)))
    broken = replace(report, rows=report.rows[:-1] + (
        SweepRow(delta_t=1e-5, error="MaxIterations: no convergence"),))
    refit = verify_exponents(broken)
    assert all(refit.verdicts.values())
    assert refit.failed_rows == 1 and refit.all_passed is False
    assert refit.to_dict()["failed_rows"] == 1
    clean = verify_exponents(report)
    assert clean.failed_rows == 0 and clean.all_passed is True
    assert "failed_rows" not in clean.to_dict()


def test_report_csv_layout():
    report = run_sweep(P0, SweepConfig())
    buf = io.StringIO()
    report_to_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0].split(",") == ["delta_t", "amp_rho", "amp_s",
                                   "zeta_measured", "sigma_quad", "v",
                                   "full_vs_reduced_deviation"]
    assert len(lines) == 5
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.1
    assert first[5] == pytest.approx(report.rows[0].v, rel=1e-16)


def test_report_round_trips_through_dict():
    report = run_sweep(P0, SweepConfig())
    d = report.to_dict()
    assert d["use_full_solver"] is False
    assert [r["delta_t"] for r in d["rows"]] == [1e-1, 1e-2, 1e-3, 1e-4]
    for law, fit in d["fits"].items():
        assert fit["passed"] is True
        assert fit["target"] == EXPONENT_TARGETS[law]
