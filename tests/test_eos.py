"""Equation-of-state tests: derivatives, coexistence, slaved entropy.

The analytic partials are checked against central finite differences and
against an independently expanded polynomial form of the same energy, and
the coexistence construction is checked against hand-derived constants for
the reference parameter set at an undercooling of 0.01.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocap import (
    FluidParams,
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
from thermocap.checks import run_checks
from thermocap.eos import BulkConditions, _quartic, bulk_energy_hessian, check_keys, enthalpy
from thermocap.equilibrium import GridConfig, bulk_states
from thermocap.errors import (
    IndefiniteGradientForm,
    InvalidConfig,
    NonPositiveConstant,
)
from thermocap.scaling import SweepConfig
from thermocap.waves import WaveLocus

P0 = FluidParams()


def state_grid(n=10, rho_span=0.3, s_span=0.05):
    """n-by-n grid of states centered on (rho_c, s=0)."""
    rho = np.linspace(P0.rho_c - rho_span, P0.rho_c + rho_span, n)
    s = np.linspace(-s_span, s_span, n)
    return np.meshgrid(rho, s)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["A", "B", "rho_c", "T_c"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_positive_constants_are_enforced(field, bad):
    with pytest.raises((NonPositiveConstant, InvalidConfig)):
        FluidParams(**{field: bad})


def test_gradient_form_must_be_positive_definite():
    with pytest.raises(IndefiniteGradientForm):
        FluidParams(C=0.0)
    with pytest.raises(IndefiniteGradientForm):
        FluidParams(C=-1.0)
    # the boundary case C*E = D^2 is rejected too
    with pytest.raises(IndefiniteGradientForm):
        FluidParams(C=1.0, D=1.0, E=1.0)
    with pytest.raises(IndefiniteGradientForm):
        FluidParams(D=1.5)


def test_gradient_form_whose_determinant_overflows_is_refused():
    # C*E - D^2 is inf - inf = nan here, which no "<= 0" test catches
    with pytest.raises(IndefiniteGradientForm, match="nan is not > 0"):
        FluidParams(C=1e200, D=1e200, E=1e200)
    # a determinant of +inf is still positive
    assert FluidParams(C=1e200, D=0.0, E=1e200).E == 1e200


def test_validate_params_rejects_unknown_keys():
    with pytest.raises(InvalidConfig, match="unknown params keys"):
        validate_params({"A": 1.0, "rho_crit": 1.0})


@pytest.mark.parametrize("raw", [None, "A", 3])
def test_validate_params_refuses_what_is_no_json_object(raw):
    with pytest.raises(InvalidConfig, match="^params must be a JSON object$"):
        validate_params(raw)


def test_check_keys_names_every_unknown_key_sorted():
    # keys of mixed types sort by their text, so no comparison raises
    raw = {"A": 1.0}
    assert check_keys(raw, ["A", "B"], "params") is raw
    with pytest.raises(InvalidConfig, match=r"^unknown grid keys: \[1, 'x', 'y'\]$"):
        check_keys({"y": 0, 1: 0, "x": 0, "A": 0}, ["A"], "grid")


def test_validate_params_fills_defaults():
    p = validate_params({"D": 0.1})
    assert p.D == 0.1
    assert p.A == 1.0 and p.C == 1.0 and p.E == 1.0


@pytest.mark.parametrize("value", [True, "2", None, 10 ** 400])
def test_validate_params_refuses_non_numbers(value):
    # bools and strings are no material constants, and an integer beyond
    # the float range has no value to run with
    with pytest.raises(InvalidConfig, match=r"params\.A"):
        validate_params({"A": value})
    assert validate_params({"A": np.int64(2)}).A == 2.0


def test_constant_errors_are_config_errors():
    # the CLI maps every InvalidConfig to exit 2, these two included
    assert issubclass(NonPositiveConstant, InvalidConfig)
    assert issubclass(IndefiniteGradientForm, InvalidConfig)


@pytest.mark.parametrize("value", [True, "2", None, 10 ** 400],
                         ids=["bool", "str", "None", "huge-int"])
def test_fluid_params_read_their_constants_as_strict_numbers(value):
    # the constructor itself reads the constants, so a direct call refuses
    # what validate_params refuses
    with pytest.raises(InvalidConfig, match=r"params\.A"):
        FluidParams(A=value)
    assert type(FluidParams(A=2).A) is float


def _constructor_calls():
    """(constructor, keyword arguments) pairs with JSON-like values in every
    fuzzed slot: NaN, infinities, huge integers, bools, strings, nesting."""
    json_like = st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=4)
        | st.integers(-(10 ** 400), 10 ** 400),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=5)
    numbers = st.floats(1e-3, 2.0) | json_like

    def call(cls, slots, required=()):
        return st.tuples(st.just(cls), st.fixed_dictionaries(
            {k: slots[k] for k in required},
            optional={k: v for k, v in slots.items() if k not in required}))

    sweep_values = (st.sampled_from([(1e-1, 1e-2, 1e-3, 1e-4), [1.0, 0.1, 0.01, 0.001]])
                    | st.lists(numbers, max_size=5) | json_like)
    tolerances = st.dictionaries(st.sampled_from(["v", "sigma", "bogus"]), numbers,
                                 max_size=2) | json_like
    return st.one_of(
        call(FluidParams, {f.name: numbers for f in fields(FluidParams)}),
        call(GridConfig, {"half_width_in_zeta": st.floats(8.0, 40.0) | json_like,
                          "n_points": st.sampled_from([51, 1001]) | json_like}),
        call(SweepConfig, {"delta_t_values": sweep_values, "tolerances": tolerances,
                           "use_full_solver": st.booleans() | json_like}),
        call(WaveLocus, {"rho": numbers, "grad_s_normal": numbers, "grad_s_tg_sq": numbers},
             required=("rho", "grad_s_normal", "grad_s_tg_sq")),
        call(BulkConditions, {"T0": numbers, "delta_t": numbers}, required=("T0", "delta_t")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_constructor_calls())
def test_fuzzed_constructors_build_floats_or_refuse_the_config(case):
    # every library constructor either builds with float numbers or raises
    # an InvalidConfig-family error; a TypeError, ValueError or
    # OverflowError escaping here is a value coerced or refused without
    # notice
    cls, kwargs = case
    try:
        obj = cls(**kwargs)
    except InvalidConfig:
        return
    if isinstance(obj, SweepConfig):
        numbers = [*obj.delta_t_values, *obj.tolerances.values()]
        assert type(obj.use_full_solver) is bool
    else:
        numbers = [getattr(obj, f.name) for f in fields(obj) if f.type == "float"]
    assert numbers and all(type(x) is float for x in numbers)


@pytest.mark.parametrize("value", [True, "0.01", None, 10 ** 400])
def test_bulk_conditions_refuses_non_numbers(value):
    with pytest.raises(InvalidConfig, match="delta_t"):
        bulk_conditions(P0, delta_t=value)
    with pytest.raises(InvalidConfig, match="T0"):
        bulk_conditions(P0, T0=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_undercooling_is_blamed_on_itself(value):
    # T0 = T_c - delta_t is derived from it, but the caller gave delta_t
    with pytest.raises(InvalidConfig, match=f"^delta_t must be finite, got {value!r}$"):
        bulk_conditions(P0, delta_t=value)
    with pytest.raises(InvalidConfig, match="^T0 must be finite"):
        bulk_conditions(P0, T0=value)


def test_bulk_conditions_needs_exactly_one_temperature_input():
    with pytest.raises(InvalidConfig):
        bulk_conditions(P0)
    with pytest.raises(InvalidConfig):
        bulk_conditions(P0, delta_t=0.01, T0=0.99)
    via_dt = bulk_conditions(P0, delta_t=0.01)
    via_t0 = bulk_conditions(P0, T0=0.99)
    assert via_dt.T0 == via_t0.T0 == 0.99
    assert via_t0.delta_t == pytest.approx(via_dt.delta_t, rel=1e-14)
    assert via_dt.delta_t == 0.01
    # the profile equation's potential constant is always mu_c: a planar
    # front exists at no other value, so it is not a field or an argument
    assert set(BulkConditions.__dataclass_fields__) == {"T0", "delta_t"}
    with pytest.raises(TypeError):
        bulk_conditions(P0, delta_t=0.01, mu1=P0.mu_c)


# ---------------------------------------------------------------------------
# Derivatives of the bulk energy
# ---------------------------------------------------------------------------

def test_partials_match_central_differences():
    rho, s = state_grid()
    step = 1e-6
    gr, gs = bulk_energy_partials(P0, rho, s)
    fd_r = (bulk_energy(P0, rho + step, s) - bulk_energy(P0, rho - step, s)) / (2 * step)
    fd_s = (bulk_energy(P0, rho, s + step) - bulk_energy(P0, rho, s - step)) / (2 * step)
    np.testing.assert_allclose(gr, fd_r, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(gs, fd_s, rtol=1e-6, atol=1e-8)


def test_hessian_matches_differenced_partials():
    rho, s = state_grid()
    step = 1e-6
    hrr, hrs, hss = bulk_energy_hessian(P0, rho, s)
    gr_p, gs_p = bulk_energy_partials(P0, rho + step, s)
    gr_m, gs_m = bulk_energy_partials(P0, rho - step, s)
    np.testing.assert_allclose(hrr, (gr_p - gr_m) / (2 * step), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(hrs, (gs_p - gs_m) / (2 * step), rtol=1e-6, atol=1e-8)
    gr_p, gs_p = bulk_energy_partials(P0, rho, s + step)
    gr_m, gs_m = bulk_energy_partials(P0, rho, s - step)
    np.testing.assert_allclose(hrs, (gr_p - gr_m) / (2 * step), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(hss, (gs_p - gs_m) / (2 * step), rtol=1e-6, atol=1e-8)


def test_delta_t_forms_are_the_profile_equations_bulk_terms_free_of_the_gauge():
    # the profile equations' bulk terms d(rho*alpha)/drho - s*T0 - mu_c and
    # d(rho*alpha)/ds - rho*T0, and their Hessian, read the undercooling only:
    # the gauge constants mu_c, T_c and p_c leave them bitwise unchanged
    rho, s = state_grid()
    dt = 0.01
    T0 = P0.T_c - dt
    gr, gs = bulk_energy_partials(P0, rho, s)
    tr, ts = bulk_energy_partials(P0, rho, s, dt)
    np.testing.assert_allclose(tr, gr - s * T0 - P0.mu_c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(ts, gs - rho * T0, rtol=0, atol=1e-15)
    hrr, hrs, hss = bulk_energy_hessian(P0, rho, s)
    trr, trs, tss = bulk_energy_hessian(P0, rho, s, dt)
    assert np.array_equal(trr, hrr) and np.array_equal(tss, hss)
    np.testing.assert_allclose(trs, hrs - T0, rtol=0, atol=1e-15)
    gauged = FluidParams(mu_c=1e6, T_c=1e6, p_c=1e6)
    for f in (bulk_energy_partials, bulk_energy_hessian):
        for a, b in zip(f(gauged, rho, s, dt), f(P0, rho, s, dt)):
            assert np.array_equal(a, b), f.__name__
    # nor do mu_c and T_c move the pressure, in which they cancel
    assert np.array_equal(pressure(FluidParams(mu_c=1e6, T_c=1e6), rho, s),
                          pressure(P0, rho, s))


def test_pressure_keeps_the_bits_of_the_enthalpy_route():
    # P = rho*h0 - rho*alpha, h0 read off bulk_energy_partials' delta_t form
    # at delta_t = 0 and rho*alpha less its gauge terms, on 10^4 random states
    rng = np.random.default_rng(5)
    rho, s = rng.uniform(0.01, 3.0, 10**4), rng.normal(scale=0.5, size=10**4)
    for p in (P0, FluidParams(A=2.3, B=0.7, rho_c=1.3, mu_c=0.2, T_c=1.7, p_c=0.3, D=-0.5)):
        _, eta, W = _quartic(p, rho, s)
        route = (rho * bulk_energy_partials(p, rho, s, 0.0)[0]
                 - (p.B / (2.0 * p.A**2)) * (W * W + eta * eta) + p.p_c)
        assert np.array_equal(pressure(p, rho, s), route)


def test_check_certifies_the_delta_t_forms_at_any_gauge():
    # check's eos rows judge the delta_t forms, in which the gauge constants
    # cancel exactly, so constants of 1e12 leave each row two decades below
    # its threshold; the chemical potential, profile and stress rows never
    # add them, so they read the reference gauge's metrics bit for bit
    p = FluidParams(mu_c=1e12, T_c=1e12, p_c=1e12)
    rows = {c["name"]: c for c in run_checks(p, bulk_conditions(p, delta_t=0.01),
                                             GridConfig(), 0)}
    assert len(rows) == 12 and all(c["passed"] for c in rows.values()), rows
    for name in ("eos-partials-vs-finite-difference", "eos-hessian-vs-finite-difference",
                 "bulk-states-at-coexistence"):
        assert rows[name]["metric"] <= 1e-2 * rows[name]["threshold"], rows[name]
    reference = {c["name"]: c for c in run_checks(P0, bulk_conditions(P0, delta_t=0.01),
                                                  GridConfig(), 0)}
    for name in ("slaved-chemical-potential-identity", "profile-equation-residual",
                 "equilibrium-stress-residual"):
        assert rows[name]["metric"] == reference[name]["metric"], name


def test_partials_match_expanded_polynomial_form():
    # Expanding (B/2A^2)[(A m^2 + eta)^2 + eta^2] term by term gives
    #   (B/2) m^4 + (B/A) m^2 eta + (B/A^2) eta^2
    # whose partials in (rho, s) must agree with the closed-form ones to
    # round-off, not just to finite-difference accuracy.
    p = FluidParams(A=1.3, B=0.7, mu_c=0.2, p_c=0.05, T_c=1.1)
    rho, s = state_grid()
    m = rho - p.rho_c
    eta = rho * s
    d_dm = 2 * p.B * m ** 3 + 2 * (p.B / p.A) * m * eta
    d_deta = (p.B / p.A) * m ** 2 + 2 * (p.B / p.A ** 2) * eta + p.T_c
    expanded_r = d_dm + s * d_deta + p.mu_c
    expanded_s = rho * d_deta
    gr, gs = bulk_energy_partials(p, rho, s)
    np.testing.assert_allclose(gr, expanded_r, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(gs, expanded_s, rtol=1e-12, atol=1e-14)


def test_energy_matches_expanded_polynomial_form():
    p = FluidParams(A=0.8, B=1.4, mu_c=-0.1, p_c=0.3)
    rho, s = state_grid()
    m = rho - p.rho_c
    eta = rho * s
    expanded = ((p.B / 2) * m ** 4 + (p.B / p.A) * m ** 2 * eta
                + (p.B / p.A ** 2) * eta ** 2
                + p.mu_c * rho + p.T_c * eta - p.p_c)
    np.testing.assert_allclose(bulk_energy(p, rho, s), expanded, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Thermodynamic identities
# ---------------------------------------------------------------------------

def test_temperature_is_entropy_partial_over_density():
    rho, s = state_grid()
    _, gs = bulk_energy_partials(P0, rho, s)
    np.testing.assert_allclose(temperature(P0, rho, s), gs / rho, rtol=1e-13)


def test_enthalpy_euler_relation():
    # h = (e + P)/rho collapses to the density partial of the energy, and
    # subtracting s*T from it gives the full chemical potential.  Both are
    # exact identities of the Legendre structure, independent of parameters.
    p = FluidParams(A=1.1, B=0.9, mu_c=0.4, p_c=0.2, T_c=1.3)
    rho, s = state_grid()
    gr, _ = bulk_energy_partials(p, rho, s)
    np.testing.assert_allclose(
        enthalpy(p, rho, s), (bulk_energy(p, rho, s) + pressure(p, rho, s)) / rho,
        rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(enthalpy(p, rho, s), gr, rtol=1e-12, atol=1e-14)
    T = temperature(p, rho, s)
    np.testing.assert_allclose(
        chemical_potential_full(p, rho, s, T), gr - s * T, rtol=1e-12, atol=1e-14)


def test_slaved_entropy_reproduces_the_target_temperature():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 1.5, size=200)
    dt = rng.uniform(1e-4, 0.2, size=200)
    s = entropy_slave(P0, rho, dt)
    np.testing.assert_allclose(temperature(P0, rho, s), P0.T_c - dt,
                               rtol=1e-12, atol=1e-14)


def test_chemical_potential_collapses_to_cubic_on_slaved_states():
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.5, 1.5, size=500)
    dt = rng.uniform(1e-4, 0.2, size=500)
    s = entropy_slave(P0, rho, dt)
    mu = chemical_potential_full(P0, rho, s, P0.T_c - dt)
    cubic = chemical_potential_cubic(P0, rho, dt)
    np.testing.assert_allclose(mu, cubic, rtol=1e-12, atol=1e-14)


def test_cubic_roots_are_the_bulk_densities():
    bc = bulk_conditions(P0, delta_t=0.01)
    for rho in (0.9, 1.0, 1.1):
        assert chemical_potential_cubic(P0, rho, bc.delta_t) == pytest.approx(
            P0.mu_c, abs=1e-15)


# ---------------------------------------------------------------------------
# Coexistence at the reference undercooling
# ---------------------------------------------------------------------------

def test_bulk_states_reference_values():
    bc = bulk_conditions(P0, delta_t=0.01)
    liquid, vapor = bulk_states(P0, bc)
    assert liquid.rho == pytest.approx(1.1, rel=1e-15)
    assert vapor.rho == pytest.approx(0.9, rel=1e-15)
    assert liquid.s == pytest.approx(-1.0 / 110.0, rel=1e-13)
    assert vapor.s == pytest.approx(-1.0 / 90.0, rel=1e-13)
    # the midpoint of the slaved manifold sits at s = -delta_t/2 here
    assert entropy_slave(P0, 1.0, 0.01) == pytest.approx(-0.005, rel=1e-15)


def test_bulk_states_share_temperature_pressure_and_potential():
    bc = bulk_conditions(P0, delta_t=0.01)
    liquid, vapor = bulk_states(P0, bc)
    for st in (liquid, vapor):
        assert temperature(P0, st.rho, st.s) == pytest.approx(bc.T0, abs=1e-14)
        assert chemical_potential_full(P0, st.rho, st.s, bc.T0) == pytest.approx(
            P0.mu_c, abs=1e-14)
    # coexistence sits at mu_c whatever its value, not at a fixed zero
    shifted = FluidParams(mu_c=0.7)
    for st in bulk_states(shifted, bc):
        assert chemical_potential_full(shifted, st.rho, st.s, bc.T0) == pytest.approx(
            0.7, abs=1e-14)
    p_l = pressure(P0, liquid.rho, liquid.s)
    p_v = pressure(P0, vapor.rho, vapor.s)
    assert p_l == pytest.approx(p_v, abs=1e-15)
    # hand value: with the reference constants the coexistence pressure is
    # p_c + A^2 dT^2 / (4B) ... shifted by the slaved-entropy energy; the
    # frozen number below was derived once by hand and is used by the
    # stress tests as the bulk normal traction.
    assert p_l == pytest.approx(5.0e-5, rel=1e-12)
