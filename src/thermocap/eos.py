"""Equation of state of a near-critical fluid with entropy-dependent capillarity.

The volumetric internal energy of the homogeneous fluid is a quartic
expansion about the critical point (rho = rho_c, s = 0),

    rho*alpha(rho, s) = (B / 2A^2) * [ (A*(rho - rho_c)^2 + rho*s)^2
                                       + (rho*s)^2 ]
                        + mu_c*rho + T_c*rho*s - p_c,

so that the critical state reproduces temperature T_c, chemical potential
mu_c and pressure p_c.  The inhomogeneous part of the energy is the
positive-definite quadratic form (1/2)*(C*|grad rho|^2 + 2*D*grad rho.grad s
+ E*|grad s|^2); admissibility of the coefficients (C > 0, C*E - D^2 > 0)
is enforced at construction.

Two chemical-potential routes are provided on purpose.  The full route
differentiates the energy directly, mu = d(rho*alpha)/drho - s*T0.  The
cubic route is the closed form valid on the slaved-entropy manifold,
mu = mu_c + B*(rho - rho_c)^3 - A*(T_c - T0)*(rho - rho_c).  Their exact
agreement on that manifold is an algebraic identity and is what makes the
two bulk densities rho_c +/- sqrt(A*(T_c - T0)/B) exact coexistence states;
the test suite checks the identity to near round-off.

All thermodynamic functions broadcast over numpy arrays in rho and s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Mapping

from .errors import IndefiniteGradientForm, InvalidConfig, NonPositiveConstant

__all__ = [
    "FluidParams",
    "ThermoState",
    "BulkConditions",
    "read_number",
    "read_fields",
    "check_keys",
    "read_object",
    "validate_params",
    "bulk_conditions",
    "bulk_energy",
    "bulk_energy_partials",
    "bulk_energy_hessian",
    "temperature",
    "enthalpy",
    "pressure",
    "chemical_potential_full",
    "chemical_potential_cubic",
    "entropy_slave",
]


def frozen_record(cls=None, *, eq=True):
    """@dataclass(frozen=True), or with eq=False compared by identity, that
    generates only __init__, so a module's import execs one method per record,
    not six: the rest are this module's __setattr__, __delattr__, __repr__,
    __eq__ and __hash__, shared by every record.  They read all fields, so
    field(repr=, compare=, hash=) is not honoured."""
    if cls is None:
        return lambda cls: frozen_record(cls, eq=eq)
    cls = dataclass(cls, repr=False, eq=False)
    cls.__setattr__, cls.__delattr__, cls.__repr__ = _set_once, _no_delete, _record_repr
    if eq:
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    return cls


def _set_once(self, name, value):
    # a field is no descriptor, so its value goes straight into the instance dict
    attrs = self.__dict__
    if name in attrs or name not in self.__dataclass_fields__:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    attrs[name] = value


def _no_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


def _record_repr(self):
    args = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
    return f"{type(self).__qualname__}({args})"


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _record_hash(self):
    return hash(_field_values(self))


@frozen_record
class FluidParams:
    """Material constants in reduced units (defaults: the reference set)."""

    A: float = 1.0        # curvature of the EOS in density, > 0
    B: float = 1.0        # quartic stiffness of the EOS, > 0
    rho_c: float = 1.0    # critical density, > 0
    T_c: float = 1.0      # critical temperature, > 0
    mu_c: float = 0.0     # chemical potential at the critical point
    p_c: float = 0.0      # pressure at the critical point
    C: float = 1.0        # density-gradient stiffness, > 0
    D: float = 0.2        # density-entropy gradient coupling
    E: float = 1.0        # entropy-gradient stiffness

    def __post_init__(self):
        read_fields(self, "params")
        for name in ("A", "B", "rho_c", "T_c"):
            value = getattr(self, name)
            if value <= 0.0:
                raise NonPositiveConstant(f"{name} must be > 0, got {value!r}")
        if self.C <= 0.0:
            raise IndefiniteGradientForm(f"C must be > 0, got {self.C!r}")
        det = self.C * self.E - self.D * self.D
        if not det > 0.0:  # also where C*E and D^2 overflow and det is inf - inf = nan
            raise IndefiniteGradientForm(
                f"gradient energy must be positive definite: C*E - D^2 = {det!r} is not > 0")


def read_number(value, where: str) -> float:
    """A finite real number as a float, or InvalidConfig naming where it came from.

    Bools (an int subclass), strings and other non-numbers are refused, as
    are integers beyond the float range and NaN or infinite values (JSON's
    NaN, Infinity and 1e400), so no config value is coerced without notice.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise InvalidConfig(f"{where} is out of range: {value!r}") from None
    if not math.isfinite(number):
        raise InvalidConfig(f"{where} must be finite, got {number!r}")
    return number


def read_seed(seed) -> int:
    """seed as an int if it is an integer in [0, 2^64) and no bool; else InvalidConfig."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise InvalidConfig(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def check_keys(raw, allowed, where: str) -> Mapping:
    """raw, once it is a JSON object (a mapping) with no keys outside allowed;
    else InvalidConfig naming where, so that no typo runs on a default."""
    if not isinstance(raw, Mapping):
        raise InvalidConfig(f"{where} must be a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown, key=str)}")
    return raw


def read_object(cls, raw, where: str, **given):
    """The config dataclass cls from its JSON object raw, which may set the
    fields of cls not given (see check_keys); cls reads the values itself."""
    check_keys(raw, {f.name for f in fields(cls)} - set(given), where)
    return cls(**raw, **given)


def read_fields(obj, where: str, names=None) -> None:
    """Pass the named fields of a frozen dataclass (all by default) through read_number.

    Each field is replaced by its float, and a refused value names itself
    as where.field.
    """
    for name in names or [f.name for f in fields(obj)]:
        object.__setattr__(obj, name, read_number(getattr(obj, name), f"{where}.{name}"))


def validate_params(raw: Mapping[str, float]) -> FluidParams:
    """FluidParams from its JSON object; a key it omits takes the reference value."""
    return read_object(FluidParams, raw, "params")


@frozen_record
class ThermoState:
    """A homogeneous thermodynamic state (specific entropy gauge: s_c = 0)."""

    rho: float  # mass density, > 0
    s: float    # specific entropy

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho!r}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s!r}")


@frozen_record
class BulkConditions:
    """Imposed environment of an equilibrium profile.

    T0 is the uniform temperature of the planar interface problem and
    delta_t = T_c - T0 >= 0 the undercooling, cached because every closed
    form is written in it.  The chemical-potential constant of the profile
    equation is always mu_c: for this EOS a planar two-phase front exists
    at no other value.
    """

    T0: float
    delta_t: float

    def __post_init__(self):
        for name in ("T0", "delta_t"):
            object.__setattr__(self, name, read_number(getattr(self, name), name))
        if self.delta_t < 0.0:
            raise InvalidConfig(
                f"temperatures above critical are not modeled: delta_t = {self.delta_t!r} < 0"
            )


def bulk_conditions(p: FluidParams, *, delta_t: float | None = None,
                    T0: float | None = None) -> BulkConditions:
    """Construct BulkConditions from either the undercooling or T0 directly."""
    if (delta_t is None) == (T0 is None):
        raise InvalidConfig("specify exactly one of delta_t or T0")
    if delta_t is None:
        T0 = read_number(T0, "T0")
        return BulkConditions(T0=T0, delta_t=p.T_c - T0)
    delta_t = read_number(delta_t, "delta_t")  # so a bad delta_t, not the T0 from it, is named
    return BulkConditions(T0=p.T_c - delta_t, delta_t=delta_t)


# ---------------------------------------------------------------------------
# Bulk energy and its derivatives.  Everything below is written in terms of
# m = rho - rho_c, eta = rho*s and W = A*m^2 + eta, computed once by
# _quartic, which keeps the algebra identical to the hand derivation used
# for the frozen test values.
# ---------------------------------------------------------------------------

def _quartic(p: FluidParams, rho, s):
    """(m, eta, W): the variables the quartic energy is written in."""
    m = rho - p.rho_c
    eta = rho * s
    return m, eta, p.A * m * m + eta


def bulk_energy(p: FluidParams, rho, s):
    """Volumetric internal energy rho*alpha of the homogeneous fluid."""
    _, eta, W = _quartic(p, rho, s)
    return (p.B / (2.0 * p.A**2)) * (W * W + eta * eta) + p.mu_c * rho + p.T_c * eta - p.p_c


def _quartic_d_rho(p: FluidParams, m, eta, W, s):
    """d(rho*alpha)/drho less mu_c + T_c*s, from _quartic's variables."""
    return p.B / p.A**2 * (W * (2.0 * p.A * m + s) + eta * s)


def bulk_energy_partials(p: FluidParams, rho, s, delta_t=None):
    """Partial derivatives (d/drho, d/ds) of rho*alpha at fixed other variable.

    Given delta_t, those of rho*alpha - mu_c*rho - T0*rho*s, T0 = T_c - delta_t,
    the profile equations' bulk terms: mu_c and T_c cancel exactly, not in rounding."""
    m, eta, W = _quartic(p, rho, s)
    d_rho = _quartic_d_rho(p, m, eta, W, s)
    d_s = p.B / p.A**2 * rho * (W + eta)
    if delta_t is None:
        return d_rho + p.mu_c + p.T_c * s, d_s + p.T_c * rho
    return d_rho + delta_t * s, d_s + delta_t * rho


def bulk_energy_hessian(p: FluidParams, rho, s, delta_t=None):
    """Second partials (d2/drho2, d2/drho ds, d2/ds2) of rho*alpha.

    Given delta_t, those of bulk_energy_partials' delta_t form (d2/drho ds less
    T0).  Needed analytically by the Newton solver of the coupled profile
    system; checked against finite differences in the tests.
    """
    m, eta, W = _quartic(p, rho, s)
    coef = p.B / p.A**2
    g = 2.0 * p.A * m + s
    h_rr = coef * (g * g + 2.0 * p.A * W + s * s)
    h_rs = coef * (rho * g + W + 2.0 * eta) + (p.T_c if delta_t is None else delta_t)
    h_ss = 2.0 * coef * rho * rho
    return h_rr, h_rs, h_ss


def temperature(p: FluidParams, rho, s):
    """Absolute temperature T = (1/rho) d(rho*alpha)/ds."""
    return bulk_energy_partials(p, rho, s)[1] / rho


def enthalpy(p: FluidParams, rho, s):
    """Specific enthalpy h0 = alpha + rho*(d alpha/d rho) = d(rho*alpha)/drho."""
    return bulk_energy_partials(p, rho, s)[0]


def pressure(p: FluidParams, rho, s):
    """Thermodynamic pressure of the bulk, P = rho*h0 - rho*alpha, written without the
    mu_c and T_c terms of h0 and rho*alpha, which cancel in P exactly, not in rounding."""
    m, eta, W = _quartic(p, rho, s)
    return (rho * _quartic_d_rho(p, m, eta, W, s)  # h0 - mu_c - T_c*s
            - (p.B / (2.0 * p.A**2)) * (W * W + eta * eta) + p.p_c)


def chemical_potential_full(p: FluidParams, rho, s, T0):
    """Chemical potential at imposed temperature, mu = h0 - s*T0."""
    return enthalpy(p, rho, s) - s * T0


def chemical_potential_cubic(p: FluidParams, rho, delta_t):
    """Closed-form chemical potential on the slaved-entropy manifold.

    mu = mu_c + B*(rho - rho_c)^3 - A*(T_c - T0)*(rho - rho_c).  The minus
    sign on the undercooling term is what produces the two symmetric bulk
    roots below T_c; it is the sign consistent with the profile equation.
    """
    m = rho - p.rho_c
    return p.mu_c + p.B * m**3 - p.A * delta_t * m


def entropy_slave(p: FluidParams, rho, delta_t):
    """Entropy enslaved to the density by the condition T(rho, s) = T0.

    Solves 2*rho*s = (A^2/B)*(T0 - T_c) - A*(rho - rho_c)^2 for s, which
    inverts temperature() exactly (an identity, not an approximation).
    """
    m = rho - p.rho_c
    return (-(p.A**2 / p.B) * delta_t - p.A * m * m) / (2.0 * rho)
