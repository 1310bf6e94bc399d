"""Planar liquid-vapor interface profiles and their observables.

Two routes to the equilibrium profile are kept deliberately independent.
The closed route slaves the entropy to the density and solves the single
density equation analytically: a tanh front of width zeta connecting the
two bulk densities.  The full route discretizes the coupled system

    C rho'' + D s'' = d(rho*alpha)/drho - s*T0 - mu_c
    D rho'' + E s'' = d(rho*alpha)/ds   - rho*T0

on [-L, L] with Dirichlet data from the exact bulk states and solves it by
Newton iteration with an analytic block-tridiagonal Jacobian, bordered so
the front stays at y = 0; solve_full_bvp says how a solve is seeded and
_newton how it is judged.  The solver uses plain 2nd-order central
differences (keeps the Jacobian banded); all diagnostics use 4th-order
stencils so discretization error of the diagnostic never masks the
quantity being diagnosed.

Each Newton step is one direct LAPACK dgbsv call on a Fortran-ordered band
buffer that the Jacobian is assembled into, so the binding hands LAPACK the
buffer itself, with no copy or transpose.  Each grid node owns 20
contiguous doubles of that buffer; the assembly lays one per-node pattern
of the constant neighbour blocks over all of them, then writes the
iterate's diagonal blocks.  Only the full route needs scipy, and only for
that LAPACK routine: on first use it loads scipy's compiled extension
scipy.linalg._flapack on its own (see _dgbsv), never the scipy or
scipy.linalg packages, so no route pays the scipy.linalg import.  The
loader leaves no module behind in sys.modules, so a later import of
scipy.linalg binds the extension as usual, with the same routine objects.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .eos import (
    BulkConditions,
    FluidParams,
    ThermoState,
    bulk_energy_hessian,
    bulk_energy_partials,
    entropy_slave,
    pressure,
    read_fields,
)
from .errors import (
    CriticalIsotherm,
    InvalidConfig,
    MaxIterations,
    NewtonDiverged,
    NonPositiveData,
    UndecayedTail,
)

__all__ = [
    "GridConfig",
    "Profile",
    "InterfaceObservables",
    "NewtonReport",
    "bulk_states",
    "interface_width",
    "tanh_front",
    "closed_profile",
    "surface_tension_closed",
    "surface_tension_quadrature",
    "reduced_residual",
    "first_integral_residual",
    "solve_full_bvp",
    "interface_observables",
    "stress_tensor",
    "stress_yy_profile",
    "equilibrium_stress_residual",
    "profile_to_csv",
    "derivative_4th",
    "second_derivative_4th",
    "simpson_uniform",
]


# the largest grid: a full solve peaks near 400 B per node, about 400 MB here
_MAX_POINTS = 1_000_001


@dataclass(frozen=True)
class GridConfig:
    """Uniform grid on [-L, L] with L expressed in interface widths."""

    half_width_in_zeta: float = 15.0  # L / zeta; tanh tail at 15 zeta < 1e-6 of the jump
    n_points: int = 1001              # odd so a node sits exactly at y = 0

    def __post_init__(self):
        read_fields(self, "grid", ["half_width_in_zeta"])
        n = self.n_points
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 51 or n % 2 == 0:
            raise InvalidConfig(f"grid.n_points must be an odd integer >= 51, got {n!r}")
        object.__setattr__(self, "n_points", int(n))  # a numpy integer too
        if self.n_points > _MAX_POINTS:
            raise InvalidConfig(f"grid.n_points must be <= {_MAX_POINTS} (a full solve "
                                "needs about 400 B per node)")
        if self.half_width_in_zeta < 8.0:
            raise InvalidConfig(
                f"grid.half_width_in_zeta must be >= 8, got {self.half_width_in_zeta!r}"
            )


@dataclass(frozen=True, eq=False)
class Profile:
    """Discrete interface profile: densities and entropies on a uniform grid."""

    y: np.ndarray
    rho: np.ndarray
    s: np.ndarray
    bc: BulkConditions
    provenance: str  # "closed-form" or "full-solver"

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if not (y.ndim == 1 and y.shape == rho.shape == s.shape):
            raise ValueError("y, rho, s must be 1-d arrays of equal length")
        if y.size < 5:
            raise ValueError("profile needs at least 5 nodes")
        dy = np.diff(y)
        if not np.all(dy > 0.0):
            raise ValueError("y must be strictly increasing")
        if np.ptp(dy) > 1e-8 * dy[0]:
            raise ValueError("y must be uniformly spaced")
        for name, arr in (("y", y), ("rho", rho), ("s", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def mid_index(self) -> int:
        return self.y.size // 2


@dataclass(frozen=True)
class InterfaceObservables:
    """Interface quantities in one bundle, closed forms next to quadrature."""

    zeta: float          # interface width sqrt(C / (2 A delta_t))
    rho_l: float         # liquid bulk density
    rho_v: float         # vapor bulk density
    sigma_closed: float  # closed-form surface tension
    sigma_quad: float    # quadrature surface tension on the profile
    f0: float            # first-integral constant A^2 delta_t^2 / (4B)
    delta_T: float       # the undercooling T_c - T0

    def __post_init__(self):
        if not self.zeta > 0.0:
            raise ValueError("zeta must be > 0")
        if not self.rho_l > self.rho_v:
            raise ValueError("rho_l must exceed rho_v")
        if self.sigma_closed < 0.0 or self.sigma_quad < 0.0:
            raise ValueError("surface tension must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NewtonReport:
    """Convergence record of one bordered-Newton solve."""

    iterations: int               # len(residual_history) == len(damping_history)
    residual_norm: float          # max|F| of the equations at the last iterate
    converged: bool
    damping_history: tuple[int, ...]  # step halvings accepted per iteration
    tolerance: float
    phase_force: float = 0.0      # final bordering scalar c pinning the front
    residual_history: tuple[float, ...] = ()  # max|F + c*psi| after each iteration
    seed_points: int = 0          # nodes of the pre-solve that seeded it, 0 for the closed seed
    seed_iterations: int = 0      # iterations the pre-solve took

    def __post_init__(self):
        if self.converged and not self.residual_norm <= self.tolerance:
            raise ValueError("converged report must satisfy residual <= tolerance")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# 4th-order finite-difference stencils (diagnostics only)
# ---------------------------------------------------------------------------

def derivative_4th(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative, 4th order: central interior, one-sided at the ends."""
    f = np.asarray(f, dtype=float)
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    return d


def second_derivative_4th(f: np.ndarray, h: float) -> np.ndarray:
    """Second derivative on interior nodes 2..n-3 (5-point central stencil)."""
    f = np.asarray(f, dtype=float)
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

def bulk_states(p: FluidParams, bc: BulkConditions) -> tuple[ThermoState, ThermoState]:
    """Coexisting (liquid, vapor) bulk states at undercooling delta_t.

    rho_{l,v} = rho_c +/- sqrt(A*delta_t/B) with slaved entropies; these are
    exact roots of both equilibrium equations, not asymptotic ones.  Where
    the two densities coincide in floating point (at delta_t = 0 they
    collapse onto the critical point, and an undercooling far below the
    resolution of rho_c cannot separate them) there is no interface to
    describe, and CriticalIsotherm is raised.
    """
    amp = math.sqrt(p.A * bc.delta_t / p.B)
    rho_l = p.rho_c + amp
    rho_v = p.rho_c - amp
    if rho_v <= 0.0:
        raise NonPositiveData(
            f"undercooling {bc.delta_t!r} drives the vapor branch to "
            f"rho_v = {rho_v!r} <= 0; coexistence needs sqrt(A*delta_t/B) < rho_c"
        )
    if not rho_l > rho_v:
        raise CriticalIsotherm(
            f"undercooling {bc.delta_t!r} does not separate the bulk densities: "
            f"rho_l = rho_v = {rho_l!r} in floating point")
    liquid = ThermoState(rho=rho_l, s=float(entropy_slave(p, rho_l, bc.delta_t)))
    vapor = ThermoState(rho=rho_v, s=float(entropy_slave(p, rho_v, bc.delta_t)))
    return liquid, vapor


def interface_width(p: FluidParams, bc: BulkConditions) -> float:
    """Characteristic width zeta = sqrt(C / (2 A delta_t)) of the tanh front."""
    if bc.delta_t == 0.0:
        raise CriticalIsotherm("interface width diverges at T0 = T_c")
    return math.sqrt(p.C / (2.0 * p.A * bc.delta_t))


def tanh_front(p: FluidParams, bc: BulkConditions, y) -> np.ndarray:
    """The closed density front rho_c + (rho_l - rho_v)/2 * tanh(y / (2 zeta)) at heights y."""
    liquid, vapor = bulk_states(p, bc)
    zeta = interface_width(p, bc)
    return p.rho_c + 0.5 * (liquid.rho - vapor.rho) * np.tanh(y / (2.0 * zeta))


def closed_profile(p: FluidParams, bc: BulkConditions, g: GridConfig = GridConfig()) -> Profile:
    """The tanh front with slaved entropy on the requested grid."""
    zeta = interface_width(p, bc)
    h = 2.0 * g.half_width_in_zeta * zeta / (g.n_points - 1)
    if not math.isfinite(h):  # a finite h keeps every node |y| <= h * (n - 1) / 2 finite
        raise InvalidConfig(f"grid end half_width_in_zeta * zeta = {g.half_width_in_zeta!r} "
                            f"* {zeta!r} overflows")
    # build y as exact integer multiples of h so the midpoint is exactly 0
    y = h * (np.arange(g.n_points, dtype=float) - (g.n_points - 1) // 2)
    rho = tanh_front(p, bc, y)
    s = entropy_slave(p, rho, bc.delta_t)
    return Profile(y=y, rho=rho, s=s, bc=bc, provenance="closed-form")


def surface_tension_closed(p: FluidParams, bc: BulkConditions) -> float:
    """Closed-form tension sigma = (sqrt(C)/(3B)) * (2 A delta_t)^(3/2)."""
    return math.sqrt(p.C) / (3.0 * p.B) * (2.0 * p.A * bc.delta_t) ** 1.5


def surface_tension_quadrature(p: FluidParams, prof: Profile) -> float:
    """Surface tension as the excess-energy integral of C*rho'(y)^2.

    Composite Simpson over the grid with 4th-order derivative stencils.
    Requires decayed tails so the truncated integral represents the full
    line integral.
    """
    liquid, vapor = bulk_states(p, prof.bc)
    jump = liquid.rho - vapor.rho
    tail = 1e-6 * jump
    if abs(prof.rho[0] - vapor.rho) > tail or abs(prof.rho[-1] - liquid.rho) > tail:
        raise UndecayedTail(
            "profile tails have not reached the bulk densities: "
            f"|rho(-L)-rho_v| = {abs(prof.rho[0] - vapor.rho):.3e}, "
            f"|rho(+L)-rho_l| = {abs(prof.rho[-1] - liquid.rho):.3e}, "
            f"allowed {tail:.3e}"
        )
    drho = derivative_4th(prof.rho, prof.h)
    return simpson_uniform(p.C * drho * drho, prof.h)


def simpson_uniform(f: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples f on a uniform grid of spacing h.

    An even node count leaves one interval over; it is closed with the
    uniform-grid case of Cartwright's last-interval correction, the rule
    scipy.integrate.simpson applies, so both parities stay 4th order.
    """
    odd = f[:f.size - 1 + f.size % 2]  # longest prefix with an odd node count
    total = np.sum(odd[:-2:2] + 4.0 * odd[1:-1:2] + odd[2::2]) * (h / 3.0)
    if f.size % 2 == 0:
        total += h / 12.0 * (5.0 * f[-1] + 8.0 * f[-2] - f[-3])
    return float(total)


# the diagnostics below take bc beside a profile that carries its own; a
# pair from two problems would mix one problem's closed forms with the
# other's profile, so it is refused
def _own_conditions(bc: BulkConditions, prof: Profile) -> None:
    if bc != prof.bc:
        raise InvalidConfig(f"conditions {bc} are not the profile's own {prof.bc}")


def reduced_residual(p: FluidParams, bc: BulkConditions, prof: Profile) -> np.ndarray:
    """Pointwise defect of the reduced profile equation.

    C rho'' - (B m^3 - A delta_t m) with m = rho - rho_c,
    evaluated with the 4th-order second-difference stencil on the nodes
    2..n-3 where it applies.  The stencil acts on rho - rho_c, which has the
    same second derivative but two fewer digits of cancellation.
    """
    _own_conditions(bc, prof)
    m = prof.rho - p.rho_c
    d2 = second_derivative_4th(m, prof.h)
    m = m[2:-2]
    return p.C * d2 - (p.B * m**3 - p.A * bc.delta_t * m)


def first_integral_residual(p: FluidParams, bc: BulkConditions, prof: Profile) -> np.ndarray:
    """Pointwise defect of the first integral of the reduced equation.

    (1/2) C rho'^2 - ((sqrt(B)/2) m^2 - (A/(2 sqrt(B))) delta_t)^2 on the
    interior nodes 2..n-3 (central 4th-order first differences).
    """
    _own_conditions(bc, prof)
    drho = derivative_4th(prof.rho, prof.h)[2:-2]
    m = prof.rho[2:-2] - p.rho_c
    sqrt_b = math.sqrt(p.B)
    rhs = (0.5 * sqrt_b * m * m - 0.5 * p.A * bc.delta_t / sqrt_b) ** 2
    return 0.5 * p.C * drho * drho - rhs


# ---------------------------------------------------------------------------
# Full coupled solver
# ---------------------------------------------------------------------------

def _coupled_residual(p: FluidParams, bc: BulkConditions, rho: np.ndarray,
                      s: np.ndarray, h: float) -> np.ndarray:
    """Residual of the discretized system on interior nodes, interleaved."""
    c2 = 1.0 / (h * h)
    lap_rho = (rho[:-2] - 2.0 * rho[1:-1] + rho[2:]) * c2
    lap_s = (s[:-2] - 2.0 * s[1:-1] + s[2:]) * c2
    # d(rho*alpha)/drho - s*T0 - mu_c and d(rho*alpha)/ds - rho*T0, in delta_t
    d_rho, d_s = bulk_energy_partials(p, rho[1:-1], s[1:-1], bc.delta_t)
    f1 = p.C * lap_rho + p.D * lap_s - d_rho
    f2 = p.D * lap_rho + p.E * lap_s - d_s
    out = np.empty(2 * f1.size)
    out[0::2] = f1
    out[1::2] = f2
    return out


_KL = _KU = 3  # half-bandwidths of the interleaved block-tridiagonal Jacobian
_TOL = 1e-10  # max-norm residual at which Newton stops
_MAX_ITER = 50
_MAX_DAMPING = 20  # step halvings allowed per iteration
# Nested iteration: grids of at least _SEED_FACTOR * (_SEED_POINTS - 1) + 1
# nodes are seeded from a solve on _SEED_POINTS nodes (see solve_full_bvp).
# On a 2-core VM (Python 3.11, numpy 2.4), best of 15 in process, one solve
# takes (ms, closed seed -> pre-solve):
#       n   delta_t = 0.1     1e-2         1e-4
#   16001   19.2 -> 10.3   13.9 -> 9.2   7.6 -> 9.1
#    8001    7.6 -> 5.5     6.9 -> 4.0   3.2 -> 4.9
#    4001    5.3 -> 4.1     3.8 -> 2.4   2.1 -> 2.5
# The pre-solve pays at delta_t >= 1e-2 and is pure overhead at 1e-4 on
# every grid, so the factor 8 trades one range of delta_t against the other
# (4001 nodes would gain at delta_t >= 1e-2 too); it is not a measured optimum.
# Over the bvp-grid workload's mix the trade is flat: a factor of 2 (every
# grid above 1001 nodes nested) moved pass medians by at most 1 % and won
# 47 of 80 paired in-process passes over two runs.
_SEED_POINTS = 1001
_SEED_FACTOR = 8


@functools.cache
def _dgbsv():
    """scipy's compiled dgbsv, without importing scipy or scipy.linalg.

    The package route, scipy.linalg.get_lapack_funcs, loads some 330
    modules and costs about 0.3 s for this one routine.  Instead the f2py
    extension that holds it is located in scipy's install directory and run
    on its own; it is the same extension module the package imports, so the
    returned object is the one get_lapack_funcs(("gbsv",)) gives.  When the
    extension is not found there (an editable build, say), the package route
    is taken.
    """
    package = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    spec = None if package is None else importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(d, "linalg") for d in package.submodule_search_locations])
    if spec is None:  # also where scipy is missing: the import below then says so
        from scipy.linalg import get_lapack_funcs
        return get_lapack_funcs(("gbsv",), dtype=np.float64)[0]
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    if "scipy.linalg" not in sys.modules:
        # left in sys.modules, the extension would keep a later import of
        # scipy.linalg from binding it as the package attribute; dropped,
        # that import re-creates it from the extension's cached state, with
        # the same routine objects
        sys.modules.pop("scipy.linalg._flapack", None)
    return flapack.dgbsv


def _band_pattern(p: FluidParams, h: float) -> np.ndarray:
    """The Jacobian's constant part, one grid node's share of the gbsv buffer.

    gbsv wants a Fortran-ordered (2*kl + ku + 1, 2q) buffer whose first kl
    rows are workspace for the LU fill-in and whose remaining rows hold the
    band, ab[kl + ku + i - j, j] = J[i, j].  Unknowns interleave as
    (rho_1, s_1, rho_2, s_2, ...), so node k's columns 2k and 2k + 1 are 20
    contiguous doubles, and J[2(k + e) + r, 2k + c] is slot
    10c + 6 + 2e + r - c of them.  The neighbour blocks [[C, D], [D, E]] / h^2
    (e = -1: slots 4, 5, 13, 14; e = +1: slots 8, 9, 17, 18) do not depend
    on the iterate; every other slot is zero here.
    """
    c2 = 1.0 / (h * h)
    pattern = np.zeros(2 * (2 * _KL + _KU + 1))
    pattern[[4, 5, 13, 14]] = pattern[[8, 9, 17, 18]] = (p.C * c2, p.D * c2, p.D * c2, p.E * c2)
    return pattern


def _coupled_jacobian_banded(p: FluidParams, bc: BulkConditions, rho: np.ndarray,
                             s: np.ndarray, pattern: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Banded (l = u = 3) Jacobian of _coupled_residual, LAPACK layout.

    Each grid node contributes a symmetric 2x2 block, so the matrix is
    block-tridiagonal.  out is a Fortran-ordered gbsv buffer, which is
    overwritten: every node's 20 slots get pattern (from _band_pattern),
    then the iterate's diagonal block (slots 6, 7, 15, 16), and the slots of
    a neighbour off the grid are zeroed.  The return value is the band view
    out[3:], with ab[3 + i - j, j] = J[i, j].
    """
    nodes = out.T.reshape(-1, pattern.size)  # a view: out is Fortran-ordered
    nodes[:] = pattern
    h_rr, h_rs, h_ss = bulk_energy_hessian(p, rho[1:-1], s[1:-1], bc.delta_t)
    # the diagonal block is -2 [[C, D], [D, E]] / h^2 (the neighbour block
    # at slots 4, 5, 14) less the Hessian
    nodes[:, 6] = -2.0 * pattern[4] - h_rr
    nodes[:, 7] = nodes[:, 15] = -2.0 * pattern[5] - h_rs  # d(F_1)/ds == d(F_2)/drho
    nodes[:, 16] = -2.0 * pattern[14] - h_ss
    nodes[0, [4, 5, 13, 14]] = 0.0  # the first node has no neighbour above
    nodes[-1, [8, 9, 17, 18]] = 0.0  # nor the last one below
    return out[_KL:]


def solve_full_bvp(p: FluidParams, bc: BulkConditions,
                   g: GridConfig = GridConfig()) -> tuple[Profile, NewtonReport]:
    """Solve the coupled two-field boundary-value problem by bordered Newton.

    Dirichlet data are the exact bulk states.  The closed-form profile,
    accurate to O(delta_t), seeds grids of fewer than
    _SEED_FACTOR * (_SEED_POINTS - 1) + 1 nodes.  Finer grids are seeded by
    nested iteration (Brandt, Math. Comp. 31, 1977): the problem is first
    solved on _SEED_POINTS nodes of the same box, and the correction to the
    closed profile found there is interpolated onto the fine grid and added
    to its closed profile.  The correction vanishes at y = 0, a node of both
    grids, so this seed too meets the phase condition exactly (see _newton).
    A MaxIterations or NewtonDiverged of the pre-solve keeps its class and
    names the pre-solve; the report's seed_points (0 for the closed seed)
    and seed_iterations record it.

    Only the requested grid's solve is judged, by its report's verdict (see
    _newton).  A solve that is not converged held the front only by a real
    force: the box truncates the tails, and UndecayedTail is raised with
    the report instead of returning the truncated profile.  A solution that
    leaves the bracket of the bulk densities raises NewtonDiverged.
    """
    closed = closed_profile(p, bc, g)
    rho, s, seed_points, seed_iterations = closed.rho, closed.s, 0, 0
    if g.n_points >= _SEED_FACTOR * (_SEED_POINTS - 1) + 1:
        coarse = closed_profile(p, bc, replace(g, n_points=_SEED_POINTS))
        try:
            coarse_rho, coarse_s, coarse_report = _newton(p, bc, coarse, coarse.rho, coarse.s)
        except (MaxIterations, NewtonDiverged) as exc:
            raise type(exc)(f"{_SEED_POINTS}-node pre-solve: {exc}", exc.report) from exc
        # interpolate the correction to the closed profile, not the profile
        rho = closed.rho + np.interp(closed.y, coarse.y, coarse_rho - coarse.rho)
        s = closed.s + np.interp(closed.y, coarse.y, coarse_s - coarse.s)
        seed_points, seed_iterations = _SEED_POINTS, coarse_report.iterations
    rho, s, report = _newton(p, bc, closed, rho, s, seed_points, seed_iterations)
    if not report.converged:
        raise UndecayedTail(
            f"holding the front at y = 0 takes a force c = {report.phase_force:.3e}: the "
            f"equations' residual is {report.residual_norm:.3e} > {_TOL:.1e}, so the box of "
            f"half_width_in_zeta = {g.half_width_in_zeta:g} truncates the tails; widen it",
            report)
    liquid, vapor = bulk_states(p, bc)
    slack = 1e-6 * (liquid.rho - vapor.rho)  # overshoot allowed, relative to the jump
    if np.min(rho) < vapor.rho - slack or np.max(rho) > liquid.rho + slack:
        raise NewtonDiverged(
            "converged iterate leaves the physical density bracket "
            f"[{vapor.rho:.6g}, {liquid.rho:.6g}]")
    return Profile(y=closed.y, rho=rho, s=s, bc=bc, provenance="full-solver"), report


def _newton(p: FluidParams, bc: BulkConditions, closed: Profile, rho: np.ndarray,
            s: np.ndarray, seed_points: int = 0,
            seed_iterations: int = 0) -> tuple[np.ndarray, np.ndarray, NewtonReport]:
    """Bordered Newton on closed's grid from the seed (rho, s).

    The seed is copied and its ends set to the bulk states.  A wide box
    leaves the front nearly free to translate, so the system is bordered
    (Beyn, IMA J. Numer. Anal. 10, 1990): a scalar c joins the unknowns,
    the equations become G = F + c*psi with psi the closed profile's
    translation mode, and the phase condition rho(0) = rho_c, which the
    seed must meet, pins the front.  psi comes from the closed profile
    whatever the seed, so the bordered problem, and the force c that a
    truncating box needs, do not depend on the seed.

    Each step is one dgbsv solve (its band buffer and loader: the module
    docstring, _band_pattern and _dgbsv) with two right-hand sides,
    [-G, psi]; the phase row fixes dc, and the step is z1 - dc*z2.
    A step that does not lower max|G| is halved, up to _MAX_DAMPING times.
    A non-finite or singular system, a step the phase row cannot fix and a
    failed line search raise NewtonDiverged, and running out of _MAX_ITER
    iterations MaxIterations, each with the report so far.  A line search
    that fails with max|G| already below |c| * max|psi| has met the
    rounding floor of G, not a divergence, and ends the loop.

    The loop stops at max|G| <= _TOL.  The verdict is the equations' own:
    the returned report's residual_norm is max|F| at the last iterate and
    it is converged when max|F| <= _TOL, which fails where c is a real
    force.  Every report, those of the errors included, carries
    seed_points and seed_iterations as given.
    """
    gbsv = _dgbsv()
    liquid, vapor = bulk_states(p, bc)
    h = closed.h
    rho, s = rho.copy(), s.copy()
    rho[0], rho[-1] = vapor.rho, liquid.rho
    s[0], s[-1] = vapor.s, liquid.s
    q = rho.size - 2
    mid = closed.mid_index
    k = 2 * (mid - 1)  # the unknown rho(0) among the interleaved interior unknowns
    psi = np.empty(2 * q)
    psi[0::2] = derivative_4th(closed.rho, h)[1:-1]
    psi[1::2] = derivative_4th(closed.s, h)[1:-1]

    c = 0.0
    f = _coupled_residual(p, bc, rho, s, h)
    res = f  # G = F + c*psi, with c = 0 at the seed
    rnorm = float(np.max(np.abs(res)))
    history: list[float] = []
    damping: list[int] = []
    pattern = _band_pattern(p, h)
    # gbsv overwrites work with the LU factors and rhs with the two solutions
    work = np.empty((2 * _KL + _KU + 1, 2 * q), order="F")
    rhs = np.empty((2 * q, 2), order="F")

    def report(residual: float, converged: bool = False) -> NewtonReport:
        return NewtonReport(len(history), residual, converged, tuple(damping), _TOL,
                            phase_force=c, residual_history=tuple(history),
                            seed_points=seed_points, seed_iterations=seed_iterations)

    while not rnorm <= _TOL:  # a NaN residual enters the loop and meets the guard
        if len(history) >= _MAX_ITER:
            raise MaxIterations(
                f"no convergence in {_MAX_ITER} iterations (residual {rnorm:.3e})",
                report(rnorm))
        _coupled_jacobian_banded(p, bc, rho, s, pattern, work)
        rhs[:, 0] = -res
        rhs[:, 1] = psi
        # the contiguous buffer scans faster than its band view
        if not (np.isfinite(work).all() and np.isfinite(rhs).all()):
            raise NewtonDiverged(
                f"non-finite Newton system at iteration {len(history)}", report(rnorm))
        _, _, z, info = gbsv(_KL, _KU, work, rhs, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise NewtonDiverged(
                f"singular Jacobian at iteration {len(history)} (zero pivot in column {info})",
                report(rnorm))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgbsv")
        gap = p.rho_c - rho[mid]
        dc = float((z[k, 0] - gap) / z[k, 1])
        if not math.isfinite(dc):
            raise NewtonDiverged(
                f"phase condition cannot fix the step at iteration {len(history)} "
                f"(translation response {z[k, 1]:.3e})", report(rnorm))
        step = z[:, 0] - dc * z[:, 1]
        step[k] = gap  # the phase row holds exactly, not to rounding
        lam = 1.0
        for cuts in range(_MAX_DAMPING + 1):
            trial_rho = rho.copy()
            trial_s = s.copy()
            trial_rho[1:-1] += lam * step[0::2]
            trial_s[1:-1] += lam * step[1::2]
            trial_c = c + lam * dc
            trial_f = _coupled_residual(p, bc, trial_rho, trial_s, h)
            trial_res = trial_f + trial_c * psi
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < rnorm or trial_norm <= _TOL:
                break
            lam *= 0.5
        else:  # no halving lowered max|G|
            if rnorm < abs(c) * float(np.max(np.abs(psi))):
                # G is stuck at its rounding floor, below the force that
                # holds the front: the bordered problem is solved, and the
                # verdict on F names the force
                break
            raise NewtonDiverged(
                f"residual stuck at {rnorm:.3e} after {_MAX_DAMPING} step halvings",
                report(rnorm))
        rho, s, c, f, res, rnorm = trial_rho, trial_s, trial_c, trial_f, trial_res, trial_norm
        damping.append(cuts)
        history.append(rnorm)
    plain = float(np.max(np.abs(f)))
    return rho, s, report(plain, converged=plain <= _TOL)


def interface_observables(p: FluidParams, bc: BulkConditions,
                          prof: Profile) -> InterfaceObservables:
    """Bundle width, bulk densities, tensions and the first-integral constant."""
    _own_conditions(bc, prof)
    zeta = interface_width(p, bc)
    liquid, vapor = bulk_states(p, bc)
    return InterfaceObservables(
        zeta=zeta,
        rho_l=liquid.rho,
        rho_v=vapor.rho,
        sigma_closed=surface_tension_closed(p, bc),
        sigma_quad=surface_tension_quadrature(p, prof),
        f0=(p.A * bc.delta_t) ** 2 / (4.0 * p.B),
        delta_T=bc.delta_t,
    )


# ---------------------------------------------------------------------------
# Korteweg stress
# ---------------------------------------------------------------------------

def stress_tensor(p: FluidParams, rho, s, grad_rho, grad_s, lap_rho, lap_s) -> np.ndarray:
    """Full capillary stress sigma_ij = -(P - rho div Phi) delta_ij - Phi_j rho_,i - Psi_j s_,i.

    Phi = C grad rho + D grad s and Psi = D grad rho + E grad s are the
    energy gradients with respect to grad rho and grad s.  P here is the
    Legendre combination rho*de/drho - e of the TOTAL energy, so the
    gradient quadratic enters with a minus sign; with that P the normal
    stress component is exactly constant across any equilibrium profile.

    Broadcasts over leading axes: the last axis of grad_rho and grad_s is
    space, of any dimension d, and the rest broadcast with rho, s, lap_rho
    and lap_s.  Returns the (..., d, d) stack of tensors.
    """
    grad_rho = np.asarray(grad_rho, dtype=float)
    grad_s = np.asarray(grad_s, dtype=float)
    if grad_rho.ndim == 0 or grad_rho.shape[-1:] != grad_s.shape[-1:]:
        raise ValueError("grad_rho and grad_s must share their last axis, the space axis")
    phi = p.C * grad_rho + p.D * grad_s
    psi = p.D * grad_rho + p.E * grad_s
    quad = np.sum(grad_rho * phi + grad_s * psi, axis=-1)  # C|gr|^2 + 2D gr.gs + E|gs|^2
    p_total = pressure(p, rho, s) - 0.5 * quad
    div_phi = p.C * lap_rho + p.D * lap_s
    # the diagonal's leading shape is the broadcast of every input's, so
    # the outer products can be subtracted in place
    out = -(p_total - rho * div_phi)[..., None, None] * np.eye(grad_rho.shape[-1])
    out -= grad_rho[..., :, None] * phi[..., None, :]
    out -= grad_s[..., :, None] * psi[..., None, :]
    return out


def stress_yy_profile(p: FluidParams, prof: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Normal stress component along a 1-d profile (y the normal direction).

    Returns (y, sigma_yy) on the interior nodes 2..n-3 where the 4th-order
    stencils apply: stress_tensor with y as its single space axis.
    """
    h = prof.h
    sigma = stress_tensor(p, prof.rho[2:-2], prof.s[2:-2],
                          derivative_4th(prof.rho, h)[2:-2, None],
                          derivative_4th(prof.s, h)[2:-2, None],
                          second_derivative_4th(prof.rho, h), second_derivative_4th(prof.s, h))
    return prof.y[2:-2], sigma[:, 0, 0]


def equilibrium_stress_residual(p: FluidParams, prof: Profile) -> float:
    """Max of |d sigma_yy / dy| along the profile.

    Mechanical equilibrium makes sigma_yy constant for exact solutions, so
    this is a cross-module certificate: it is small only if the profile
    solves the momentum balance at rest.
    """
    # p_c is a constant term of sigma_yy, which the derivative drops: it is
    # left out, not added to be cancelled
    y, sigma_yy = stress_yy_profile(replace(p, p_c=0.0), prof)
    dsigma = derivative_4th(sigma_yy, prof.h)
    return float(np.max(np.abs(dsigma)))


def profile_to_csv(prof: Profile, stream) -> None:
    """Write the profile as CSV with header y,rho,s and 17 significant digits."""
    stream.write("y,rho,s\n")
    for y, rho, s in zip(prof.y, prof.rho, prof.s):
        stream.write(f"{y:.17g},{rho:.17g},{s:.17g}\n")
