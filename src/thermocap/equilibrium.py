"""Planar liquid-vapor interface profiles and their observables.

Two routes to the equilibrium profile are kept deliberately independent.
The closed route slaves the entropy to the density and solves the single
density equation analytically: a tanh front of width zeta connecting the
two bulk densities.  The full route collocates the coupled system

    C rho'' + D s'' = d(rho*alpha)/drho - s*T0 - mu_c
    D rho'' + E s'' = d(rho*alpha)/ds   - rho*T0

at mapped Chebyshev-Lobatto nodes of [-L, L], with Dirichlet data from the
exact bulk states, and solves it by bordered Newton (solve_full_bvp).  The
collocation converges exponentially in the node count, so 40 to 80 intervals
resolve the smooth front on any grid the profile is returned on; every
diagnostic uses 4th-order stencils on that grid, so discretization error
of the diagnostic never masks the quantity being diagnosed.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    UnderResolved,
)

__all__ = [
    "GridConfig",
    "Profile",
    "InterfaceObservables",
    "NewtonReport",
    "bulk_states",
    "require_interface",
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


# the largest grid: check peaks near 72 B per node, profile and profile --full
# near 48 (their CSV writer holds one block of rows), the stress certificate
# near 24 and a full solve near 35 (past the 1.5 MB of its collocation and
# interpolation table), so a run on it needs about 72 MB
_MAX_POINTS = 1_000_001
# the share of the density jump by which a profile's ends may miss the bulk
# densities and its interior overshoot them
_GATE = 1e-6


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
            raise InvalidConfig(f"grid.n_points must be <= {_MAX_POINTS} (a run needs "
                                "about 72 B per node)")
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
    seed_points: int = 0          # Chebyshev intervals of the level that seeded it, 0 for none
    seed_iterations: int = 0      # iterations that level took

    def __post_init__(self):
        if self.converged and not self.residual_norm <= self.tolerance:
            raise ValueError("converged report must satisfy residual <= tolerance")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# 4th-order finite-difference stencils (diagnostics only)
# ---------------------------------------------------------------------------

# the central stencils' integer kernels, as correlation windows: np.correlate
# adds a window's five products in the order the slice form (f[:-4] - 8*f[1:-3]
# + ...) adds them, and the divide by 12h (12h^2) comes last, as there
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def derivative_4th(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative, 4th order: central interior, one-sided at the ends.

    The interior is one correlation pass of f with the kernel
    (1, -8, 0, 8, -1), divided by 12h.  Every stencil spans 5 samples, so
    fewer raise ValueError."""
    f = np.asarray(f, dtype=float)
    if f.size < 5:
        raise ValueError(f"derivative_4th needs at least 5 samples, got {f.size}")
    d = np.empty_like(f)
    np.divide(np.correlate(f, _D1), 12.0 * h, out=d[2:-2])
    a0, a1, a2, a3, a4 = f[:5].tolist()
    b4, b3, b2, b1, b0 = f[-5:].tolist()  # b0 the last sample
    d[0] = (-25.0 * a0 + 48.0 * a1 - 36.0 * a2 + 16.0 * a3 - 3.0 * a4) / (12.0 * h)
    d[1] = (-3.0 * a0 - 10.0 * a1 + 18.0 * a2 - 6.0 * a3 + a4) / (12.0 * h)
    d[-1] = (25.0 * b0 - 48.0 * b1 + 36.0 * b2 - 16.0 * b3 + 3.0 * b4) / (12.0 * h)
    d[-2] = (3.0 * b0 + 10.0 * b1 - 18.0 * b2 + 6.0 * b3 - b4) / (12.0 * h)
    return d


def second_derivative_4th(f: np.ndarray, h: float) -> np.ndarray:
    """Second derivative on interior nodes 2..n-3 (5-point central stencil).

    One correlation pass of f with the kernel (-1, 16, -30, 16, -1),
    divided by 12h^2.  The stencil spans 5 samples, so fewer raise
    ValueError."""
    f = np.asarray(f, dtype=float)
    if f.size < 5:
        raise ValueError(f"second_derivative_4th needs at least 5 samples, got {f.size}")
    d2 = np.correlate(f, _D2)
    d2 /= 12.0 * h * h
    return d2


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

def bulk_states(p: FluidParams, bc: BulkConditions) -> tuple[ThermoState, ThermoState]:
    """Coexisting (liquid, vapor) bulk states at undercooling delta_t.

    rho_{l,v} = rho_c +/- sqrt(A*delta_t/B) with slaved entropies; these are
    exact roots of both equilibrium equations, not asymptotic ones.  Where
    _GATE * (rho_l - rho_v), the miss a profile's tails are allowed, is
    below the spacing of the doubles at rho_c (at delta_t = 0, or at an
    undercooling that leaves the densities a few spacings apart) floating
    point resolves no interface, and CriticalIsotherm is raised.  A slaved
    entropy that overflows raises OverflowError.
    """
    amp = math.sqrt(p.A * bc.delta_t / p.B)
    rho_l = p.rho_c + amp
    rho_v = p.rho_c - amp
    if rho_v <= 0.0:
        raise NonPositiveData(
            f"undercooling {bc.delta_t!r} drives the vapor branch to "
            f"rho_v = {rho_v!r} <= 0; coexistence needs sqrt(A*delta_t/B) < rho_c"
        )
    if not _GATE * (rho_l - rho_v) >= math.ulp(p.rho_c):
        raise CriticalIsotherm(
            f"undercooling {bc.delta_t!r} does not separate the bulk densities: "
            f"rho_l - rho_v = {rho_l - rho_v!r} is less than {1 / _GATE:.0e} spacings "
            f"of the doubles at rho_c = {p.rho_c!r}")
    s_l, s_v = (float(entropy_slave(p, rho, bc.delta_t)) for rho in (rho_l, rho_v))
    if not (math.isfinite(s_l) and math.isfinite(s_v)):
        raise OverflowError(f"undercooling {bc.delta_t!r} overflows the slaved entropy "
                            f"of the bulk states: s_l = {s_l!r}, s_v = {s_v!r}")
    return ThermoState(rho=rho_l, s=s_l), ThermoState(rho=rho_v, s=s_v)


def require_interface(p: FluidParams, bc: BulkConditions) -> None:
    """Raise bulk_states' error at delta_t > 0; the closed forms answer delta_t = 0 themselves."""
    if bc.delta_t > 0.0:
        bulk_states(p, bc)


def interface_width(p: FluidParams, bc: BulkConditions) -> float:
    """Characteristic width zeta = sqrt(C / (2 A delta_t)) of the tanh front."""
    if bc.delta_t == 0.0:
        raise CriticalIsotherm("interface width diverges at T0 = T_c")
    require_interface(p, bc)
    return math.sqrt(p.C / (2.0 * p.A * bc.delta_t))


def tanh_front(p: FluidParams, bc: BulkConditions, y) -> np.ndarray:
    """The closed density front rho_c + (rho_l - rho_v)/2 * tanh(y / (2 zeta)) at heights y."""
    liquid, vapor = bulk_states(p, bc)
    zeta = interface_width(p, bc)
    return p.rho_c + 0.5 * (liquid.rho - vapor.rho) * np.tanh(y / (2.0 * zeta))


def _heights(g: GridConfig, zeta: float) -> np.ndarray:
    """The heights of g's uniform grid on [-L, L], L = g.half_width_in_zeta * zeta;
    InvalidConfig where its spacing overflows."""
    h = 2.0 * g.half_width_in_zeta * zeta / (g.n_points - 1)
    if not math.isfinite(h):  # a finite h keeps every node |y| <= h * (n - 1) / 2 finite
        raise InvalidConfig(f"grid end half_width_in_zeta * zeta = {g.half_width_in_zeta!r} "
                            f"* {zeta!r} overflows")
    # y as exact integer multiples of h, so the midpoint is exactly 0
    return h * (np.arange(g.n_points, dtype=float) - (g.n_points - 1) // 2)


def closed_profile(p: FluidParams, bc: BulkConditions, g: GridConfig = GridConfig()) -> Profile:
    """The tanh front with slaved entropy on the requested grid."""
    y = _heights(g, interface_width(p, bc))
    rho = tanh_front(p, bc, y)
    s = entropy_slave(p, rho, bc.delta_t)
    return Profile(y=y, rho=rho, s=s, bc=bc, provenance="closed-form")


def surface_tension_closed(p: FluidParams, bc: BulkConditions) -> float:
    """Closed-form tension sigma = (sqrt(C)/(3B)) * (2 A delta_t)^(3/2)."""
    require_interface(p, bc)
    return math.sqrt(p.C) / (3.0 * p.B) * (2.0 * p.A * bc.delta_t) ** 1.5


def surface_tension_quadrature(p: FluidParams, prof: Profile) -> float:
    """Surface tension as the excess-energy integral of C*rho'(y)^2.

    Composite Simpson over the grid with 4th-order derivative stencils.
    Requires decayed tails so the truncated integral represents the full
    line integral.
    """
    liquid, vapor = bulk_states(p, prof.bc)
    jump = liquid.rho - vapor.rho
    tail = _GATE * jump
    if abs(prof.rho[0] - vapor.rho) > tail or abs(prof.rho[-1] - liquid.rho) > tail:
        raise UndecayedTail(
            "profile tails have not reached the bulk densities: "
            f"|rho(-L)-rho_v| = {abs(prof.rho[0] - vapor.rho):.3e}, "
            f"|rho(+L)-rho_l| = {abs(prof.rho[-1] - liquid.rho):.3e}, "
            f"allowed {tail:.3e}"
        )
    drho = derivative_4th(prof.rho, prof.h)
    return simpson_uniform(p.C * drho * drho, prof.h)


_SIMPSON = np.array([1.0, 4.0, 1.0])


def simpson_uniform(f: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples f on a uniform grid of spacing h.

    The panel sums f[2k] + 4 f[2k+1] + f[2k+2] are every other window of
    one correlation pass with the kernel (1, 4, 1).  An even node count
    leaves one interval over; it is closed with the uniform-grid case of
    Cartwright's last-interval correction, the rule scipy.integrate.simpson
    applies, so both parities stay 4th order.  A panel spans 3 samples, so
    fewer raise ValueError.
    """
    f = np.asarray(f, dtype=float)
    if f.size < 3:
        raise ValueError(f"simpson_uniform needs at least 3 samples, got {f.size}")
    odd = f[:f.size - 1 + f.size % 2]  # longest prefix with an odd node count
    total = np.sum(np.correlate(odd, _SIMPSON)[::2]) * (h / 3.0)
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

_TOL = 1e-10  # max-norm residual at which Newton stops
_MAX_ITER = 50
_MAX_DAMPING = 20  # step halvings allowed per iteration
# The collocation ladder (see solve_full_bvp) starts at _FIRST_NODES
# Chebyshev intervals (even, so that y = 0 is a node) and doubles them up to
# _MAX_NODES while a level's last two Chebyshev coefficients of rho exceed
# _TAIL times the density jump, a hundredth of the _GATE on the profile.
# 40 intervals resolve the default box up to the delta_t ~ 0.12 where it
# refuses the tails, and their bordered Newton system of 79 unknowns (39
# interior nodes of two fields, and c) stays below the 100 from which
# OpenBLAS factors on several threads, whose hand-offs stall on a busy
# machine.
_FIRST_NODES = 40
_MAX_NODES = 320
_TAIL = 1e-8
# the map scale ell in interface widths.  The map's branch points x = +-sqrt(a)
# bound how fast the coefficients decay (Boyd 2001, ch. 17): on the 15-width
# box at delta_t = 0.1, ell = 4 puts them at +-1.035 and leaves the last
# coefficients of rho at 40 intervals 2.7e-8 of the jump, past _TAIL; ell = 6
# puts them at +-1.077 and leaves 1.4e-9
_MAP_SCALE = 6.0
# heights per block of _Level.values_at, which holds n + 1 doubles for each:
# 1.3 MB at 80 intervals, inside a 2 MB L2 cache
_BLOCK = 2048


@functools.cache
def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Chebyshev-Lobatto nodes x_j = cos(pi (n - j) / n), d/dx on them
    (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6), and the matrix of
    c_k = (2/n) sum_j f_j T_k(x_j), end terms and c_0, c_n halved.  Written
    as sines, the nodes are symmetric and exactly 0 at j = n/2 for even n,
    and those of n are the even nodes of 2n."""
    j = np.arange(n + 1)
    x = np.sin(np.pi * (2 * j - n) / (2 * n))
    w = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    d_dx = np.outer(w, 1.0 / w) / (x[:, None] - x + np.eye(n + 1))
    d_dx -= np.diag(d_dx.sum(axis=1))
    # k (n - j) mod 2n keeps the cosine's argument in [0, 2 pi)
    cheb = np.cos(np.pi * (np.outer(j, n - j) % (2 * n)) / n) * (2.0 / n)
    cheb[:, [0, -1]] *= 0.5
    cheb[[0, -1]] *= 0.5
    for arr in (x, d_dx, cheb):
        arr.setflags(write=False)
    return x, d_dx, cheb


class _Level:
    """Collocation on the nodes of _lobatto(n) mapped onto [-L, L].

    y = ell x / sqrt(a - x^2), a = 1 + (ell / L)^2, sends +-1 to +-L and
    half of the nodes within about ell of the front (Boyd, Chebyshev and
    Fourier Spectral Methods, 2001, ch. 17); solve_full_bvp takes ell =
    _MAP_SCALE widths.  dy and d2 differentiate nodal values in y.
    """

    def __init__(self, n: int, half_width: float, ell: float):
        x, d_dx, self.cheb = _lobatto(n)
        a = 1.0 + (ell / half_width) ** 2
        self.n, self.ell, self.a = n, ell, a
        self.y = ell * x / np.sqrt(a - x * x)
        self.y[[0, -1]] = -half_width, half_width
        self.dy = ((a - x * x) ** 1.5 / (ell * a))[:, None] * d_dx  # dx/dy times d/dx
        self.d2 = self.dy @ self.dy

    def values_at(self, f: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The interpolants sum_k c_k T_k(x(y)) of the rows of nodal values f at heights y.

        y must be mirror-symmetric, y[::-1] == -y bit for bit, as _heights
        and every level's nodes are; any other grid raises ValueError.  The
        inverse map x(y) is odd and T_k(-x) = (-1)^k T_k(x), so the T_k are
        built by recurrence on the heights y >= 0 alone, _BLOCK at a time in
        one reused table, and one product with [c; (-1)^k c] gives every row
        at y and at -y.
        """
        if not np.array_equal(y[::-1], -y):
            raise ValueError("values_at needs mirror-symmetric heights, y[::-1] == -y")
        rows, mid = f.shape[0], y.size // 2
        half = y[mid:]
        x = half * math.sqrt(self.a) / np.sqrt(self.ell ** 2 + half * half)  # the map's inverse
        c = f @ self.cheb.T
        signed = np.concatenate([c, c])
        signed[rows:, 1::2] *= -1.0
        out = np.empty((rows, y.size))
        table = np.empty((self.n + 1, min(_BLOCK, x.size)))
        for lo in range(0, x.size, _BLOCK):
            xb = x[lo:lo + _BLOCK]
            t = table[:, :xb.size]
            x2 = 2.0 * xb
            t[0], t[1] = 1.0, xb
            for k in range(1, self.n):
                np.multiply(x2, t[k], out=t[k + 1])
                t[k + 1] -= t[k - 1]
            both = signed @ t
            # at lo = 0 both write y = 0, where the odd T_k vanish and they agree
            out[:, y.size - mid - lo - xb.size:y.size - mid - lo] = both[rows:, ::-1]
            out[:, mid + lo:mid + lo + xb.size] = both[:rows]
        return out


def _collocation_residual(p: FluidParams, bc: BulkConditions, level: _Level, m: np.ndarray,
                          s: np.ndarray) -> np.ndarray:
    """The coupled equations at the interior nodes, [F_1; F_2], with m = rho - rho_c."""
    lap_m = level.d2[1:-1] @ m
    lap_s = level.d2[1:-1] @ s
    # d(rho*alpha)/drho - s*T0 - mu_c and d(rho*alpha)/ds - rho*T0, in delta_t
    d_rho, d_s = bulk_energy_partials(p, p.rho_c + m[1:-1], s[1:-1], bc.delta_t)
    return np.concatenate([p.C * lap_m + p.D * lap_s - d_rho, p.D * lap_m + p.E * lap_s - d_s])


def _collocation_jacobian(p: FluidParams, bc: BulkConditions, level: _Level, m: np.ndarray,
                          s: np.ndarray) -> np.ndarray:
    """Dense Jacobian of _collocation_residual in the interior unknowns [m; s]: K (x) D2
    with K = [[C, D], [D, E]], less the bulk Hessian on its four block diagonals."""
    # K (x) D2 as blocks jac[a, :, b, :] = K[a, b] D2: np.kron's product, without
    # its Python-level set-up, which costs more than the product at 40 intervals
    jac = np.array([[p.C, p.D], [p.D, p.E]])[:, None, :, None] * level.d2[1:-1, None, 1:-1]
    h_rr, h_rs, h_ss = bulk_energy_hessian(p, p.rho_c + m[1:-1], s[1:-1], bc.delta_t)
    # the blocks' diagonals, a view of jac; d(F_1)/ds == d(F_2)/drho
    np.einsum("ikjk->ijk", jac)[...] -= [[h_rr, h_rs], [h_rs, h_ss]]
    return jac.reshape(2 * h_rr.size, -1)


def solve_full_bvp(p: FluidParams, bc: BulkConditions,
                   g: GridConfig = GridConfig()) -> tuple[Profile, NewtonReport]:
    """Solve the coupled two-field boundary-value problem by bordered Newton.

    The equations are collocated on a _Level of the box [-L, L] of g, L =
    g.half_width_in_zeta * zeta and ell = _MAP_SCALE * zeta, with Dirichlet
    data from the exact bulk states, and solved by _newton, whose failure
    on any level is the solve's.  The first level has _FIRST_NODES
    Chebyshev intervals, which resolve the default box wherever it holds
    the tails, and the closed front scaled by 1 / tanh(L / 2 zeta)
    for seed, which meets the bulk densities smoothly at +-L.  A level whose
    last two Chebyshev coefficients of rho exceed _TAIL times the density
    jump seeds the next, with twice the intervals, by its interpolant, and
    past _MAX_NODES UnderResolved is raised; seed_points and seed_iterations
    record the level before the last (0 for none).  A level carries its
    nodal values as one (2, n + 1) array u = [rho - rho_c; s], which _newton
    returns with its report, and builds its front once, for the translation
    mode and, on the first level, the seed.  g.n_points only sets the
    uniform grid on which the last level's interpolant is returned, exactly
    rho_c at y = 0 and the bulk states at +-L, so the report does not
    depend on it.

    A resolved level that is not converged held the front only by a real
    force: the box truncates the tails, and UndecayedTail is raised with
    the report instead of returning the truncated profile.  A solution that
    leaves the bracket of the bulk densities raises NewtonDiverged.
    """
    zeta = interface_width(p, bc)
    y = _heights(g, zeta)
    liquid, vapor = bulk_states(p, bc)
    jump = liquid.rho - vapor.rho
    # the Dirichlet data of u = [rho - rho_c; s] at -L and +L
    ends = np.array([[vapor.rho - p.rho_c, liquid.rho - p.rho_c], [vapor.s, liquid.s]])

    def front(level: _Level) -> np.ndarray:
        # the scaled closed front and its slaved entropy on the level's nodes, as u
        t = tanh_front(p, bc, level.y) - p.rho_c
        m = t * (ends[0, 1] / t[-1])
        return np.stack([m, entropy_slave(p, p.rho_c + m, bc.delta_t)])

    # on L as g states it, not on y[-1] = h (n - 1) / 2, whose rounding varies with n
    level = _Level(_FIRST_NODES, g.half_width_in_zeta * zeta, _MAP_SCALE * zeta)
    closed = front(level)
    u = closed.copy()  # the seed; closed keeps the front's own ends for the translation mode
    seed_points = seed_iterations = 0
    while True:
        u[:, [0, -1]] = ends
        u, report = _newton(p, bc, level, closed, u, seed_points, seed_iterations)
        tail = float(np.max(np.abs(level.cheb[-2:] @ u[0])))
        if tail <= _TAIL * jump:
            break
        if level.n >= _MAX_NODES:
            raise UnderResolved(
                f"the coupled profile is under-resolved: {level.n} Chebyshev intervals leave "
                f"a coefficient tail of {tail / jump:.1e} of the density jump > {_TAIL:.0e}",
                report)
        finer = _Level(2 * level.n, level.y[-1], level.ell)
        u, closed = level.values_at(u, finer.y), front(finer)
        seed_points, seed_iterations, level = level.n, report.iterations, finer
    if not report.converged:
        raise UndecayedTail(
            f"holding the front at y = 0 takes a force c = {report.phase_force:.3e}: the "
            f"equations' residual is {report.residual_norm:.3e} > {_TOL:.1e}, so the box of "
            f"half_width_in_zeta = {g.half_width_in_zeta:g} truncates the tails; widen it",
            report)
    rho, s = level.values_at(u, y)
    rho += p.rho_c
    rho[[0, y.size // 2, -1]] = vapor.rho, p.rho_c, liquid.rho
    s[[0, -1]] = ends[1]
    slack = _GATE * jump
    if np.min(rho) < vapor.rho - slack or np.max(rho) > liquid.rho + slack:
        raise NewtonDiverged(
            "converged iterate leaves the physical density bracket "
            f"[{vapor.rho:.6g}, {liquid.rho:.6g}]")
    return Profile(y=y, rho=rho, s=s, bc=bc, provenance="full-solver"), report


def _newton(p: FluidParams, bc: BulkConditions, level: _Level, front: np.ndarray,
            u: np.ndarray, seed_points: int, seed_iterations: int):
    """Bordered Newton on level's nodes from the seed u = [rho - rho_c; s].

    Returns (u, report), u the (2, n + 1) nodal values at the last iterate.
    A wide box leaves the front nearly free to translate, so the system is
    bordered (Beyn, IMA J. Numer. Anal. 10, 1990): a scalar c joins the
    unknowns, the equations become G = F + c*psi with psi the translation
    mode of front, the same function of y whatever the level and the seed,
    and the phase condition rho(0) = rho_c pins the front.  Each step and
    its dc are one dense solve of [[J, psi], [e_k^T, 0]] against
    [-G; rho_c - rho(0)], the step halved up to _MAX_DAMPING times until
    max|G| falls.  A non-finite or singular system and a failed line search
    raise NewtonDiverged, and _MAX_ITER iterations MaxIterations, each with
    the report so far; a line search that fails with max|G| already below
    |c| * max|psi| has met the rounding floor of G, which ends the loop.

    The loop stops at max|G| <= _TOL.  The verdict is the equations' own:
    the report's residual_norm is max|F| at the last iterate and it is
    converged when max|F| <= _TOL, which fails where c is a real force.
    """
    q = level.n - 1
    k = level.n // 2 - 1  # the unknown rho(0) among the interior unknowns u[:, 1:-1]
    psi = np.concatenate([(level.dy[1:-1] @ f) for f in front])
    system = np.zeros((2 * q + 1, 2 * q + 1))  # [[J, psi], [e_k^T, 0]], J written per iteration
    system[:-1, -1] = psi
    system[-1, k] = 1.0  # the border's row e_k^T: the step's rho(0)

    c = 0.0
    res = f = _collocation_residual(p, bc, level, *u)  # G = F + c*psi, with c = 0 at the seed
    rnorm = float(np.max(np.abs(res)))
    history: list[float] = []
    damping: list[int] = []

    def report(residual: float, converged: bool = False) -> NewtonReport:
        return NewtonReport(len(history), residual, converged, tuple(damping), _TOL,
                            phase_force=c, residual_history=tuple(history),
                            seed_points=seed_points, seed_iterations=seed_iterations)

    while not rnorm <= _TOL:  # a NaN residual enters the loop and meets the guard
        if len(history) >= _MAX_ITER:
            raise MaxIterations(
                f"no convergence in {_MAX_ITER} iterations (residual {rnorm:.3e})",
                report(rnorm))
        system[:-1, :-1] = _collocation_jacobian(p, bc, level, *u)
        gap = -u[0, k + 1]
        rhs = np.append(-res, gap)
        if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
            raise NewtonDiverged(
                f"non-finite Newton system at iteration {len(history)}", report(rnorm))
        try:
            z = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            raise NewtonDiverged(
                f"singular Jacobian at iteration {len(history)}", report(rnorm)) from None
        step, dc = z[:-1].reshape(2, q), float(z[-1])
        step[0, k] = gap  # the phase row holds exactly, not to rounding
        for cuts in range(_MAX_DAMPING + 1):
            lam = 0.5 ** cuts
            trial = u.copy()
            trial[:, 1:-1] += lam * step
            trial_c = c + lam * dc
            trial_f = _collocation_residual(p, bc, level, *trial)
            trial_res = trial_f + trial_c * psi
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < rnorm or trial_norm <= _TOL:
                break
        else:  # no halving lowered max|G|
            if rnorm < abs(c) * float(np.max(np.abs(psi))):
                # G is stuck at its rounding floor, below the force that
                # holds the front: the bordered problem is solved, and the
                # verdict on F names the force
                break
            raise NewtonDiverged(
                f"residual stuck at {rnorm:.3e} after {_MAX_DAMPING} step halvings",
                report(rnorm))
        u, c, f, res, rnorm = trial, trial_c, trial_f, trial_res, trial_norm
        damping.append(cuts)
        history.append(rnorm)
    plain = float(np.max(np.abs(f)))
    return u, report(plain, converged=plain <= _TOL)


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

# interior nodes per block of stress_yy_profile: each temporary is 64 KiB,
# below glibc's 128 KiB trim and mmap threshold, so the heap pages it frees
# are reused rather than faulted back in on every call, and inside L2
_STRESS_BLOCK = 8192


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
    stencils apply: stress_tensor with y as its single space axis.  It is
    evaluated _STRESS_BLOCK interior nodes at a time into one array, each
    block with the 2 nodes on either side that its central stencils read,
    so every node gets the arithmetic of one pass over the whole profile,
    bit for bit, while the temporaries stay the size of a block.
    """
    h = prof.h
    sigma = np.empty(prof.y.size - 4)
    for lo in range(0, sigma.size, _STRESS_BLOCK):
        rho, s = prof.rho[lo:lo + _STRESS_BLOCK + 4], prof.s[lo:lo + _STRESS_BLOCK + 4]
        sigma[lo:lo + _STRESS_BLOCK] = stress_tensor(
            p, rho[2:-2], s[2:-2], derivative_4th(rho, h)[2:-2, None],
            derivative_4th(s, h)[2:-2, None], second_derivative_4th(rho, h),
            second_derivative_4th(s, h))[:, 0, 0]
    return prof.y[2:-2], sigma


def equilibrium_stress_residual(p: FluidParams, prof: Profile) -> float:
    """Max of |d sigma_yy / dy| along the profile.

    Mechanical equilibrium makes sigma_yy constant for exact solutions, so
    this is a cross-module certificate: it is small only if the profile
    solves the momentum balance at rest.

    Its floor is rounding, and it rises with n: sigma_yy holds second
    derivatives, and differencing it again amplifies each sample's rounding
    like eps / h^3.  For the default solve at delta_t = 0.01 it reads
    4.0e-11 at n = 1001, 2.1e-9 at 16001 and 7.4e-7 (0.21 f0/zeta) at
    160001, while the spread of sigma_yy itself stays 9.3e-11, 1.2e-10 and
    1.3e-9.
    """
    # p_c is a constant term of sigma_yy, which the derivative drops: it is
    # left out, not added to be cancelled
    y, sigma_yy = stress_yy_profile(replace(p, p_c=0.0), prof)
    dsigma = derivative_4th(sigma_yy, prof.h)
    return float(np.max(np.abs(dsigma)))


# rows per write of profile_to_csv: its Python floats and strings take about
# 220 B a row, so a block holds under 1 MB whatever the grid
_CSV_BLOCK = 4096


def profile_to_csv(prof: Profile, stream) -> None:
    """Write the profile as CSV with header y,rho,s, each float in shortest round-trip form.

    The rows go out _CSV_BLOCK at a time, one write per block, so the Python
    floats and strings held at once are a block's, not the whole profile's.
    """
    stream.write("y,rho,s\n")
    for lo in range(0, prof.y.size, _CSV_BLOCK):
        rows = slice(lo, lo + _CSV_BLOCK)
        stream.write("".join("%r,%r,%r\n" % row for row in zip(
            prof.y[rows].tolist(), prof.rho[rows].tolist(), prof.s[rows].tolist())))
