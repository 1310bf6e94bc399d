"""Power-law verification across the undercooling delta_t = T_c - T0.

Near the critical point every interface observable follows a power of
delta_t: the density amplitude goes like delta_t^(1/2), the entropy depth
like delta_t, the width like delta_t^(-1/2), the tension like delta_t^(3/2)
and the tangential wave celerity like delta_t^2.  A sweep solves the
profile at each undercooling on a grid scaled in units of the width (so the
discretization error is a delta_t-independent relative constant and exact
laws stay exact through the numerics), measures each observable from the
discrete data rather than from formulas, and fits log-log slopes.

Each fit is built with the tolerance it is judged by: the default for its
law and mode, or the SweepConfig's override.  ExponentFit.passed is the one
verdict; verify_exponents collects those verdicts and adds the failed rows.
"""

from __future__ import annotations

import math
import types
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .eos import FluidParams, bulk_conditions, check_keys, read_number
from .equilibrium import (
    GridConfig,
    Profile,
    bulk_states,
    closed_profile,
    solve_full_bvp,
    surface_tension_quadrature,
    tanh_front,
)
from .errors import DegenerateSpan, InvalidConfig, ModelError, NonPositiveData
from .waves import celerity_at_critical_density

__all__ = [
    "SweepConfig",
    "SweepRow",
    "ExponentFit",
    "ScalingReport",
    "VerificationSummary",
    "EXPONENT_TARGETS",
    "fit_exponent",
    "measured_width",
    "tanh_deviation",
    "run_sweep",
    "verify_exponents",
    "report_to_csv",
]

# each law's SweepRow column, target log-log slope in delta_t, and default
# slope tolerance in a closed sweep and in a full-solver sweep.  A closed
# sweep has no deviation law (None): its deviation is identically zero.  v
# keeps its closed tolerance in a full sweep: celerity is evaluated from the
# undercooling alone, so it stays a closed-form column there.
_LAWS: Mapping[str, tuple[str, float, Optional[float], float]] = {
    "amp_rho": ("amp_rho", 0.5, 0.02, 0.1),
    "amp_s": ("amp_s", 1.0, 0.02, 0.1),
    "zeta": ("zeta_measured", -0.5, 0.02, 0.1),
    "sigma": ("sigma_quad", 1.5, 0.02, 0.1),
    "v": ("v", 2.0, 0.02, 0.02),
    "deviation": ("full_vs_reduced_deviation", 1.0, None, 0.1),
}

EXPONENT_TARGETS: Mapping[str, float] = {law: target for law, (_, target, _, _) in _LAWS.items()}


@dataclass(frozen=True)
class SweepConfig:
    """Which undercoolings to visit, how to solve each one and how to judge.

    tolerances overrides the slope tolerance of the named laws; each must be
    a law of EXPONENT_TARGETS with a finite tolerance > 0.
    """

    delta_t_values: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    use_full_solver: bool = False
    grid: GridConfig = GridConfig()
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.delta_t_values, (list, tuple, np.ndarray)):
            raise InvalidConfig("sweep.delta_t_values must be an array")
        if not isinstance(self.use_full_solver, bool):
            raise InvalidConfig(
                f"sweep.use_full_solver must be true or false, got {self.use_full_solver!r}")
        vals = tuple(read_number(v, f"sweep.delta_t_values[{i}]")
                     for i, v in enumerate(self.delta_t_values))
        object.__setattr__(self, "delta_t_values", vals)
        if len(vals) < 4:
            raise InvalidConfig(
                f"sweep needs at least 4 undercoolings, got {len(vals)}")
        if not all(v > 0.0 for v in vals):
            raise InvalidConfig("sweep undercoolings must be > 0")
        if not all(a > b for a, b in zip(vals, vals[1:])):
            raise InvalidConfig("sweep undercoolings must be strictly decreasing")
        if vals[0] / vals[-1] < 100.0 * (1.0 - 1e-12):
            raise InvalidConfig("sweep undercoolings must span at least 2 decades")
        check_keys(self.tolerances, EXPONENT_TARGETS, "sweep.tolerances")
        tols = {law: read_number(tol, f"sweep.tolerances.{law}")
                for law, tol in self.tolerances.items()}
        object.__setattr__(self, "tolerances", types.MappingProxyType(tols))  # read-only copy
        bad = {law: tol for law, tol in tols.items() if tol <= 0.0}
        if bad:
            raise InvalidConfig(f"sweep tolerances must be > 0, got {bad}")


@dataclass(frozen=True)
class SweepRow:
    """One undercooling's measured observables; error set means the row failed."""

    delta_t: float
    amp_rho: float = math.nan
    amp_s: float = math.nan
    zeta_measured: float = math.nan
    sigma_quad: float = math.nan
    v: float = math.nan
    full_vs_reduced_deviation: float = math.nan
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


# every measured column of a SweepRow, in field order; the CSV has no error column
_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "error")
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass(frozen=True)
class ExponentFit:
    """Fitted log-log slope for one law, carrying its target and tolerance."""

    slope: float
    intercept: float
    max_residual: float  # max |log y - fit| over the points
    target: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.target) <= self.tolerance

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class ScalingReport:
    """Sweep rows plus the fitted exponent for every applicable law."""

    rows: tuple[SweepRow, ...]
    fits: Mapping[str, ExponentFit]
    use_full_solver: bool

    def to_dict(self) -> dict:
        return {
            "use_full_solver": self.use_full_solver,
            "rows": [r.to_dict() for r in self.rows],
            "fits": {law: fit.to_dict() for law, fit in self.fits.items()},
        }


@dataclass(frozen=True)
class VerificationSummary:
    """Per-law pass/fail verdicts for a scaling report.

    failed_rows counts the rows whose solve failed (their error is set); any
    such row fails the verdict, since the fits then rest on fewer points
    than were asked for.
    """

    verdicts: Mapping[str, bool]
    all_passed: bool
    failed_rows: int = 0

    def to_dict(self) -> dict:
        out = {"laws": dict(self.verdicts), "all_passed": self.all_passed}
        if self.failed_rows:  # absent when zero: passing artifacts keep their bytes
            out["failed_rows"] = self.failed_rows
        return out


def fit_exponent(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least squares in log-log coordinates: (slope, intercept, max residual).

    Needs at least two points, all coordinates finite and > 0, spanning a
    full decade in x (exactly one is accepted); run_sweep filters by this alone.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise DegenerateSpan(f"exponent fit needs at least 2 points, got {len(pts)}")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):  # NaN fails too
        raise NonPositiveData("exponent fit requires finite, strictly positive coordinates")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if xs.max() / xs.min() < 10.0 * (1.0 - 1e-12):
        raise DegenerateSpan(
            f"x-range spans {math.log10(xs.max() / xs.min()):.3f} decades; need >= 1")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), resid


def measured_width(p: FluidParams, prof: Profile) -> float:
    """Interface width measured from the discrete density column.

    The density traverses the central band |rho - rho_c| <= tanh(1) * jump/2
    over a distance of 4 widths for the tanh front; the band edges are
    located by linear interpolation between grid nodes, and the crossing
    distance divided by 4 is the estimate.  The band deliberately excludes
    the tails, where noise would dominate a fit.
    """
    liquid, vapor = bulk_states(p, prof.bc)
    band = math.tanh(1.0) * 0.5 * (liquid.rho - vapor.rho)
    m = prof.rho - p.rho_c
    y_lo = _first_crossing(prof.y, m, -band)
    y_hi = _first_crossing(prof.y, m, band)
    return (y_hi - y_lo) / 4.0


def _first_crossing(y: np.ndarray, m: np.ndarray, level: float) -> float:
    above = m >= level
    if not above.any() or above[0]:
        raise ValueError("band edge is not bracketed by the profile")
    k = int(np.argmax(above))
    frac = (level - m[k - 1]) / (m[k] - m[k - 1])
    return float(y[k - 1] + frac * (y[k] - y[k - 1]))


def tanh_deviation(p: FluidParams, prof: Profile) -> float:
    """Sup distance from the centred tanh front (equilibrium.tanh_front), over rho_c.

    Both the closed profile and the solved one (its phase condition) put
    rho = rho_c exactly at y = 0, so the pointwise difference measures the
    order-delta_t shape deviation the scaling law is about.
    """
    return float(np.max(np.abs(prof.rho - tanh_front(p, prof.bc, prof.y)))) / p.rho_c


def _laws(use_full_solver: bool) -> dict[str, tuple[str, float, float]]:
    """Each law of the mode: its SweepRow column, target and default tolerance."""
    laws = {law: (column, target, full if use_full_solver else closed)
            for law, (column, target, closed, full) in _LAWS.items()}
    return {law: entry for law, entry in laws.items() if entry[2] is not None}


def _solve_row(p: FluidParams, cfg: SweepConfig, delta_t: float) -> SweepRow:
    bc = bulk_conditions(p, delta_t=delta_t)
    if cfg.use_full_solver:
        prof, _ = solve_full_bvp(p, bc, cfg.grid)
    else:
        prof = closed_profile(p, bc, cfg.grid)
    return SweepRow(
        delta_t=delta_t,
        amp_rho=float(np.max(np.abs(prof.rho - p.rho_c))),
        amp_s=abs(float(prof.s[prof.mid_index])),
        zeta_measured=measured_width(p, prof),
        sigma_quad=surface_tension_quadrature(p, prof),
        v=celerity_at_critical_density(p, bc).v,
        # exactly 0.0 on a closed profile, whose rho is tanh_front on these nodes
        full_vs_reduced_deviation=tanh_deviation(p, prof),
    )


def run_sweep(p: FluidParams, cfg: SweepConfig) -> ScalingReport:
    """Measure all observables across the configured undercoolings.

    A model error at one undercooling marks that row with its message and
    the sweep continues (an invalid config raises); a law is fitted on the
    surviving rows (deviation on its asymptotic window) or has no fit, and
    verify_exponents fails the report for the failed rows.  Each fit
    carries the tolerance it is judged by, the configured override if any.
    """
    rows = []
    for delta_t in cfg.delta_t_values:
        try:
            rows.append(_solve_row(p, cfg, delta_t))
        except InvalidConfig:  # the config's fault, not this undercooling's
            raise
        except ModelError as exc:
            rows.append(SweepRow(delta_t=delta_t, error=f"{type(exc).__name__}: {exc}"))
    good = [r for r in rows if r.error is None]
    # the deviation law is the leading term of an expansion in the density
    # amplitude; it is fitted only inside that expansion's asymptotic window
    # (next-order corrections exceed the slope tolerance outside), and has
    # no fit where the window spans less than a decade
    window = [r for r in good if math.sqrt(p.A * r.delta_t / p.B) <= 0.2 * p.rho_c]

    fits: dict[str, ExponentFit] = {}
    for law, (column, target, default) in _laws(cfg.use_full_solver).items():
        pts = [(r.delta_t, getattr(r, column)) for r in (window if law == "deviation" else good)]
        try:
            slope, intercept, resid = fit_exponent(pts)
        except ModelError:
            continue
        fits[law] = ExponentFit(
            slope=slope,
            intercept=intercept,
            max_residual=resid,
            target=target,
            tolerance=cfg.tolerances.get(law, default),
        )
    return ScalingReport(rows=tuple(rows), fits=fits, use_full_solver=cfg.use_full_solver)


def verify_exponents(report: ScalingReport) -> VerificationSummary:
    """Collect each law's verdict; a law with no usable fit fails.

    A fit's verdict is its own ExponentFit.passed, judged by the tolerance
    run_sweep gave it, so the fits and the verdicts never disagree.  A row
    that failed to solve fails the whole verdict even when every law still
    fits on the surviving rows.

    Failures come back as data, never as exceptions: the sweep report is a
    regression artifact, and its consumer decides how loud to be.
    """
    verdicts = {law: law in report.fits and report.fits[law].passed
                for law in _laws(report.use_full_solver)}
    failed_rows = sum(r.error is not None for r in report.rows)
    return VerificationSummary(verdicts=verdicts,
                               all_passed=all(verdicts.values()) and not failed_rows,
                               failed_rows=failed_rows)


def report_to_csv(report: ScalingReport, stream) -> None:
    """One row per undercooling, headers fixed, 17 significant digits."""
    stream.write(CSV_HEADER + "\n")
    for r in report.rows:
        stream.write(",".join(f"{getattr(r, name):.17g}" for name in _CSV_COLUMNS) + "\n")
