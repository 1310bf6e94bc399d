"""Cross-module invariant suite behind ``thermocap check``.

Each check compares two independent routes to one quantity (analytic
derivatives against finite differences, closed forms against quadrature
and the Newton solver, the celerity closed form against the determinant
root in speed and amplitudes) on seeded random samples, and records the
worst discrepancy next to its threshold.  The eos rows certify the
delta_t forms of the bulk terms that the solver uses, in which mu_c, T_c
and p_c cancel exactly; the profile and stress rows add none of them.
Each sampled undercooling lies between the config's delta_t and three
decades below it, inside the config's own coexistence bracket; below
delta_t ~ 1e-17 (at the reference constants) that floor no longer
resolves the density jump to the share the profiles' tails are held to,
and bulk_states refuses it.

The samples come from SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) seeded
with the CLI's seed rule (read_seed), so the stream depends on neither
numpy's nor Python's release, and no run imports numpy.random.
"""

from __future__ import annotations

import numbers
from dataclasses import replace
from functools import partial

import numpy as np

from . import eos, equilibrium, waves
from .eos import BulkConditions, FluidParams, bulk_conditions
from .equilibrium import GridConfig
from .errors import InvalidConfig, UndecayedTail

__all__ = ["read_seed", "run_checks"]


def read_seed(seed) -> int:
    """seed as an int if it is an integer in [0, 2^64) and no bool; else InvalidConfig."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise InvalidConfig(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _uniforms(seed: int, k: int) -> np.ndarray:
    """The first k SplitMix64 outputs for seed, each its top 53 bits times 2^-53."""
    # output i mixes seed + i * 0x9E3779B97F4A7C15; uint64 arrays wrap mod 2^64 silently
    z = np.uint64(seed) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


def _uniform(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    # a draw in [lo, hi), as numpy's Generator.uniform maps its doubles
    return lo + (hi - lo) * u


def _worst(approx, exact) -> float:
    """Largest |approx - exact| / max(1, |exact|), over arrays or sequences of arrays."""
    exact = np.asarray(exact)
    return float(np.max(np.abs(np.asarray(approx) - exact) / np.maximum(1.0, np.abs(exact))))


def run_checks(p: FluidParams, bc: BulkConditions, grid: GridConfig,
               seed: int) -> list[dict]:
    """Run the suite; each entry is one named check with its metric and verdict.

    The seed drives all sampling, so a seed fixes every metric bit for bit.
    """
    seed = read_seed(seed)
    # a config without a coexistence raises bulk_states' error, as profile
    # does, before an overflow in the sampled states could name another
    equilibrium.bulk_states(p, bc)
    # all of a run's draws at once, in the order the rows below use them:
    # delta_t, m and the entropy factor of the eos states, then rho, a, g2
    # and the probe factor of the wave loci
    n, n_loci = 200, 100
    u = _uniforms(seed, 3 * n + 4 * n_loci)
    u_dt, u_m, u_s = u[:3 * n].reshape(3, n)
    u_rho, u_a, u_g2, u_probe = u[3 * n:].reshape(4, n_loci)
    checks: list[dict] = []

    def record(name: str, metric: float, threshold: float):
        checks.append({"name": name, "metric": float(metric),
                       "threshold": threshold, "passed": bool(metric <= threshold)})

    # sample physically scaled states: densities inside the coexistence
    # bracket at undercoolings within three decades below the config's,
    # entropies near the slaved value
    dts = bc.delta_t * 10.0 ** _uniform(-3.0, 0.0, u_dt)
    m = _uniform(-1.0, 1.0, u_m) * np.sqrt(p.A * dts / p.B)
    rho = p.rho_c + m
    s = eos.entropy_slave(p, rho, dts) * _uniform(0.5, 1.5, u_s)

    def central(f, d_rho, d_s):
        # central differences of f(rho, s)'s output (arrays stacked) in rho and in s
        def step(dr, ds):
            return np.asarray(f(rho + dr, s + ds)) - np.asarray(f(rho - dr, s - ds))
        return step(d_rho, 0.0) / (2.0 * d_rho), step(0.0, d_s) / (2.0 * d_s)

    # the delta_t forms (mu - mu_c, rho*(T - T0)) are the bulk terms the
    # solver uses; at delta_t = T_c (T0 = 0) they are the partials of
    # rho*alpha - mu_c*rho, differenced here without mu_c and p_c, whose
    # affine terms would only add rounding to the quotient
    h_rho = 6e-6 * np.maximum(1.0, np.abs(rho))
    h_s = 6e-6 * np.maximum(1.0, np.abs(s))
    fd_rho, fd_s = central(partial(eos.bulk_energy, replace(p, mu_c=0.0, p_c=0.0)), h_rho, h_s)
    record("eos-partials-vs-finite-difference",
           _worst([fd_rho, fd_s], eos.bulk_energy_partials(p, rho, s, p.T_c)), 1e-6)
    fd_rho, fd_s = central(partial(eos.bulk_energy_partials, p, delta_t=dts), h_rho, h_s)
    record("eos-hessian-vs-finite-difference",
           _worst([fd_rho[0], *fd_s], eos.bulk_energy_hessian(p, rho, s, dts)), 1e-6)

    # mu - mu_c on both sides: adding mu_c would hide an error below its rounding
    mu = eos.bulk_energy_partials(p, rho, eos.entropy_slave(p, rho, dts), dts)[0]
    record("slaved-chemical-potential-identity",
           _worst(mu, eos.chemical_potential_cubic(replace(p, mu_c=0.0), rho, dts)), 1e-12)

    # both delta_t terms vanish at both states: |mu - mu_c| and |T - T0|
    worst = 0.0
    for dt in bc.delta_t * 10.0 ** -np.arange(4.0):
        for st in equilibrium.bulk_states(p, bulk_conditions(p, delta_t=dt)):
            d_rho, d_s = eos.bulk_energy_partials(p, st.rho, st.s, dt)
            worst = max(worst, abs(d_rho), abs(d_s / st.rho))
    record("bulk-states-at-coexistence", worst, 1e-12)

    prof = equilibrium.closed_profile(p, bc, grid)
    record("profile-equation-residual",
           np.max(np.abs(equilibrium.reduced_residual(p, bc, prof))), 1e-7)
    record("first-integral-residual",
           np.max(np.abs(equilibrium.first_integral_residual(p, bc, prof))), 1e-7)

    # a box too narrow for the closed front's tails fails this row alone:
    # the full route below may still answer on it, as profile --full does
    sig_c = equilibrium.surface_tension_closed(p, bc)
    try:
        sig_q = equilibrium.surface_tension_quadrature(p, prof)
    except UndecayedTail:
        sig_q = np.inf
    record("surface-tension-quadrature-vs-closed", abs(sig_q - sig_c) / sig_c, 1e-6)

    full_prof, _ = equilibrium.solve_full_bvp(p, bc, grid)
    record("equilibrium-stress-residual",
           equilibrium.equilibrium_stress_residual(p, full_prof), 1e-7)

    rho_w = p.rho_c * _uniform(0.5, 1.5, u_rho)
    a_w = _uniform(-1.0, 1.0, u_a) * 0.1
    g2_w = 10.0 ** _uniform(-12.0, -2.0, u_g2)
    v_closed, lam_closed = waves.celerity_closed(p, rho_w, a_w, g2_w)
    v_probe = _uniform(0.0, 2.0, u_probe) * v_closed
    num = np.linalg.det(waves.jump_matrices(p, rho_w, a_w, g2_w, v_probe))
    grad_term = (p.C * p.E - p.D * p.D) * g2_w
    # v^2 as the C library's pow(v, 2) (np.float_power), the value a Python
    # float's ** gives; v * v differs from it in the last bit about once
    # in a thousand loci, which would move the metric
    speed_term = p.C * rho_w * np.float_power(v_probe, 2.0)
    # relative to the size of its two terms: ref itself vanishes when
    # the probe speed lands near the root, and would measure cancellation
    ref = -rho_w * (grad_term - speed_term)
    det_err = np.max(np.abs(num - ref) / (rho_w * (grad_term + speed_term)))
    # the amplitudes too: a wrong D a or E a in the jump matrix's energy-flux
    # row moves lam3 alone and leaves the determinant, and so v, as it is
    v_root, lam_root = waves.celerity_roots(p, rho_w, a_w, g2_w)
    cel_err = max(np.max(np.abs(v_closed - v_root) / v_closed), _worst(lam_root, lam_closed))
    record("jump-determinant-identity", det_err, 1e-12)
    record("celerity-root-vs-closed-form", cel_err, 1e-10)

    v_direct = waves.celerity_at_critical_density(p, bc)
    v_locus = waves.celerity_general(p, waves.dividing_surface_locus(p, bc))
    scale = v_direct.v if v_direct.v > 0.0 else 1.0
    record("dividing-surface-celerity-consistency",
           abs(v_direct.v - v_locus.v) / scale, 1e-12)

    # toward the critical point: the determinant root on the dividing-surface
    # loci of delta_t / 10, / 100, / 1000 against the closed delta_t^2 law
    bcs = [bulk_conditions(p, delta_t=dt) for dt in bc.delta_t * 10.0 ** -np.arange(1.0, 4.0)]
    v_law = np.array([waves.celerity_at_critical_density(p, b).v for b in bcs])
    loci = [waves.dividing_surface_locus(p, b) for b in bcs]
    v_root, _ = waves.celerity_roots(p, [c.rho for c in loci], [c.grad_s_normal for c in loci],
                                     [c.grad_s_tg_sq for c in loci])
    record("celerity-root-toward-critical-point", np.max(np.abs(v_root - v_law) / v_law), 1e-10)

    return checks
