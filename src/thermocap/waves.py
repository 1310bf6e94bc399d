"""Acceleration waves running tangentially along the interface.

A weak discontinuity moving through the interfacial layer carries jumps
(lambda_1, lambda_2, lambda_3) in the normal derivatives of density,
entropy and temperature.  Compatibility of mass, momentum and energy
balances across the moving surface reduces to a 3x3 homogeneous linear
system; nontrivial jumps exist only where its determinant vanishes, which
pins the celerity v.  The determinant is linear in v^2, so the closed form

    v^2 = (C E - D^2) * g^2 / (C * rho)

with g^2 the squared tangential entropy gradient follows by one cofactor
expansion.  This module assembles the system, finds the root numerically
from two determinant evaluations without using the closed form, and
evaluates both on the dividing surface of an equilibrium profile where
everything reduces to functions of the undercooling alone.

The numeric root works on arrays of loci: jump_matrices fills a
(..., 3, 3) stack from broadcast rho, a, g2 and v, and celerity_roots
takes both determinant evaluations of every locus in one stacked
np.linalg.det call and every rank certificate in one np.linalg.svd call.
jump_matrix and celerity_by_determinant are its one-locus case, with the
same bits and the same error messages.  The closed form pairs the same
way: celerity_closed takes the same broadcast loci, and celerity_general
is its one-locus case.  Both routes, and WaveLocus, run one guard: finite
entries and rho > 0, with g2 >= 0 for the closed form and g2 > 0 for the
root, which has no root to find at g2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .eos import BulkConditions, FluidParams, read_fields
from .errors import InvalidConfig, ModelError

__all__ = [
    "WaveLocus",
    "CelerityResult",
    "jump_matrix",
    "jump_matrices",
    "celerity_general",
    "celerity_closed",
    "celerity_by_determinant",
    "celerity_roots",
    "celerity_at_critical_density",
    "dividing_surface_locus",
    "dividing_surface_density_gradient",
]

_JUMP_NOTE = "lambda_1 = [d rho/dn], lambda_2 = [d s/dn] (jumps in normal derivatives)"


@dataclass(frozen=True)
class WaveLocus:
    """Local state a wave propagates through.

    grad_s_normal is the component of grad s along the wave normal,
    grad_s_tg_sq the squared magnitude of its tangential part.
    """

    rho: float
    grad_s_normal: float
    grad_s_tg_sq: float

    def __post_init__(self):
        read_fields(self, "locus")
        _loci(self.rho, self.grad_s_normal, self.grad_s_tg_sq, root=False)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CelerityResult:
    """Celerity and normalized jump amplitudes of a tangential wave."""

    v: float
    lam: tuple[float, float, float]

    def __post_init__(self):
        if not self.v >= 0.0:
            raise ValueError("celerity must be reported as the nonnegative root")

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "v_mirror": -self.v,
            "v_squared": self.v * self.v,
            "lambda1": self.lam[0],
            "lambda2": self.lam[1],
            "lambda3": self.lam[2],
            "jump_interpretation": _JUMP_NOTE,
        }


def jump_matrices(p: FluidParams, rho, a, g2, v) -> np.ndarray:
    """Read-only (..., 3, 3) stack of compatibility matrices, one per locus.

    rho, a (the normal entropy gradient), g2 (the squared tangential one)
    and the candidate celerity v broadcast to the stack's leading shape.
    Rows: capillary-flux jump [C, D, 0]; energy-flux jump [D a, E a, rho];
    tangential momentum jump [D g2, E g2 - rho v^2, 0].
    """
    mat = np.zeros(np.broadcast(rho, a, g2, v).shape + (3, 3))
    mat[..., 0, 0] = p.C
    mat[..., 0, 1] = p.D
    mat[..., 1, 0] = p.D * a
    mat[..., 1, 1] = p.E * a
    mat[..., 1, 2] = rho
    mat[..., 2, 0] = p.D * g2
    mat[..., 2, 1] = p.E * g2 - rho * v * v
    mat.setflags(write=False)
    return mat


def jump_matrix(p: FluidParams, locus: WaveLocus, v: float) -> np.ndarray:
    """The read-only 3x3 compatibility matrix of one locus at celerity v.

    Its rows are described at jump_matrices, of which this is the one-locus case.
    """
    return jump_matrices(p, locus.rho, locus.grad_s_normal, locus.grad_s_tg_sq, v)


def _require(ok: np.ndarray, shape: tuple, error: type, describe) -> None:
    """Raise error(describe(k)) for the first locus k where ok is False.

    ok is flat over the loci; for a batch (shape not ()) the message gains
    the failing locus's index, for one locus it is describe(0) alone.
    """
    if np.count_nonzero(ok) < ok.size:
        k = int(np.argmin(ok))
        where = k if len(shape) == 1 else tuple(map(int, np.unravel_index(k, shape)))
        raise error(describe(k) + (f" (locus {where})" if shape else ""))


def _loci(rho, a, g2, root: bool) -> tuple[tuple, np.ndarray]:
    """The batch shape and the (3, n) float rows rho, a, g2 of broadcast loci.

    The one guard of both celerity routes: every locus is finite with
    rho > 0, and g2 >= 0 for the closed form or g2 > 0 for the root.  A
    failing locus raises InvalidConfig as _require describes.
    """
    shape = np.broadcast(rho, a, g2).shape
    loci = np.empty((3,) + shape)
    loci[0], loci[1], loci[2] = rho, a, g2
    rho, a, g2 = loci = loci.reshape(3, -1)
    finite = np.isfinite(loci).all(axis=0)
    g2_ok = g2 > 0.0 if root else g2 >= 0.0
    _require(finite & (rho > 0.0) & g2_ok, shape, InvalidConfig, lambda k: (
        f"wave locus entries must be finite, got {tuple(loci[:, k].tolist())}"
        if not finite[k] else f"locus density must be > 0, got {float(rho[k])}"
        if not rho[k] > 0.0 else "determinant root-finding requires grad_s_tg_sq > 0"
        if root else f"squared tangential gradient must be >= 0, got {float(g2[k])}"))
    return shape, loci


def celerity_closed(p: FluidParams, rho, a, g2) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form celerities v = sqrt((CE - D^2) g2 / (C rho)) of a batch of loci.

    rho, a and g2 broadcast as in celerity_roots, and v and the amplitudes
    lam come back in its shapes.  Amplitudes are normalized to lam2 = 1:
    lam1 = -D/C from the first row, lam3 = -(a/rho)(E - D^2/C) from the
    second.  The jump vector is tangential to the wave surface, so these
    waves transport no mass through their own front.
    """
    shape, (rho, a, g2) = _loci(rho, a, g2, root=False)
    v = np.sqrt((p.C * p.E - p.D * p.D) * g2 / (p.C * rho))
    lam = np.stack([np.full_like(a, -p.D / p.C), np.ones_like(a),
                    -(a / rho) * (p.E - p.D * p.D / p.C)], axis=-1)
    return v.reshape(shape), lam.reshape(shape + (3,))


def celerity_general(p: FluidParams, locus: WaveLocus) -> CelerityResult:
    """Closed-form celerity and amplitudes of one locus: the one-locus case of celerity_closed."""
    v, lam = celerity_closed(p, locus.rho, locus.grad_s_normal, locus.grad_s_tg_sq)
    return CelerityResult(v=float(v), lam=tuple(lam.tolist()))


def celerity_roots(p: FluidParams, rho, a, g2) -> tuple[np.ndarray, np.ndarray]:
    """Determinant-root celerities and amplitudes of a batch of loci.

    rho, a (normal entropy gradient) and g2 (squared tangential entropy
    gradient) broadcast to the batch shape; returns v of that shape and the
    amplitudes lam of that shape + (3,), normalized to lam2 = 1.  Each
    locus takes the route celerity_by_determinant describes, but both
    determinant evaluations of every locus go through one stacked
    np.linalg.det call and all rank certificates through one np.linalg.svd
    call.  Stacked calls run the same LAPACK routine on each matrix, so a
    locus gets the same bits in any batch as alone.  A guard failing at any
    locus raises its single-locus error, naming the first failing index.
    """
    shape, (rho, a, g2) = _loci(rho, a, g2, root=True)
    v_probe = np.sqrt(p.E * g2 / rho)
    v_both = np.zeros((2, v_probe.size))
    v_both[1] = v_probe
    dets = np.linalg.det(jump_matrices(p, rho, a, g2, v_both))
    det_0, det_probe = dets[0], dets[1]
    _require(det_probe != det_0, shape, ModelError,
             lambda k: "jump determinant does not depend on v^2; no celerity root")
    v_sq = v_probe * v_probe * det_0 / (det_0 - det_probe)
    _require(v_sq >= 0.0, shape, ModelError, lambda k: (
        f"jump determinant vanishes at v^2 = {v_sq[k]:.6g} < 0; no real celerity"))
    v_root = np.sqrt(v_sq)
    _, sing, vt = np.linalg.svd(jump_matrices(p, rho, a, g2, v_root))
    _require(sing[:, 1] > 1e3 * sing[:, 2], shape, ModelError, lambda k: (
        "jump matrix at the determinant root is not numerically rank 2 "
        f"(singular values {sing[k]})"))
    vec = vt[:, 2]
    lam = vec / np.where(vec[:, 1:2] != 0.0, vec[:, 1:2], 1.0)
    # C*lam1 + D*lam2 = 0 is the jump of the capillary flux divergence; it
    # holds for every wave, so a null vector breaking it is not a wave
    c_lam1, d_lam2 = p.C * lam[:, 0], p.D * lam[:, 1]
    resid = np.abs(c_lam1 + d_lam2)
    scale = np.maximum(np.maximum(np.abs(c_lam1), np.abs(d_lam2)), 1.0)
    _require(resid <= 1e-12 * scale, shape, ModelError,
             lambda k: f"amplitudes violate C*lam1 + D*lam2 = 0 (residual {resid[k]:.3e})")
    return v_root.reshape(shape), lam.reshape(shape + (3,))


def celerity_by_determinant(p: FluidParams, locus: WaveLocus) -> CelerityResult:
    """Celerity as a numeric determinant root, amplitudes from the null space.

    Independent of the closed form.  Only entry (3,2) of the jump matrix
    depends on v, and only through v^2, so by multilinearity the
    determinant is affine in v^2: evaluating it at v^2 = 0 and at the
    probe v^2 = E g2 / rho, where entry (3,2) vanishes, fixes the line and
    its root.  The amplitude vector is the right singular direction of the
    smallest singular value; the gap to the next singular value certifies
    that the matrix really drops to rank 2 at the root.  This is the
    one-locus case of celerity_roots.
    """
    v, lam = celerity_roots(p, locus.rho, locus.grad_s_normal, locus.grad_s_tg_sq)
    return CelerityResult(v=float(v), lam=tuple(lam.tolist()))


def dividing_surface_density_gradient(p: FluidParams, bc: BulkConditions) -> float:
    """Tangential density-gradient magnitude at rho = rho_c.

    The first integral of the profile equation gives
    C |grad rho|^2 = (A^2 / 2B) delta_t^2 at the dividing surface, and the
    wave normal is orthogonal to grad rho there, so all of it is tangential.
    """
    return p.A * bc.delta_t / math.sqrt(2.0 * p.B * p.C)


def dividing_surface_locus(p: FluidParams, bc: BulkConditions) -> WaveLocus:
    """Wave locus on the rho = rho_c surface of an equilibrium interface.

    The slaved entropy varies along grad rho with slope
    (A^2 / (2 B rho_c^2)) delta_t at the dividing surface, so grad s is
    parallel to grad rho: its normal component vanishes and its tangential
    square is the slope squared times the density-gradient square.
    """
    slope = p.A * p.A * bc.delta_t / (2.0 * p.B * p.rho_c * p.rho_c)
    grad_rho_tg = dividing_surface_density_gradient(p, bc)
    return WaveLocus(rho=p.rho_c, grad_s_normal=0.0,
                     grad_s_tg_sq=(slope * grad_rho_tg) ** 2)


def celerity_at_critical_density(p: FluidParams, bc: BulkConditions) -> CelerityResult:
    """Celerity on the dividing surface straight from the undercooling.

    v^2 = (CE - D^2) A^6 delta_t^4 / (8 C^2 B^3 rho_c^5): quadratic in
    delta_t, so the wave slows to rest exactly at the critical point.
    """
    num = (p.C * p.E - p.D * p.D) * p.A ** 6 * bc.delta_t ** 4
    den = 8.0 * p.C ** 2 * p.B ** 3 * p.rho_c ** 5
    lam = celerity_general(p, dividing_surface_locus(p, bc)).lam
    return CelerityResult(v=math.sqrt(num / den), lam=lam)
