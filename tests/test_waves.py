"""Tangential acceleration-wave tests: jump system, celerity, dividing surface.

The closed form under test: on a locus with density rho and squared
tangential entropy-slope g2, the admissible squared celerity is
(C*E - D^2) * g2 / (C * rho).  On the dividing surface of the reference
interface at undercooling 0.01 this evaluates to v^2 = 1.2e-9.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from thermocap import (
    CelerityResult,
    FluidParams,
    WaveLocus,
    bulk_conditions,
    celerity_at_critical_density,
    celerity_by_determinant,
    celerity_general,
    dividing_surface_locus,
    jump_matrix,
)
from thermocap import GridConfig, waves
from thermocap.checks import _uniforms, run_checks
from thermocap.waves import (
    celerity_closed,
    celerity_roots,
    dividing_surface_density_gradient,
    jump_matrices,
)
from thermocap.errors import InvalidConfig, ModelError

P0 = FluidParams()
BC = bulk_conditions(P0, delta_t=0.01)


def closed_v_squared(p, locus):
    return (p.C * p.E - p.D * p.D) * locus.grad_s_tg_sq / (p.C * locus.rho)


def random_locus(rng):
    return WaveLocus(rho=rng.uniform(0.3, 2.0),
                     grad_s_normal=rng.uniform(-1e-3, 1e-3),
                     grad_s_tg_sq=10.0 ** rng.uniform(-12, -5))


# ---------------------------------------------------------------------------
# Locus and result invariants
# ---------------------------------------------------------------------------

def test_wave_locus_validation():
    with pytest.raises(InvalidConfig):
        WaveLocus(rho=0.0, grad_s_normal=0.0, grad_s_tg_sq=1e-9)
    with pytest.raises(InvalidConfig):
        WaveLocus(rho=-1.0, grad_s_normal=0.0, grad_s_tg_sq=1e-9)
    with pytest.raises(InvalidConfig):
        WaveLocus(rho=1.0, grad_s_normal=0.0, grad_s_tg_sq=-1e-9)
    loc = WaveLocus(rho=1.0, grad_s_normal=0.0, grad_s_tg_sq=0.0)
    assert loc.to_dict() == {"rho": 1.0, "grad_s_normal": 0.0, "grad_s_tg_sq": 0.0}


@pytest.mark.parametrize("field", ["rho", "grad_s_normal", "grad_s_tg_sq"])
@pytest.mark.parametrize("value", ["1.2", True, None, 10 ** 400],
                         ids=["str", "bool", "None", "huge-int"])
def test_wave_locus_reads_its_entries_as_strict_numbers(field, value):
    # numpy would parse "1.2" into the float 1.2 inside the shared guard,
    # so the strings are refused before it
    entries = {"rho": 1.0, "grad_s_normal": 0.0, "grad_s_tg_sq": 1e-9, field: value}
    with pytest.raises(InvalidConfig, match=rf"locus\.{field}"):
        WaveLocus(**entries)
    assert type(WaveLocus(rho=1, grad_s_normal=0, grad_s_tg_sq=0).rho) is float


def test_celerity_result_rejects_negative_speed():
    with pytest.raises(ValueError, match="nonnegative"):
        CelerityResult(v=-1.0, lam=(0.0, 1.0, 0.0))


def test_determinant_route_enforces_flux_constraint(monkeypatch):
    # lam must sit in the kernel of the capillary-flux row (C, D, 0); feed
    # the route a well-separated null vector that breaks it, stacked like
    # np.linalg.svd's output for the stack of matrices it is given
    def fake_svd(mat):
        sing = np.array([2.0, 1.0, 0.0])
        vt = np.array([[1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0],
                       [1.0, 1.0, 0.0]])
        return (None, np.broadcast_to(sing, mat.shape[:-1]),
                np.broadcast_to(vt, mat.shape))
    monkeypatch.setattr(np.linalg, "svd", fake_svd)
    locus = WaveLocus(rho=1.0, grad_s_normal=0.0, grad_s_tg_sq=1e-9)
    with pytest.raises(ModelError, match="lam1"):
        celerity_by_determinant(P0, locus)
    ok = CelerityResult(v=1.0, lam=(-P0.D / P0.C, 1.0, 0.5))
    d = ok.to_dict()
    assert d["v_mirror"] == -1.0
    assert d["v_squared"] == 1.0
    assert set(d) == {"v", "v_mirror", "v_squared", "lambda1", "lambda2",
                      "lambda3", "jump_interpretation"}


# ---------------------------------------------------------------------------
# Jump system
# ---------------------------------------------------------------------------

def test_determinant_identity():
    # det M = -rho * ((CE - D^2) g2 - C rho v^2), checked symbolically once
    # and numerically here across random loci and speeds
    rng = np.random.default_rng(5)
    for _ in range(300):
        locus = random_locus(rng)
        v = rng.uniform(0.0, 1e-3)
        mat = jump_matrix(P0, locus, v)
        expected = -locus.rho * ((P0.C * P0.E - P0.D ** 2) * locus.grad_s_tg_sq
                                 - P0.C * locus.rho * v * v)
        assert np.linalg.det(mat) == pytest.approx(expected, rel=1e-12, abs=1e-30)


def test_jump_matrix_shape_and_storage():
    locus = WaveLocus(rho=1.0, grad_s_normal=0.0, grad_s_tg_sq=1e-9)
    mat = jump_matrix(P0, locus, 1e-5)
    assert isinstance(mat, np.ndarray)
    assert mat.shape == (3, 3)
    with pytest.raises(ValueError):
        mat[2, 1] = 0.0  # read-only
    # v enters only entry (3,2), as -rho v^2
    assert mat[2, 1] == P0.E * 1e-9 - 1.0 * 1e-5 * 1e-5
    # first row is the capillary flux row (C, D, 0) for every locus
    np.testing.assert_allclose(mat[0], [P0.C, P0.D, 0.0])


def test_determinant_vanishes_exactly_at_the_closed_form_speed():
    rng = np.random.default_rng(6)
    for _ in range(50):
        locus = random_locus(rng)
        v = math.sqrt(closed_v_squared(P0, locus))
        mat = jump_matrix(P0, locus, v)
        scale = abs(np.linalg.det(mat - np.diag([1, 1, 1]))) + 1.0
        assert abs(np.linalg.det(mat)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Celerity solvers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [0.0, 0.3, 0.999])
def test_determinant_root_zeroes_the_determinant_across_loci(d):
    # the root comes from two determinant evaluations; across the coupling
    # range and twelve decades of g2 it must null the determinant to
    # rounding and land on the closed form, whose v^2 cancels CE - D^2
    p = FluidParams(D=d)
    rng = np.random.default_rng(17)
    for g2 in 10.0 ** np.linspace(-14.0, 0.0, 57):
        locus = WaveLocus(rho=rng.uniform(0.3, 2.0),
                          grad_s_normal=rng.uniform(-0.1, 0.1), grad_s_tg_sq=g2)
        v = celerity_by_determinant(p, locus).v
        # each term of det M = -rho (C E - D^2) g2 + C rho^2 v^2 is of this size
        scale = locus.rho * p.C * p.E * g2
        assert abs(np.linalg.det(jump_matrix(p, locus, v))) <= 1e-13 * scale
        assert v * v == pytest.approx(closed_v_squared(p, locus), rel=1e-12)


def test_determinant_root_guards_slope_and_sign():
    # parameter sets FluidParams would reject, so the guards are the only
    # thing between them and a meaningless celerity
    locus = WaveLocus(rho=1.0, grad_s_normal=0.0, grad_s_tg_sq=1e-9)
    with pytest.raises(ModelError, match="does not depend on v"):
        celerity_by_determinant(SimpleNamespace(C=1.0, D=0.0, E=0.0), locus)
    with pytest.raises(ModelError, match="< 0"):
        celerity_by_determinant(SimpleNamespace(C=1.0, D=1.5, E=1.0), locus)


def test_determinant_root_matches_closed_form_over_random_loci():
    rng = np.random.default_rng(42)
    for _ in range(100):
        locus = random_locus(rng)
        result = celerity_by_determinant(P0, locus)
        expected = math.sqrt(closed_v_squared(P0, locus))
        assert result.v == pytest.approx(expected, rel=1e-10)


def test_determinant_root_rejects_degenerate_locus():
    with pytest.raises(InvalidConfig):
        celerity_by_determinant(P0, WaveLocus(rho=1.0, grad_s_normal=0.0,
                                              grad_s_tg_sq=0.0))


def test_amplitudes_solve_the_jump_system():
    rng = np.random.default_rng(9)
    for _ in range(50):
        locus = random_locus(rng)
        result = celerity_by_determinant(P0, locus)
        mat = jump_matrix(P0, locus, result.v)
        lam = np.array(result.lam)
        norm = np.linalg.norm(mat, ord=np.inf) * np.linalg.norm(lam, ord=np.inf)
        assert np.linalg.norm(mat @ lam, ord=np.inf) <= 1e-10 * norm
        # normalization pins the entropy amplitude
        assert lam[1] == 1.0
        # kernel constraint: no jump in the capillary flux divergence
        assert abs(P0.C * lam[0] + P0.D * lam[1]) <= 1e-12


def test_general_and_determinant_routes_agree():
    rng = np.random.default_rng(21)
    for _ in range(25):
        locus = random_locus(rng)
        direct = celerity_general(P0, locus)
        rooted = celerity_by_determinant(P0, locus)
        assert direct.v == pytest.approx(rooted.v, rel=1e-10)
        np.testing.assert_allclose(direct.lam, rooted.lam, rtol=1e-8, atol=1e-12)


def test_celerity_is_nonnegative_for_admissible_parameters():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        while True:
            c, d, e = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0)
            if c * e - d * d > 1e-6:
                break
        p = FluidParams(A=rng.uniform(0.1, 3.0), B=rng.uniform(0.1, 3.0),
                        rho_c=rng.uniform(0.2, 3.0), C=c, D=d, E=e)
        result = celerity_general(p, random_locus(rng))
        assert result.v >= 0.0
        assert result.v * result.v >= 0.0


# ---------------------------------------------------------------------------
# Batched root
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [0.0, 0.3, 0.999])
def test_batched_root_is_bitwise_the_per_locus_root(d):
    # one stacked det and one stacked svd run the same LAPACK routine on
    # each matrix, so every locus keeps the bits it gets on its own
    p = FluidParams(D=d)
    rng = np.random.default_rng(31)
    n = 240
    rho = rng.uniform(0.3, 2.0, n)
    a = rng.uniform(-0.1, 0.1, n)
    g2 = 10.0 ** rng.uniform(-14.0, 0.0, n)
    v, lam = celerity_roots(p, rho, a, g2)
    assert v.shape == (n,) and lam.shape == (n, 3)
    mats = jump_matrices(p, rho, a, g2, v)
    for k in range(n):
        locus = WaveLocus(rho=float(rho[k]), grad_s_normal=float(a[k]),
                          grad_s_tg_sq=float(g2[k]))
        single = celerity_by_determinant(p, locus)
        assert v[k] == single.v
        assert tuple(lam[k].tolist()) == single.lam
        assert np.array_equal(mats[k], jump_matrix(p, locus, single.v))
    # loci broadcast, and the batch keeps their shape
    v2, lam2 = celerity_roots(p, rho.reshape(12, 20), a[0], g2.reshape(12, 20))
    assert v2.shape == (12, 20) and lam2.shape == (12, 20, 3)
    assert np.array_equal(v2[3, 4], celerity_roots(p, rho[64], a[0], g2[64])[0])


@pytest.mark.parametrize("d", [0.0, 0.3, 0.999, -0.7])
def test_batched_closed_form_is_bitwise_the_per_locus_closed_form(d):
    # celerity_general is the one-locus case of celerity_closed, and both
    # keep the bits of the scalar formula they replace
    p = FluidParams(D=d)
    rng = np.random.default_rng(37)
    n = 240
    rho = rng.uniform(0.3, 2.0, n)
    a = rng.uniform(-0.1, 0.1, n)
    g2 = np.concatenate([[0.0], 10.0 ** rng.uniform(-14.0, 0.0, n - 1)])
    v, lam = celerity_closed(p, rho, a, g2)
    assert v.shape == (n,) and lam.shape == (n, 3)
    for k in range(n):
        locus = WaveLocus(rho=float(rho[k]), grad_s_normal=float(a[k]),
                          grad_s_tg_sq=float(g2[k]))
        single = celerity_general(p, locus)
        assert v[k] == single.v
        assert tuple(lam[k].tolist()) == single.lam
        assert single.v == math.sqrt((p.C * p.E - p.D * p.D) * locus.grad_s_tg_sq
                                     / (p.C * locus.rho))
        assert single.lam == (-p.D / p.C, 1.0, -(locus.grad_s_normal / locus.rho)
                              * (p.E - p.D * p.D / p.C))
    v2, lam2 = celerity_closed(p, rho.reshape(12, 20), a[0], g2.reshape(12, 20))
    assert v2.shape == (12, 20) and lam2.shape == (12, 20, 3)
    assert np.array_equal(v2.ravel(), celerity_closed(p, rho, a[0], g2)[0])


@pytest.mark.parametrize("field, value, message", [
    ("g2", 0.0, "grad_s_tg_sq > 0"),
    ("g2", -1e-9, "grad_s_tg_sq > 0"),
    ("a", math.nan, "must be finite"),
    ("rho", math.inf, "must be finite"),
    ("rho", 0.0, "density must be > 0"),
    ("rho", -1.0, "density must be > 0"),
])
def test_batched_root_names_the_first_bad_locus(field, value, message):
    loci = {"rho": np.full(9, 1.1), "a": np.zeros(9), "g2": np.full(9, 1e-9)}
    loci[field][[6, 8]] = value
    # both routes run one guard; the closed form accepts g2 = 0, and refuses
    # g2 < 0 with its own bound
    routes = [(celerity_roots, message)]
    if (field, value) != ("g2", 0.0):
        routes.append((celerity_closed,
                       "tangential gradient must be >= 0" if field == "g2" else message))
    for route, route_message in routes:
        with pytest.raises(InvalidConfig, match=rf"{route_message}.* \(locus 6\)$"):
            route(P0, **loci)
        # the same locus alone keeps the single-locus message
        with pytest.raises(InvalidConfig, match=route_message) as alone:
            route(P0, **{k: float(x[6]) for k, x in loci.items()})
        assert "(locus" not in str(alone.value)


def test_batched_root_names_the_locus_where_a_guard_fails():
    # at rho = 1e300, g2 = 1e-300 the probe speed E g2 / rho underflows to
    # zero, so the determinant shows no slope in v^2 at that locus only
    rho, g2 = np.ones((2, 3)), np.full((2, 3), 1e-9)
    rho[1, 0], g2[1, 0] = 1e300, 1e-300
    with pytest.raises(ModelError,
                       match=r"does not depend on v\^2; no celerity root \(locus \(1, 0\)\)$"):
        celerity_roots(P0, rho, 0.0, g2)
    with pytest.raises(ModelError, match=r"< 0; no real celerity \(locus 0\)$"):
        celerity_roots(SimpleNamespace(C=1.0, D=1.5, E=1.0), np.ones(4), 0.0, 1e-9)


def splitmix64(seed, k):
    """The first k SplitMix64 outputs for seed, in Python integers: the
    reference the suite's vectorized uint64 stream is checked against."""
    mask = 2 ** 64 - 1
    out = []
    for i in range(1, k + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def reference_uniforms(seed, k):
    return [(z >> 11) * 2.0 ** -53 for z in splitmix64(seed, k)]


def test_check_draws_the_published_splitmix64_stream():
    # the first outputs of SplitMix64 seeded with 0, as published with the
    # generator (Steele, Lea & Flood 2014) and in Vigna's reference C code
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed in (0, 1, 11, 2 ** 63 - 5, 2 ** 64 - 1):
        u = _uniforms(seed, 1000)
        assert u.dtype == np.float64 and u.tolist() == reference_uniforms(seed, 1000), seed
        assert 0.0 <= u.min() and u.max() < 1.0


@pytest.mark.parametrize("seed", [0, 11, 2 ** 63 - 5])
def test_check_wave_metrics_match_a_per_locus_recomputation(seed):
    checks = {c["name"]: c["metric"] for c in run_checks(P0, BC, GridConfig(), seed)}
    # replay the suite's draws from the reference generator: three
    # 200-sample eos draws, then rho, a and g2 of the 100 loci, then one
    # probe factor per locus
    u = reference_uniforms(seed, 1000)[600:]
    rho_w = [P0.rho_c * (0.5 + x) for x in u[0:100]]
    a_w = [(-1.0 + 2.0 * x) * 0.1 for x in u[100:200]]
    g2_w = [10.0 ** (-12.0 + 10.0 * x) for x in u[200:300]]
    det_err = cel_err = 0.0
    for rho_i, a_i, g2_i, u_i in zip(rho_w, a_w, g2_w, u[300:400]):
        locus = WaveLocus(rho=rho_i, grad_s_normal=a_i, grad_s_tg_sq=g2_i)
        v_probe = 2.0 * u_i * math.sqrt(
            (P0.C * P0.E - P0.D * P0.D) * g2_i / (P0.C * rho_i))
        num = float(np.linalg.det(jump_matrix(P0, locus, v_probe)))
        grad_term = (P0.C * P0.E - P0.D * P0.D) * g2_i
        speed_term = P0.C * rho_i * v_probe ** 2
        ref = -rho_i * (grad_term - speed_term)
        det_err = max(det_err, abs(num - ref) / (rho_i * (grad_term + speed_term)))
        closed = celerity_general(P0, locus).v
        cel_err = max(cel_err, abs(closed - celerity_by_determinant(P0, locus).v) / closed)
    assert checks["jump-determinant-identity"] == det_err
    assert checks["celerity-root-vs-closed-form"] == cel_err


def test_check_follows_the_celerity_toward_the_critical_point(monkeypatch):
    # the row compares the determinant root with the closed delta_t^2 law
    # one, two and three decades below the config's undercooling; a law
    # that is right at the config's own delta_t but off the delta_t^2
    # scaling below it passes every other row and fails this one
    def rows():
        return {c["name"]: c for c in run_checks(P0, BC, GridConfig(), 0)}

    row = rows()["celerity-root-toward-critical-point"]
    assert row["passed"] and row["threshold"] == 1e-10 and row["metric"] < 1e-14
    real = waves.celerity_at_critical_density

    def off_the_law(p, bc):
        result = real(p, bc)
        return replace(result, v=result.v * (bc.delta_t / BC.delta_t) ** 1e-3)

    monkeypatch.setattr(waves, "celerity_at_critical_density", off_the_law)
    failed = [name for name, c in rows().items() if not c["passed"]]
    assert failed == ["celerity-root-toward-critical-point"]


# ---------------------------------------------------------------------------
# Dividing surface of the reference interface
# ---------------------------------------------------------------------------

def test_dividing_surface_gradient_reference_value():
    # max slope of the tanh front: jump / (4 zeta) = A dT / sqrt(2 B C)
    grad = dividing_surface_density_gradient(P0, BC)
    assert grad == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-14)


def test_dividing_surface_locus_reference_values():
    locus = dividing_surface_locus(P0, BC)
    assert locus.rho == P0.rho_c
    # tangential entropy slope: the slaved entropy varies along the
    # interface through rho, giving g2 = (dT/(2 rho_c^2))^2 * grad_rho^2
    assert locus.grad_s_tg_sq == pytest.approx(1.25e-9, rel=1e-13)


def test_dividing_surface_celerity_reference_value():
    result = celerity_at_critical_density(P0, BC)
    assert result.v ** 2 == pytest.approx(1.2e-9, rel=1e-12)
    assert result.v == pytest.approx(3.4641016151377547e-5, rel=1e-12)
    # consistency with the generic machinery on the same locus
    locus = dividing_surface_locus(P0, BC)
    assert celerity_general(P0, locus).v == pytest.approx(result.v, rel=1e-12)
    assert celerity_by_determinant(P0, locus).v == pytest.approx(result.v, rel=1e-10)


def test_celerity_scales_quadratically_with_undercooling():
    v1 = celerity_at_critical_density(P0, bulk_conditions(P0, delta_t=0.01)).v
    v2 = celerity_at_critical_density(P0, bulk_conditions(P0, delta_t=0.001)).v
    slope = math.log10(v1 / v2)
    assert slope == pytest.approx(2.0, abs=1e-12)


def test_celerity_vanishes_at_the_critical_point():
    result = celerity_at_critical_density(P0, bulk_conditions(P0, delta_t=0.0))
    assert result.v == 0.0
    assert result.to_dict()["v_squared"] == 0.0
    # (CE - D^2) A^6 overflows here; at delta_t = 0 the wave is at rest all the same
    p = FluidParams(E=1e308, A=10.0)
    assert celerity_at_critical_density(p, bulk_conditions(p, delta_t=0.0)).v == 0.0
