"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with -v or -s); a failed assertion is
the corresponding FAIL.  Derived expectations come from the closed-form
oracles in conftest (lens and circular-segment formulas) and from the exact
planar perimeter / closed-form edge functionals.
"""

import math
import time

import numpy as np
import pytest

from kpv.asymptotics import (kp_threshold, laurent_fit, mean_width_difference,
                             system_and_window, verify_lift_identity)
from kpv.ball_volumes import BallSystem, _distance_hits, mc_ball_volume
from kpv.configurations import (PointConfiguration, are_congruent, embed,
                                random_expansion)
from kpv.errors import GeometryError
from kpv.meanwidth import mean_width_edge_sum_3d, mean_width_exact_2d, mean_width_quadrature
from kpv.polyhedra import Halfspace, PolyhedralSet
from kpv.truncated_volume import (RadiusGrid, check_ww_lemma, unit_ball_volume,
                                  volume_profile)

from conftest import lens_area, two_disk_union

TWO_DISKS = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
SEGMENT = TWO_DISKS
SQUARE = PointConfiguration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])


def _report(num, text, elapsed):
    print(f"\nACCEPTANCE {num}: PASS - {text} ({elapsed:.1f}s)")


# -- shared fixture for criteria 4, 5, 10 -----------------------------------

@pytest.fixture(scope="module")
def planar_fit_suite():
    """Union/intersection Laurent fits, the exact coefficients and exact mean
    widths for the criterion-4 configuration family: segment, unit square,
    and 10 random planar configs."""
    rng = np.random.default_rng(41)
    configs = [("segment", SEGMENT), ("square", SQUARE)]
    for k in range(10):
        n_pts = int(rng.integers(3, 7))
        configs.append((f"random{k}", PointConfiguration.from_points(
            rng.uniform(-1.0, 1.0, size=(n_pts, 2)))))
    records = []
    for name, cfg in configs:
        # window [10R, 1000R], R = max(last breakpoint, diameter, 1e-2)
        system, window = system_and_window(cfg, None)
        fit_u = laurent_fit(system.union_volume, 2, 3, window)
        fit_i = laurent_fit(system.intersection_volume, 2, 3, window)
        m = mean_width_exact_2d(cfg).value
        records.append({"name": name, "config": cfg, "m": m,
                        "fit_u": fit_u, "fit_i": fit_i,
                        "exact_u": system.laurent_coefficients("union"),
                        "exact_i": system.laurent_coefficients("intersection")})
    return records


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_two_disk_lens():
    t0 = time.monotonic()
    system = BallSystem(TWO_DISKS, r_max=1.0)
    union, intersection = system.union_volume(1.0), system.intersection_volume(1.0)
    elapsed = time.monotonic() - t0
    union_oracle = two_disk_union(1.0, 1.0)          # 5.054816...
    lens_oracle = lens_area(1.0, 1.0)                # 1.228370...
    assert abs(union - union_oracle) <= 1e-6 * union_oracle
    assert abs(intersection - lens_oracle) <= 1e-6 * lens_oracle
    assert elapsed < 1.0
    _report(1, f"lens union {union:.6f}, "
               f"intersection {intersection:.6f} within 1e-6", elapsed)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_ode_vs_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(7001)
    checked = 0
    for k in range(20):
        dim = 2 if k % 2 == 0 else 3
        n_pts = int(rng.integers(2, 7))
        cfg = PointConfiguration.from_points(
            rng.uniform(-1.0, 1.0, size=(n_pts, dim)))
        diam = max(cfg.diameter, 0.5)
        system = BallSystem(cfg, r_max=2.3 * diam)
        for j, r in enumerate((0.85 * diam, 1.4 * diam, 2.2 * diam)):
            both = mc_ball_volume(cfg, r, "both", 1_000_000, seed=9000 + 31 * k + j)
            for which, ode in (("union", system.union_volume(r)),
                               ("intersection", system.intersection_volume(r))):
                est, se = both[which]
                if se == 0.0:
                    assert abs(ode - est) <= 1e-9 * max(1.0, est)
                else:
                    assert abs(ode - est) <= 3.0 * se, (
                        f"config {k} r={r} {which}: ode={ode} mc={est} se={se}")
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(2, f"{checked} ODE-vs-MC comparisons within 3 stderr", elapsed)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_mean_width_cross_method():
    t0 = time.monotonic()
    rng = np.random.default_rng(7002)
    for _ in range(100):
        n_pts = int(rng.integers(2, 10))
        cfg = PointConfiguration.from_points(rng.uniform(-1, 1, size=(n_pts, 2)))
        exact = mean_width_exact_2d(cfg)
        quad = mean_width_quadrature(cfg, 4096)
        assert abs(exact.value - quad.value) <= 3.0 * quad.stderr
    for k in range(25):
        n_pts = int(rng.integers(4, 10))
        cfg = PointConfiguration.from_points(rng.uniform(-1, 1, size=(n_pts, 3)))
        es = mean_width_edge_sum_3d(cfg)
        quad = mean_width_quadrature(cfg, 40_000, seed=500 + k)
        combined = math.hypot(es.stderr, quad.stderr)
        assert abs(es.value - quad.value) <= 3.0 * combined, (
            f"3d config {k}: edge_sum={es.value} quad={quad.value} "
            f"combined stderr={combined}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(3, "100 planar exact-vs-quadrature and 25 spatial edge-sum-vs-"
               "quadrature agreements within 3 stderr", elapsed)


# -- criteria 4 and 5 --------------------------------------------------------

def test_criterion_04_union_coefficient_matches_mean_width(planar_fit_suite):
    t0 = time.monotonic()
    for rec in planar_fit_suite:
        a1 = rec["fit_u"].coefficient(1)
        m = rec["m"]
        assert abs(a1 - m) <= 0.01 * m, f"{rec['name']}: a1={a1} vs M={m}"
    elapsed = time.monotonic() - t0
    _report(4, f"union r^(n-1) coefficient within 1% of the hull mean width "
               f"on {len(planar_fit_suite)} configurations", elapsed)


def test_criterion_05_csikos_cancellation(planar_fit_suite):
    t0 = time.monotonic()
    for rec in planar_fit_suite:
        ai = rec["fit_i"].coefficient(1)
        au = rec["fit_u"].coefficient(1)
        m = rec["m"]
        assert abs(ai + m) <= 0.01 * m, f"{rec['name']}: a1(inter)={ai} vs -M={-m}"
        assert abs(au + ai) <= 0.01 * m, f"{rec['name']}: sum={au + ai}"
    elapsed = time.monotonic() - t0
    _report(5, "intersection coefficient equals -M and union+intersection "
               "coefficients cancel within 1% of M", elapsed)


def test_criterion_04_fit_agrees_with_exact_coefficients(planar_fit_suite):
    # the least-squares fit stays an independent check of the exact sums
    for rec in planar_fit_suite:
        for fit, exact in ((rec["fit_u"], rec["exact_u"]), (rec["fit_i"], rec["exact_i"])):
            assert abs(fit.coefficient(2) - exact[0]) <= 0.01 * abs(exact[0])
            assert abs(fit.coefficient(1) - exact[1]) <= 0.01 * abs(exact[1]), rec["name"]


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_ww_lemma_defect():
    t0 = time.monotonic()
    rng = np.random.default_rng(7006)
    plan = [2] * 17 + [3] * 17 + [4] * 16
    for i, n in enumerate(plan):
        while True:
            k = int(rng.integers(1, n + 1))
            normals = rng.standard_normal((k, n))
            if np.linalg.matrix_rank(normals, tol=1e-6) < k:
                continue
            offsets = rng.uniform(-1.0, 1.0, k)
            p0 = rng.uniform(-1.0, 1.0, n)
            hs = tuple(Halfspace(normals[j], offsets[j]) for j in range(k))
            h_max = max(abs(h.slack(p0)) for h in hs)
            if h_max >= 0.05:
                break
        defect = check_ww_lemma(hs, p0)
        assert defect <= 1e-3 * h_max, (
            f"set {i} (n={n}, k={k}): defect={defect:.3e} vs {1e-3 * h_max:.3e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(6, "W'(0) cancellation defect below 1e-3 * max(h) on 50 random "
               "halfspace sets (n in 2..4)", elapsed)


# -- criterion 7 -------------------------------------------------------------

def paired_lift_estimate(cfg, r, samples, seed):
    """(1/2 pi r) dV_{n+2}/dr of the union by paired-sample Monte Carlo: (value, stderr).

    The derivative is a central difference at r (1 +/- 0.01) counted on one
    common sample set in E^(n+2), so only points in the thin shell between
    the two radii contribute variance.
    """
    pts = embed(cfg, cfg.dimension + 2).points
    dr = 0.01 * r
    lo = np.min(pts, axis=0) - (r + dr)
    hi = np.max(pts, axis=0) + (r + dr)
    box = float(np.prod(hi - lo))
    (inner, outer), _ = _distance_hits(pts, lo, hi, (r - dr, r + dr), samples, seed)
    shell = (outer - inner) / samples
    scale = box / (2.0 * dr) / (2.0 * math.pi * r)
    return scale * shell, scale * math.sqrt(shell * (1.0 - shell) / samples)


def test_criterion_07_lift_identity():
    t0 = time.monotonic()
    single = PointConfiguration.from_points([[0.0, 0.0]])
    radii = [2.0, 5.0, 10.0]
    for cfg, tag in ((single, "single ball"), (TWO_DISKS, "two disks")):
        # the ODE check: the boundary two dimensions up against the volume
        reports = verify_lift_identity(cfg, radii)
        assert len(reports) == 6
        for rep in reports:
            assert rep.passed, f"{tag}: {rep.claim} gap={rep.gap} tol={rep.tolerance}"
        # the independent oracle: the same derivative by paired sampling
        union = [rep for rep in reports if rep.claim.startswith("union")]
        for k, (r, rep) in enumerate(zip(radii, union)):
            est, se = paired_lift_estimate(cfg, r, 10_000_000, 7007 + 7919 * k)
            assert abs(est - rep.rhs) <= 3.0 * se, \
                f"{tag} at r={r}: Monte Carlo {est} +/- {se} vs ODE {rep.rhs}"
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    _report(7, "lifted-derivative identity V_2 = dV_4/dr / (2 pi r): ODE against "
               "ODE within 1e-9 delta_2 r^2, and paired-sample Monte Carlo (1e7 "
               "samples) within 3 stderr, at r in {2, 5, 10}", elapsed)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_strict_mean_width_growth():
    t0 = time.monotonic()
    rng = np.random.default_rng(7008)
    violations = 0
    for k in range(100):
        dim = 2 if k % 2 == 0 else 3
        n_pts = int(rng.integers(2, 9))
        p = PointConfiguration.from_points(rng.uniform(-1, 1, size=(n_pts, dim)))
        q = random_expansion(p, seed=8000 + k,
                             magnitude=float(rng.uniform(0.05, 0.3)))
        assert not are_congruent(p, q), f"pair {k} came out congruent"
        diff, err = mean_width_difference(p, q)
        if not diff > err:
            violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    _report(8, "mean width strictly increases on 100 random non-congruent "
               "expansions (0 violations)", elapsed)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_threshold_witness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7009)
    for k in range(20):
        dim = 2 if k < 12 else 3
        n_pts = int(rng.integers(3, 6 if dim == 3 else 7))
        p = PointConfiguration.from_points(rng.uniform(-1, 1, size=(n_pts, dim)))
        q = random_expansion(p, seed=9100 + k,
                             magnitude=float(rng.uniform(0.08, 0.3)))
        if are_congruent(p, q):
            continue
        diam = max(p.diameter, q.diameter)
        res = kp_threshold(p, q, RadiusGrid(diam, 1000.0 * diam, 14))
        assert res.all_hold, f"pair {k}: volume inequality failed somewhere"
        assert res.strictness_margin > 0.0, f"pair {k}: margin not strict"
    # congruent pairs: margins are zero within 1e-9
    for shift in (np.array([3.0, -1.0]), np.array([0.0, 10.0])):
        p = PointConfiguration.from_points(rng.uniform(-1, 1, size=(4, 2)))
        q = PointConfiguration.from_points(p.points + shift)
        res = kp_threshold(p, q, RadiusGrid(2.0, 100.0, 6))
        assert abs(res.strictness_margin) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(9, "all four large-radius inequalities hold with positive margin "
               "for 20 expansion pairs up to 1000x diameter; congruent pairs "
               "report zero margin", elapsed)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_pole_structure(planar_fit_suite):
    t0 = time.monotonic()
    delta = unit_ball_volume(2)
    for rec in planar_fit_suite:
        a2 = rec["fit_u"].coefficient(2)
        assert abs(a2 - delta) <= 0.005 * delta, (
            f"{rec['name']}: leading coefficient {a2} vs {delta}")
    # bounded polytope: volume flattens, leading coefficient vanishes
    rng = np.random.default_rng(7010)
    angles = np.sort(rng.uniform(0, 2 * math.pi, 5))
    hs = tuple(Halfspace(np.array([math.cos(a), math.sin(a)]),
                         float(rng.uniform(0.4, 1.2))) for a in angles)
    poly = PolyhedralSet(2, hs)
    prof = volume_profile(poly, np.zeros(2), 2500.0)
    bp = float(prof.breakpoints[-1])
    fit = laurent_fit(prof.value, 2, 3, RadiusGrid(10.0 * bp, 1000.0 * bp))
    assert abs(fit.coefficient(2)) <= 1e-6
    elapsed = time.monotonic() - t0
    _report(10, "union profiles carry leading coefficient delta_n within 0.5%; "
                "bounded-polytope profile flattens (a_n = 0 within 1e-6)", elapsed)
