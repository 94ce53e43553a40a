import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpv.configurations import PointConfiguration, embed, random_expansion
from kpv.errors import GeometryError, InputError
from kpv.meanwidth import (calibrate, mean_width_edge_sum_3d, mean_width_exact,
                           mean_width_exact_2d, mean_width_quadrature,
                           reference_mean_width)
from kpv.truncated_volume import unit_ball_volume

from conftest import placed, random_config, random_orthogonal

TET_BETA = math.pi - math.acos(1.0 / 3.0)        # regular tetrahedron, edge 1


def unit_tetrahedron():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float) / math.sqrt(8.0)
    return PointConfiguration.from_points(pts)


def unit_cube():
    pts = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
                   dtype=float)
    return PointConfiguration.from_points(pts)


def test_quadrature_single_point_is_zero():
    cfg = PointConfiguration.from_points([[0.0, 0.0]])
    assert mean_width_quadrature(cfg, 128).value == 0.0
    cfg3 = PointConfiguration.from_points([[0.0, 0.0, 0.0]])
    assert mean_width_quadrature(cfg3, 1001, seed=4).value == pytest.approx(0.0, abs=1e-12)


def test_quadrature_diamond():
    cfg = PointConfiguration.from_points([[1, 0], [-1, 0], [0, 1], [0, -1]])
    res = mean_width_quadrature(cfg, 4096)
    want = 4.0 * math.sqrt(2.0)
    assert abs(res.value - want) <= 3.0 * res.stderr


def test_quadrature_segment():
    cfg = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
    res = mean_width_quadrature(cfg, 4096)
    assert abs(res.value - 2.0) <= 3.0 * res.stderr


def test_quadrature_segment_3d_matches_ball_slice():
    # closed form: integral of max(0, u1) over S^2 equals pi (= delta_2)
    cfg = PointConfiguration.from_points([[0, 0, 0], [1, 0, 0]])
    res = mean_width_quadrature(cfg, 400_000, seed=8)
    assert abs(res.value - math.pi) <= 3.0 * res.stderr
    assert res.stderr < 0.01


def test_exact2d_square_perimeter():
    cfg = PointConfiguration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    res = mean_width_exact_2d(cfg)
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.stderr <= 1e-14 and res.method == "exact"


def test_exact2d_segment_counts_twice():
    cfg = PointConfiguration.from_points([[0.0, 0.0], [3.0, 0.0]])
    assert mean_width_exact_2d(cfg).value == pytest.approx(6.0)


def test_exact2d_point():
    cfg = PointConfiguration.from_points([[0.4, 0.2]])
    assert mean_width_exact_2d(cfg).value == 0.0


@pytest.mark.parametrize("pts, want", [
    ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], 4.0),     # interior point
    ([[1, 1], [0, 0], [0, 1], [1, 0]], 4.0),                 # any vertex order
    ([[0, 0], [1, 1], [2, 2]], 4.0 * math.sqrt(2.0)),        # collinear: segment
    ([[0, 0], [0, 0], [3, 0], [1.5, 0]], 6.0),               # repeated, collinear
    ([[0.5, 0.5]] * 3, 0.0),                                 # one point thrice
], ids=["interior", "unordered", "collinear", "repeated", "coincident"])
def test_exact_planar_hulls(pts, want):
    assert mean_width_exact(PointConfiguration.from_points(pts)).value == pytest.approx(
        want, rel=1e-12, abs=1e-15)


def test_exact_invariant_under_permutation(rng):
    pts = rng.uniform(-1, 1, size=(12, 2))
    base = mean_width_exact(PointConfiguration.from_points(pts)).value
    other = mean_width_exact(PointConfiguration.from_points(pts[rng.permutation(12)])).value
    assert other == pytest.approx(base, rel=1e-14)


def test_exact_polytopes_in_closed_form():
    # Kubota with kappa_2 = pi: M_3 = sum(beta * d) / 2
    tet = mean_width_exact(unit_tetrahedron())
    assert tet.value == pytest.approx(6.0 * TET_BETA * math.pi / (2.0 * math.pi), rel=1e-12)
    assert tet.method == "exact" and tet.nodes_used == 0 and not tet.seeded
    assert mean_width_exact(unit_cube()).value == pytest.approx(3.0 * math.pi, rel=1e-12)
    # a point on a face splits it into coplanar triangles, whose edges add nothing
    face_point = np.vstack([unit_cube().points, [[0.5, 0.5, 1.0]]])
    assert mean_width_exact(PointConfiguration.from_points(face_point)).value == (
        pytest.approx(3.0 * math.pi, rel=1e-12))


def test_exact_flat_and_collinear_sets_in_3d():
    # unit square: V_1 = 2, M_3 = pi * 2; segment of length 2: V_1 = 2, M_3 = 2 pi
    square = PointConfiguration.from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert mean_width_exact(square).value == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert mean_width_edge_sum_3d(square).value == pytest.approx(2.0 * math.pi, rel=1e-12)
    seg = PointConfiguration.from_points([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    assert mean_width_exact(seg).value == pytest.approx(2.0 * math.sqrt(3.0) * math.pi,
                                                        rel=1e-12)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_exact_matches_quadrature_in_higher_dimensions(k, n):
    rng = np.random.default_rng([17, k, n])
    cfg = placed(rng, rng.uniform(-1, 1, (7, k)), n)
    exact = mean_width_exact(cfg)
    quad = mean_width_quadrature(cfg, 200_000, seed=k * 10 + n)
    assert abs(exact.value - quad.value) <= 3.0 * quad.stderr


def test_exact_refuses_rank_four():
    with pytest.raises(GeometryError):
        mean_width_exact(PointConfiguration.from_points(np.vstack([np.zeros(4), np.eye(4)])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), extra=st.integers(0, 3), n_pts=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_depends_only_on_the_flat(k, extra, n_pts, seed):
    # Kubota: M_n / kappa_(n-1) = V_1 is the same in every dimension
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n_pts, k))
    n = k + extra
    own = mean_width_exact(PointConfiguration.from_points(pts)).value
    moved = mean_width_exact(placed(rng, pts, n)).value
    want = unit_ball_volume(n - 1) / unit_ball_volume(k - 1) * own
    assert moved == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_edge_sum_cube_vs_quadrature():
    es = mean_width_edge_sum_3d(unit_cube())
    q = mean_width_quadrature(unit_cube(), 200_000, seed=5)
    assert abs(es.value - q.value) <= 3.0 * math.hypot(es.stderr, q.stderr)
    # closed form: M_3[unit cube] = 3 pi with this normalization
    assert es.value == pytest.approx(3.0 * math.pi, rel=1e-12)


def test_edge_sum_tetrahedron_symmetry():
    res = mean_width_edge_sum_3d(unit_tetrahedron())
    assert res.value == pytest.approx(calibrate(3, 3) * 6.0 * TET_BETA, rel=1e-12)


def test_edge_sum_scales_linearly():
    lam = 2.5
    scaled = PointConfiguration.from_points(lam * unit_tetrahedron().points)
    assert mean_width_edge_sum_3d(scaled).value == pytest.approx(
        lam * mean_width_edge_sum_3d(unit_tetrahedron()).value, rel=1e-9)


def test_calibrate_identities_and_oracles():
    assert calibrate(2, 2) == 1.0
    assert calibrate(4, 4) == 1.0
    c23 = calibrate(2, 3)
    assert c23 == pytest.approx(math.pi / 2.0, rel=5e-3)
    c24 = calibrate(2, 4)
    assert c24 == pytest.approx(2.0 * math.pi / 3.0, rel=5e-3)
    # cube residual against the closed form 3 pi at the calibration node count
    c33 = calibrate(3, 3)
    assert c33 * 6.0 * math.pi == pytest.approx(3.0 * math.pi, rel=1e-3)


def test_calibrate_closed_forms():
    # Kubota: int_{S^(n-1)} h_K = kappa_(n-1) V_1(K)
    for n in (3, 4):
        kappa = unit_ball_volume(n - 1)
        assert calibrate(2, n) == kappa / 2.0
        assert calibrate(3, n) == kappa / (2.0 * math.pi)
    assert calibrate(3, 3) == pytest.approx(0.5, abs=1e-15)


def test_calibrate_rejects_unsupported():
    with pytest.raises(InputError):
        calibrate(1, 2)
    with pytest.raises(InputError):
        calibrate(3, 5)


def test_isometry_invariance(rng):
    cfg = random_config(rng, 3, 7)
    moved = PointConfiguration.from_points(
        cfg.points @ random_orthogonal(rng, 3).T + rng.uniform(-3, 3, 3))
    a = mean_width_quadrature(cfg, 100_000, seed=2)
    b = mean_width_quadrature(moved, 100_000, seed=3)
    assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr)
    ea = mean_width_edge_sum_3d(cfg)
    eb = mean_width_edge_sum_3d(moved)
    assert ea.value == pytest.approx(eb.value, rel=1e-9)


def test_homogeneity_exact2d(rng):
    cfg = random_config(rng, 2, 8)
    lam = 3.25
    scaled = PointConfiguration.from_points(lam * cfg.points)
    assert mean_width_exact_2d(scaled).value == pytest.approx(
        lam * mean_width_exact_2d(cfg).value, rel=1e-12)


def test_monotone_under_insertion(rng):
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(6, 2))
        base = mean_width_exact_2d(PointConfiguration.from_points(pts[:5])).value
        more = mean_width_exact_2d(PointConfiguration.from_points(pts)).value
        assert more >= base - 1e-12


def test_cross_method_2d_small_batch(rng):
    for _ in range(10):
        cfg = random_config(rng, 2, int(rng.integers(2, 9)))
        exact = mean_width_exact_2d(cfg)
        quad = mean_width_quadrature(cfg, 2048)
        assert abs(exact.value - quad.value) <= 3.0 * quad.stderr


def test_expansion_monotonicity_small_batch(rng):
    for k in range(10):
        cfg = random_config(rng, 2, int(rng.integers(3, 7)))
        out = random_expansion(cfg, seed=100 + k, magnitude=0.25)
        assert mean_width_exact_2d(out).value >= mean_width_exact_2d(cfg).value - 1e-12


def test_quadrature_result_invariants(rng):
    cfg = random_config(rng, 3, 5)
    res = mean_width_quadrature(cfg, 5000, seed=1)
    assert res.value >= 0.0
    assert res.stderr > 0.0
    assert res.nodes_used >= 5000
    # the sphere is sampled; the planar trapezoid reads no seed
    assert res.seeded
    assert not mean_width_quadrature(random_config(rng, 2, 5), 64, seed=1).seeded


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10])
def test_reference_rank_test_is_relative_to_the_extent(s):
    # the triangle's perimeter / pi times pi: its exact mean width at any scale
    tri = PointConfiguration.from_points(s * np.array([[0, 0], [1, 0], [0.3, 0.8]]))
    ref = reference_mean_width(tri)
    assert ref.method == "exact"
    assert ref.value == pytest.approx(2.917414955805219 * s, rel=1e-13)
