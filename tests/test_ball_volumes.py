import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from kpv import ball_volumes
from kpv.ball_volumes import (BallSystem, farthest_voronoi, mc_ball_volume,
                              nearest_voronoi)
from kpv.configurations import PointConfiguration, embed
from kpv.errors import GeometryError, InputError
from kpv.meanwidth import mean_width_edge_sum_3d, mean_width_exact_2d
from kpv.polyhedra import contains
from kpv.truncated_volume import unit_ball_volume

from conftest import lens_area, random_config, two_disk_union

TWO = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])


def test_nearest_voronoi_two_points():
    region = nearest_voronoi(TWO, 0)
    (h,) = region.halfspaces
    assert np.allclose(h.normal, [1.0, 0.0])
    assert h.offset == pytest.approx(0.5)
    assert region.feasibility_margin() > 0


def test_nearest_voronoi_single_site_is_whole_space():
    one = PointConfiguration.from_points([[2.0, 3.0]])
    region = nearest_voronoi(one, 0)
    assert region.n_halfspaces == 0


def test_nearest_voronoi_equilateral():
    tri = PointConfiguration.from_points(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    region = nearest_voronoi(tri, 0)
    assert region.n_halfspaces == 2
    center = np.array([0.5, math.sqrt(3.0) / 6.0])   # circumcenter
    assert contains(region, center)
    assert contains(region, tri.points[0])
    assert not contains(region, tri.points[1])


def test_farthest_voronoi_two_points_is_complement():
    region = farthest_voronoi(TWO, 0)
    (h,) = region.halfspaces
    assert np.allclose(h.normal, [-1.0, 0.0])
    assert h.offset == pytest.approx(-0.5)


def test_farthest_voronoi_interior_site_empty():
    five = PointConfiguration.from_points(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert farthest_voronoi(five, 4).feasibility_margin() < 0
    assert farthest_voronoi(five, 0).feasibility_margin() > 0


def test_duplicate_sites_rejected():
    dup = PointConfiguration.from_points([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeometryError):
        nearest_voronoi(dup, 0)


def test_union_volume_single_ball():
    one = PointConfiguration.from_points([[0.3, -0.7]])
    assert BallSystem(one, r_max=2.0).union_volume(2.0) == pytest.approx(
        math.pi * 4.0, rel=1e-12)


def test_two_disk_lens_oracle():
    system = BallSystem(TWO, r_max=1.0)
    assert system.union_volume(1.0) == pytest.approx(two_disk_union(1.0, 1.0), rel=1e-6)
    assert system.intersection_volume(1.0) == pytest.approx(lens_area(1.0, 1.0), rel=1e-6)


def test_disjoint_balls_add():
    far = PointConfiguration.from_points([[0.0, 0.0], [10.0, 0.0]])
    system = BallSystem(far, r_max=1.0)
    assert system.union_volume(1.0) == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert system.intersection_volume(1.0) == 0.0


def test_boundary_single_ball():
    one = PointConfiguration.from_points([[0.0, 0.0, 0.0]])
    area = BallSystem(one, r_max=2.0).union_boundary(2.0)
    assert area == pytest.approx(4.0 * math.pi * 4.0, rel=1e-12)


def test_boundary_two_disks_arc_oracle():
    # union: two arcs of 2pi - 2*arccos(1/2); intersection: two of 2*arccos(1/2)
    system = BallSystem(TWO, r_max=1.0)
    bu = system.union_boundary(1.0)
    bi = system.intersection_boundary(1.0)
    assert bu == pytest.approx(8.0 * math.pi / 3.0, rel=1e-6)
    assert bi == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundaries_are_continuous_at_every_breakpoint(n):
    # a facet enters with a square-root onset, so S moves by O(sqrt(eps)) of
    # n delta_n b^(n-1) between a breakpoint b and b (1 +- eps)
    for seed in range(3):
        p = random_config(np.random.default_rng(seed), n, 6)
        system = BallSystem(p, np.inf)
        b = system.breakpoints[system.breakpoints < 5.0 * p.diameter]
        assert b.size
        size = n * unit_ball_volume(n) * b ** (n - 1)
        for boundary in (system.union_boundary, system.intersection_boundary):
            at = boundary(b)
            assert np.all(np.isfinite(at))
            for eps in (1e-12, 1e-9):
                for side in (1.0 - eps, 1.0 + eps):
                    jump = np.abs(at - boundary(b * side))
                    assert np.all(jump <= 10.0 * math.sqrt(eps) * size), (seed, eps, side)


def test_boundaries_on_a_line_read_a_one_sided_value_at_breakpoints():
    # in one dimension S jumps where an interval's end comes free
    system = BallSystem(PointConfiguration.from_points([[0.0], [1.0], [3.0]]), np.inf)
    assert system.breakpoints.tolist() == [0.5, 1.0, 1.5]
    for b in system.breakpoints:
        for boundary in (system.union_boundary, system.intersection_boundary):
            assert boundary(b) in (boundary(b * (1 - 1e-12)), boundary(b * (1 + 1e-12)))


@pytest.mark.parametrize("s", [1e-8, 1e-4, 1e4])
def test_volumes_and_boundaries_scale_with_the_configuration(s):
    # volumes scale as s^n and boundaries as s^(n-1): no tolerance may be
    # absolute, or small configurations lose digits
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 3))
    unit = BallSystem(PointConfiguration.from_points(pts), np.inf)
    scaled = BallSystem(PointConfiguration.from_points(s * pts), np.inf)
    radii = np.array([0.37, 0.81, 1.43, 2.9]) * unit.config.diameter
    assert np.min(np.abs(unit.breakpoints[:, None] / radii - 1.0)) > 1e-3
    ball = unit_ball_volume(3) * radii ** 3
    for name, power, size in (("union_volume", 3, ball), ("intersection_volume", 3, ball),
                              ("union_boundary", 2, 3.0 * ball / radii),
                              ("intersection_boundary", 2, 3.0 * ball / radii)):
        got = getattr(scaled, name)(s * radii) / s ** power
        assert np.all(np.abs(got - getattr(unit, name)(radii)) <= 1e-13 * size), name
    # two sites 2e-6 apart are the unit pair at distance 2, scaled by 1e-6
    pair = BallSystem(PointConfiguration.from_points([[0.0, 0.0], [2e-6, 0.0]]), np.inf)
    unit_pair = BallSystem(PointConfiguration.from_points([[0.0, 0.0], [2.0, 0.0]]), np.inf)
    assert pair.intersection_boundary(1.0005e-6) == pytest.approx(
        1e-6 * unit_pair.intersection_boundary(1.0005), rel=1e-13)


@pytest.mark.parametrize("s", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]],
                                    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.8, 0.0],
                                     [0.2, 0.3, 0.7]]], ids=["triangle", "tetrahedron"])
def test_breakpoints_scale_with_the_configuration(points, s):
    # breakpoints once sat on a grid of 1e-15: at s = 1e-13 the triangle's
    # 0.56765 s read 0.5652 s, and the series starts at twice the last one
    unit = BallSystem(PointConfiguration.from_points(points), np.inf).breakpoints
    scaled = BallSystem(PointConfiguration.from_points(s * np.asarray(points)), np.inf)
    # the same breakpoint reached along two paths may differ in its last bits;
    # BallSystem keeps one of them
    near = np.abs(scaled.breakpoints[:, None] / s - unit) <= 1e-12 * unit
    assert np.all(near.any(axis=0)) and np.all(near.any(axis=1))
    assert scaled.breakpoints.size == unit.size


def test_union_bounds_and_monotonicity(rng):
    cfg = random_config(rng, 2, 4)
    system = BallSystem(cfg, r_max=6.0)
    delta = unit_ball_volume(2)
    prev_u, prev_i = 0.0, 0.0
    for r in np.linspace(0.2, 5.5, 12):
        u = system.union_volume(float(r))
        i = system.intersection_volume(float(r))
        assert i <= delta * r ** 2 * (1 + 1e-9) + 1e-12
        assert u >= delta * r ** 2 * (1 - 1e-9) - 1e-12
        assert u <= 4 * delta * r ** 2 * (1 + 1e-9)
        assert u >= prev_u - 1e-9 and i >= prev_i - 1e-9
        prev_u, prev_i = u, i


def test_mc_single_ball():
    one = PointConfiguration.from_points([[0.0, 0.0]])
    est, se = mc_ball_volume(one, 1.0, "union", 200_000, seed=4)
    assert abs(est - math.pi) <= 3.0 * se


def test_mc_two_disks():
    est, se = mc_ball_volume(TWO, 1.0, "union", 400_000, seed=5)
    assert abs(est - two_disk_union(1.0, 1.0)) <= 3.0 * se
    est_i, se_i = mc_ball_volume(TWO, 1.0, "intersection", 400_000, seed=5)
    assert abs(est_i - lens_area(1.0, 1.0)) <= 3.0 * se_i


def test_mc_empty_intersection():
    far = PointConfiguration.from_points([[0.0, 0.0], [10.0, 0.0]])
    est, se = mc_ball_volume(far, 1.0, "intersection", 50_000, seed=6)
    assert est == 0.0 and se == 0.0


def test_mc_deterministic():
    a = mc_ball_volume(TWO, 1.0, "union", 100_000, seed=9)
    b = mc_ball_volume(TWO, 1.0, "union", 100_000, seed=9)
    assert a == b


def _mc_per_site_loop(p, r, samples, seed):
    """The per-site Monte Carlo loop the blocked counter replaced: its oracle.

    Same draws (default_rng(seed).uniform over the box, 500,000 rows at a
    time); every site's squared distances come from np.sum(axis=1).
    """
    pts = p.points
    lo = np.min(pts, axis=0) - r
    hi = np.max(pts, axis=0) + r
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits_any = hits_all = done = 0
    while done < samples:
        m = min(500_000, samples - done)
        x = rng.uniform(lo, hi, size=(m, p.dimension))
        inside_any = np.zeros(m, dtype=bool)
        inside_all = np.ones(m, dtype=bool)
        for site in pts:
            d2 = np.sum((x - site) ** 2, axis=1)
            np.logical_or(inside_any, d2 <= r * r, out=inside_any)
            np.logical_and(inside_all, d2 <= r * r, out=inside_all)
        hits_any += int(np.count_nonzero(inside_any))
        hits_all += int(np.count_nonzero(inside_all))
        done += m
    out = {}
    for name, hits in (("union", hits_any), ("intersection", hits_all)):
        frac = hits / samples
        out[name] = (box * frac, box * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_mc_matches_per_site_loop(dim):
    # sample counts around one counting block (16,384), and a single sample
    rng = np.random.default_rng(50 + dim)
    for n_pts in (1, 2, 5, 9):
        cfg = random_config(rng, dim, n_pts)
        for samples in (1, 7, 16383, 16384, 16385):
            for r in (0.01, 0.7, 3.0):
                assert mc_ball_volume(cfg, r, "both", samples, 11) == \
                    _mc_per_site_loop(cfg, r, samples, 11), (n_pts, samples, r)


@pytest.mark.parametrize("dim, n_pts, r", [
    (1, 1, 0.7), (2, 5, 0.7), (3, 2, 3.0), (4, 5, 0.01), (5, 9, 0.7)])
def test_mc_matches_per_site_loop_across_chunks(dim, n_pts, r):
    # one sample past a 500,000-row chunk, and exactly two chunks
    cfg = random_config(np.random.default_rng(60 + dim), dim, n_pts)
    for samples in (500_001, 1_000_000):
        assert mc_ball_volume(cfg, r, "both", samples, 13) == \
            _mc_per_site_loop(cfg, r, samples, 13)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_mc_samples_are_generator_uniform_draws(seed, monkeypatch):
    # lo + (hi - lo) u from Generator.random is Generator.uniform(lo, hi), bit for bit
    lo, hi = np.array([-1.3, 0.2, -7.0]), np.array([2.1, 0.2000001, 5.5])
    u = np.random.default_rng(seed).random((1000, 3))
    assert np.array_equal(lo + (hi - lo) * u,
                          np.random.default_rng(seed).uniform(lo, hi, (1000, 3)))
    # and the counter draws them so across chunk and block boundaries
    monkeypatch.setattr(ball_volumes, "MC_CHUNK", 1000)
    monkeypatch.setattr(ball_volumes, "MC_BLOCK", 300)
    cfg = random_config(np.random.default_rng(70 + seed), 3, 4)
    for samples in (999, 1000, 2501):
        assert mc_ball_volume(cfg, 0.8, "both", samples, seed) == \
            _mc_per_site_loop(cfg, 0.8, samples, seed), samples


def test_mc_zero_hits_and_halves_of_both():
    far = PointConfiguration.from_points([[0.0, 0.0], [10.0, 0.0]])
    both = mc_ball_volume(far, 1.0, "both", 16385, seed=3)
    assert both == _mc_per_site_loop(far, 1.0, 16385, 3)
    assert both["intersection"] == (0.0, 0.0)
    for which in ("union", "intersection"):
        assert mc_ball_volume(far, 1.0, which, 16385, seed=3) == both[which]
        assert mc_ball_volume(TWO, 0.7, which, 40_000, seed=8) == \
            mc_ball_volume(TWO, 0.7, "both", 40_000, seed=8)[which]


def test_ode_vs_mc_random_configs(rng):
    for dim in (2, 3):
        cfg = random_config(rng, dim, 4)
        diam = cfg.diameter
        system = BallSystem(cfg, r_max=2.6 * diam)
        for r in (0.8 * diam, 1.5 * diam, 2.5 * diam):
            for which, ode in (("union", system.union_volume(r)),
                               ("intersection", system.intersection_volume(r))):
                est, se = mc_ball_volume(cfg, r, which, 300_000, seed=31)
                if se == 0.0:
                    assert abs(ode - est) <= 1e-9 * max(1.0, est)
                else:
                    assert abs(ode - est) <= 3.5 * se


def test_methods_dispatch():
    _, stderr = mc_ball_volume(TWO, 1.0, "union", 50_000, seed=1)
    assert stderr > 0


def test_laurent_coefficients_planar_hull_perimeter(rng):
    # a_1 = +/- the hull perimeter, a_2 = pi for both families
    for _ in range(5):
        cfg = random_config(rng, 2, int(rng.integers(2, 8)))
        system = BallSystem(cfg, r_max=np.inf)
        perimeter = mean_width_exact_2d(cfg).value
        for which, sign in (("union", 1.0), ("intersection", -1.0)):
            lead, second = system.laurent_coefficients(which)
            assert lead == pytest.approx(math.pi, abs=1e-10)
            assert second == pytest.approx(sign * perimeter, abs=1e-10 * perimeter)


def test_laurent_coefficients_spatial_edge_sum(rng):
    # M_3 = sum(beta * d) / 2 for a full-dimensional hull
    for _ in range(4):
        cfg = random_config(rng, 3, int(rng.integers(4, 7)))
        system = BallSystem(cfg, r_max=np.inf)
        m = mean_width_edge_sum_3d(cfg).value
        assert system.laurent_coefficients("union")[1] == pytest.approx(m, abs=1e-10 * m)
        assert system.laurent_coefficients("intersection")[1] == pytest.approx(
            -m, abs=1e-10 * m)


def test_laurent_leading_coefficient_needs_tail():
    # the quadrature reaches infinity only past twice the last breakpoint (0.5)
    system = BallSystem(TWO, r_max=0.8)
    with pytest.raises(InputError):
        system.laurent_coefficients("union")
    with pytest.raises(InputError):
        BallSystem(TWO, r_max=np.inf).laurent_coefficients("both")


def _hexagon():
    angles = np.linspace(0.0, 2.0 * math.pi, 7)[:-1] + 0.3
    return np.column_stack((np.cos(angles), 0.7 * np.sin(angles)))


_STEINER_CASES = {
    **{f"2d-N{N}": (np.random.default_rng([31, N]).uniform(-1, 1, (N, 2)), 2)
       for N in (3, 6, 12)},
    **{f"3d-N{N}": (np.random.default_rng([31, N]).uniform(-1, 1, (N, 3)), 3)
       for N in (4, 7, 12)},
    "square": (np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), 2),
    "cube": (np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
                      dtype=float), 3),
    "flat-triangle": (np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1e-3]]), 2),
    "3d-N5-far": (np.array([[-0.48, -0.4, 0.63], [-0.82, 0.2, 0.46], [-0.62, -0.89, -0.45],
                            [0.31, 0.12, -0.7], [-0.13, 0.34, -0.15]]), 3),
    "hexagon-in-E3": (_hexagon(), 3),
    "hexagon-in-E4": (_hexagon(), 4),
}


@pytest.mark.parametrize("name", list(_STEINER_CASES))
def test_third_coefficient_is_the_steiner_term(name):
    # a_(n-2) = kappa_(n-2) V_2(conv X) for the union and the intersection:
    # the hull area in 2-d, the hull surface area in 3-d (kappa_1 V_2), and
    # kappa_(n-2) times the area of a planar hull placed in E^n
    points, n = _STEINER_CASES[name]
    hull = ConvexHull(points)
    if points.shape[1] == n == 3:
        steiner = hull.area
    else:
        steiner = unit_ball_volume(n - 2) * hull.volume
    cfg = PointConfiguration.from_points(points)
    system = BallSystem(cfg if points.shape[1] == n else embed(cfg, n), r_max=np.inf)
    for which in ("union", "intersection"):
        coeffs = system.laurent_coefficients(which, 3)
        assert abs(coeffs[2] - steiner) <= 1e-10 * steiner, which


@pytest.mark.parametrize("dim, n_pts", [(2, 3), (2, 6), (3, 4)])
def test_full_series_leaves_the_next_order(dim, n_pts):
    # with all n + 1 coefficients subtracted, V(r) - sum a_(n-k) r^(n-k) is
    # O(1/r): r times it barely moves between 10 R and 30 R, R the last breakpoint
    cfg = random_config(np.random.default_rng([32, dim, n_pts]), dim, n_pts)
    system = BallSystem(cfg, r_max=np.inf)
    r = 10.0 * float(system.breakpoints[-1]) * np.array([1.0, 3.0])
    for which, volume in (("union", system.union_volume),
                          ("intersection", system.intersection_volume)):
        coeffs = system.laurent_coefficients(which, dim + 1)
        series = sum(c * r ** (dim - k) for k, c in enumerate(coeffs))
        rest = r * (volume(r) - series)
        assert abs(rest[1] - rest[0]) < 0.01 * abs(rest[0]), which


@pytest.mark.parametrize("dim, n_pts", [(2, 3), (2, 7), (3, 4), (3, 7)])
def test_intersection_series_is_the_union_series_at_minus_s(dim, n_pts):
    # W_intersection(s) = W_union(-s): a_(n-k) agrees for even k and flips
    # sign for odd k (k = 1 is the Csikos cancellation)
    system = BallSystem(random_config(np.random.default_rng([33, dim, n_pts]), dim, n_pts),
                        r_max=np.inf)
    union = np.array(system.laurent_coefficients("union", dim + 1))
    inter = np.array(system.laurent_coefficients("intersection", dim + 1))
    signs = (-1.0) ** np.arange(dim + 1)
    assert inter == pytest.approx(signs * union, rel=1e-12, abs=1e-12 * union[0])


def test_laurent_coefficients_terms_range():
    system = BallSystem(TWO, r_max=np.inf)
    assert len(system.laurent_coefficients("union", 1)) == 1
    assert system.laurent_coefficients("union", 3) == pytest.approx([math.pi, 2.0, 0.0],
                                                                    abs=1e-12)
    for terms in (0, 4):
        with pytest.raises(InputError):
            system.laurent_coefficients("union", terms)


def test_two_disk_series_past_order_n_sums_to_the_union():
    # the binomials of the face recursion take negative integer upper
    # arguments past order n + 1, where scipy.special.binom gave NaN
    system = BallSystem(TWO, r_max=np.inf)
    w = sum(prof.taylor(12) for prof in system.nearest_profiles)
    assert np.all(np.isfinite(w))
    r = 10.0
    series = sum(c * r ** (2 - k) for k, c in enumerate(w))
    assert series == pytest.approx(two_disk_union(1.0, r), rel=1e-12)


@pytest.mark.parametrize("dim, n_pts", [(2, 12), (3, 8)])
def test_sites_far_from_origin_match_unshifted(dim, n_pts):
    # facet tolerances scale with the halfspace offsets: these sites shifted
    # by 1e6 used to raise "facet dimension numerically ambiguous"
    base = np.random.default_rng(5).uniform(-1.0, 1.0, (n_pts, dim))
    near = BallSystem(PointConfiguration.from_points(base), np.inf)
    far = BallSystem(PointConfiguration.from_points(base + 1e6), np.inf)
    assert far.config.points[0, 0] > 1e6 - 1          # the system keeps its input
    radii = np.linspace(0.6, 3.0, 9) * far.config.diameter
    # coordinates of 1e6 leave about 1e-10 of relative precision in the sites
    for values in ("union_volume", "intersection_volume", "union_boundary",
                   "intersection_boundary"):
        expected = getattr(near, values)(radii)
        assert np.all(expected > 0)
        assert getattr(far, values)(radii) == pytest.approx(expected, rel=1e-8)
    for which in ("union", "intersection"):
        assert far.laurent_coefficients(which) == pytest.approx(
            near.laurent_coefficients(which), rel=1e-8)
