"""The integrating-factor quadrature against exact references.

Closed forms here are written to keep full relative precision near their
onsets (phi - sin(phi) by its series for small phi), so they can check the
profiles to 1e-12 relative right above a breakpoint.
"""

import math

import numpy as np
import pytest

from kpv.asymptotics import verify_lift_identity
from kpv.ball_volumes import BallSystem
from kpv.configurations import PointConfiguration, embed
from kpv.errors import GeometryError
from kpv.meanwidth import reference_mean_width
from kpv.polyhedra import Halfspace, PolyhedralSet
from kpv import truncated_volume
from kpv.truncated_volume import mc_truncated_volume, unit_ball_volume, volume_profile

REL = 1e-12


def phi_minus_sin(phi: float) -> float:
    """phi - sin(phi) without cancellation for small phi."""
    if phi > 1.0:
        return phi - math.sin(phi)
    term, total, k = phi ** 3 / 6.0, 0.0, 3
    while abs(term) > 1e-18 * abs(total) or total == 0.0:
        total += term
        term *= -phi * phi / ((k + 1) * (k + 2))
        k += 2
    return total


def cap_angle(h: float, r: float) -> float:
    """2 acos(h / r), accurate for r just above h."""
    return 2.0 * math.atan2(math.sqrt((r - h) * (r + h)), h)


def halfplane_area(h: float, r: float) -> float:
    """{x1 <= h} cut with the disk of radius r about the origin."""
    if r <= h:
        return math.pi * r * r
    return math.pi * r * r - 0.5 * r * r * phi_minus_sin(cap_angle(h, r))


def lens(d: float, r: float) -> float:
    """Intersection of two disks of radius r at centre distance d."""
    if 2.0 * r <= d:
        return 0.0
    return r * r * phi_minus_sin(cap_angle(0.5 * d, r))


def polygon_disk_area(vertices: np.ndarray, centre: np.ndarray, r: float) -> float:
    """Area of a convex polygon (counterclockwise) cut with a disk, by Green's theorem.

    Each edge contributes the signed area of its fan triangle from the centre
    cut with the disk: straight pieces inside the circle, sectors outside.
    """
    total = 0.0
    pts = vertices - centre
    for a, b in zip(pts, np.roll(pts, -1, axis=0)):
        d = b - a
        qa, qb, qc = d @ d, 2.0 * (a @ d), a @ a - r * r
        cuts = [0.0, 1.0]
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0.0:
            root = math.sqrt(disc)
            cuts += [s for s in ((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)) if 0 < s < 1]
        cuts.sort()
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            p, q = a + s0 * d, a + s1 * d
            cross = p[0] * q[1] - p[1] * q[0]
            if np.linalg.norm(0.5 * (p + q)) <= r:
                total += 0.5 * cross
            else:
                total += 0.5 * r * r * math.atan2(cross, p @ q)
    return total


def polygon_set(vertices: np.ndarray) -> PolyhedralSet:
    hs = []
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        normal = np.array([b[1] - a[1], a[0] - b[0]])      # outward for ccw order
        hs.append(Halfspace(normal, float(normal @ a)))
    return PolyhedralSet(2, tuple(hs))


def radii_around(breakpoints, lo: float, hi: float) -> np.ndarray:
    above = [b * (1.0 + f) for b in breakpoints for f in (1e-7, 1e-4, 1e-2)]
    return np.concatenate([np.geomspace(lo, hi, 200), above])


def test_halfplane_matches_closed_form_to_all_radii():
    P = PolyhedralSet(2, (Halfspace(np.array([1.0, 0.0]), 1.0),))
    prof = volume_profile(P, np.zeros(2), np.inf)
    radii = radii_around([1.0], 0.01, 1e4)
    got = prof.value(radii)
    want = np.array([halfplane_area(1.0, r) for r in radii])
    assert np.max(np.abs(got - want) / want) <= REL


def test_complement_halfplane_matches_closed_form_to_all_radii():
    # base point outside: the profile rises from zero at r = 1
    P = PolyhedralSet(2, (Halfspace(np.array([-1.0, 0.0]), -1.0),))
    prof = volume_profile(P, np.zeros(2), np.inf)
    radii = radii_around([1.0], 1.0, 1e4)[1:]
    got = prof.value(radii)
    want = np.array([0.5 * r * r * phi_minus_sin(cap_angle(1.0, r)) for r in radii])
    assert np.max(np.abs(got - want) / want) <= REL
    assert prof.value(0.999) == 0.0


@pytest.mark.parametrize("pts", [[[0.0, 0.0], [1.0, 0.0]],
                                 [[0.25, -0.125], [0.25, 0.25]]])
def test_two_disks_match_closed_forms_to_all_radii(pts):
    # binary-exact sites, so the bisector distance d/2 carries no rounding:
    # the lens grows like (r - d/2)^(3/2), and a rounded breakpoint would
    # move it by more than 1e-12 relative this close to the onset
    pts = np.asarray(pts)
    d = float(np.linalg.norm(pts[1] - pts[0]))
    system = BallSystem(PointConfiguration.from_points(pts), r_max=np.inf)
    radii = radii_around(system.breakpoints, 0.01 * d, 1e4 * d)
    union = system.union_volume(radii)
    inter = system.intersection_volume(radii)
    want_i = np.array([lens(d, r) for r in radii])
    want_u = 2.0 * math.pi * radii ** 2 - want_i
    assert np.max(np.abs(union - want_u) / want_u) <= REL
    hit = want_i > 0.0
    assert np.all(inter[~hit] == 0.0)
    assert np.max(np.abs(inter[hit] - want_i[hit]) / want_i[hit]) <= REL


@pytest.mark.parametrize("centre, above", [([1e-5, 2e-5], 1e-6), ([1.3, 0.4], 1e-2)])
def test_clustered_breakpoints_match_greens_theorem(centre, above):
    # a regular 12-gon about a point 2e-5 off its centre: the 12 edge
    # distances and the 12 vertex distances each cluster within ~4e-5, so
    # pieces must split between breakpoints.  The second base point lies
    # outside, where V rises like (r - reach)^(3/2): there the rounding of
    # the breakpoints themselves (~1e-16) limits how close above them the
    # reference can be matched to 1e-12
    angles = 2.0 * np.pi * np.arange(12) / 12.0
    vertices = np.column_stack((np.cos(angles), np.sin(angles)))
    p0 = np.asarray(centre)
    prof = volume_profile(polygon_set(vertices), p0, np.inf)
    bps = prof.breakpoints
    radii = np.concatenate([np.linspace(0.5 * bps[0], 1.2 * bps[-1], 300),
                            0.5 * (bps[:-1] + bps[1:]), bps * (1.0 + above)])
    got = prof.value(radii)
    want = np.array([polygon_disk_area(vertices, p0, r) for r in radii])
    # the reference sums O(r^2) sectors and triangles: that rounding is its floor
    floor = 1e-15 * radii ** 2
    assert np.all(got[want <= floor] == 0.0)
    assert np.all(np.abs(got - want) <= REL * want + floor)
    # far out, V = r^2 W(1/r) keeps the constant area as r^2 times a
    # difference of O(1) terms, so rounding grows like eps r^2 / area
    area = 0.5 * 12 * math.sin(2.0 * math.pi / 12)
    assert prof.value(1e4) == pytest.approx(area, rel=1e-7)


def test_step_control_splits_more_under_tighter_tolerance(monkeypatch):
    # the quadrature serves dimension >= 3 (planar faces have a closed form):
    # a cube about a point just off its centre, with clustered breakpoints
    P = PolyhedralSet(3, tuple(Halfspace(s * e, 1.0) for e in np.eye(3) for s in (1.0, -1.0)))
    p0 = np.array([1e-5, 2e-5, -3e-5])
    monkeypatch.setattr(truncated_volume, "RTOL", 1e-4)
    loose = volume_profile(P, p0, np.inf)
    monkeypatch.setattr(truncated_volume, "RTOL", 1e-13)
    tight = volume_profile(P, p0, np.inf)
    assert tight.pieces.t_lo.size > loose.pieces.t_lo.size


def test_spatial_region_matches_monte_carlo():
    rng = np.random.default_rng(11)
    normals = rng.standard_normal((5, 3))
    P = PolyhedralSet(3, tuple(Halfspace(v, float(c))
                               for v, c in zip(normals, rng.uniform(0.3, 1.0, 5))))
    p0 = np.array([0.05, -0.1, 0.02])
    prof = volume_profile(P, p0, np.inf)
    for k, r in enumerate((0.6, 1.5, 3.0)):
        est, se = mc_truncated_volume(P, p0, r, 400_000, seed=40 + k)
        assert abs(prof.value(r) - est) <= 4.0 * se


def test_array_evaluation_equals_scalar_path():
    rng = np.random.default_rng(5)
    P2 = PolyhedralSet(2, tuple(Halfspace(v, 0.7) for v in rng.standard_normal((4, 2))))
    P3 = PolyhedralSet(3, tuple(Halfspace(v, 0.7) for v in rng.standard_normal((4, 3))))
    for P in (P2, P3):
        prof = volume_profile(P, np.zeros(P.dimension), np.inf)
        radii = np.concatenate([[0.0, -1.0], np.geomspace(0.05, 1e3, 97)])
        values = prof.value(radii)
        slopes = prof.derivative(radii)
        assert values.shape == slopes.shape == radii.shape
        for r, v, s in zip(radii, values, slopes):
            assert v == prof.value(float(r))
            assert s == prof.derivative(float(r))


def test_derivative_is_boundary_length_of_halfplane():
    # dV/dr of {x1 <= 1} cut with a disk is the arc length inside it
    P = PolyhedralSet(2, (Halfspace(np.array([1.0, 0.0]), 1.0),))
    prof = volume_profile(P, np.zeros(2), np.inf)
    radii = np.array([0.5, 1.0 + 1e-6, 2.0, 50.0, 3e3])
    want = [2.0 * math.pi * r - r * cap_angle(1.0, r) if r > 1 else 2.0 * math.pi * r
            for r in radii]
    np.testing.assert_allclose(prof.derivative(radii), want, rtol=1e-11)


def test_ball_system_arrays_equal_per_radius_calls():
    cfg = PointConfiguration.from_points([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0],
                                          [0.3, 0.9, 0.1], [0.4, 0.3, 0.8]])
    system = BallSystem(cfg, r_max=5.0)
    radii = system.off_breakpoint(np.linspace(0.1, 4.9, 23))
    assert radii.shape == (23,)
    for name in ("union_volume", "intersection_volume",
                 "union_boundary", "intersection_boundary"):
        method = getattr(system, name)
        batch = method(radii)
        assert batch.shape == radii.shape
        assert batch.tolist() == [method(float(r)) for r in radii]
    for r, nudged in zip(np.linspace(0.1, 4.9, 23), radii):
        assert system.off_breakpoint(float(r)) == nudged


def test_ball_system_array_rejects_a_breakpoint_radius():
    system = BallSystem(PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]]),
                        r_max=2.0)
    with pytest.raises(GeometryError, match="radius 0.5 sits on"):
        system.union_boundary(np.array([0.3, 0.5, 1.2]))


def test_unbounded_profile_covers_every_radius():
    cfg = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])
    system = BallSystem(cfg, r_max=np.inf)
    delta = unit_ball_volume(2)
    for r in (1e2, 1e5, 1e8):
        assert delta * r * r < system.union_volume(r) < 3.0 * delta * r * r
        assert 0.0 < system.intersection_volume(r) < delta * r * r


# Sites in a lower flat give farthest regions whose faces' sub-profiles rise
# from zero at the same radius.  Just past such an onset the rounding of
# sqrt(t^2 - h^2) moves the tiny V_i by eps * rho * V_i'; unless the face-term
# error counts it, the quadrature halves those pieces until it gives up
# ("profile quadrature does not converge").
def tied_onset_sets():
    rng = np.random.default_rng(5)
    draws = [rng.uniform(-1.0, 1.0, size) for size in ((4, 3), (6, 2), (4, 3), (6, 2))]
    return {"3d-N4": draws[0], "2d-N6": draws[3]}


@pytest.mark.parametrize("name", ["3d-N4", "2d-N6"])
def test_tied_onsets_lifted_two_dimensions_build(name):
    p = PointConfiguration.from_points(tied_onset_sets()[name])
    BallSystem(embed(p, p.dimension + 2), np.inf)
    reports = verify_lift_identity(p, [2.0 * p.diameter, 5.0 * p.diameter])
    for rep in reports:
        assert rep.gap <= REL * abs(rep.rhs), rep.claim


def test_tied_onsets_lifted_one_dimension_build():
    q = embed(PointConfiguration.from_points(tied_onset_sets()["2d-N6"]), 3)
    system = BallSystem(q, np.inf)
    ref = reference_mean_width(q)
    m = ref.value
    assert ref.method == "exact"
    assert system.laurent_coefficients("union")[1] == pytest.approx(m, rel=REL)
    assert system.laurent_coefficients("intersection")[1] == pytest.approx(-m, rel=REL)


# The closed form of planar profiles against the quadrature, which is
# dimension-generic and serves dimension >= 3: run on the same facets, knotted
# at the same breakpoints, it is the oracle.
@pytest.mark.parametrize("n_pts", [6, 12, 30])
def test_planar_closed_form_matches_the_quadrature(n_pts):
    p = PointConfiguration.from_points(np.random.default_rng(n_pts).uniform(-1, 1, (n_pts, 2)))
    system = BallSystem(p, np.inf)
    radii = np.geomspace(0.05, 40.0 * p.diameter, 400)
    regions = [prof for prof in system.nearest_profiles + system.farthest_profiles
               if prof is not None]
    assert any(prof.omega == 0.0 for prof in regions)
    for prof in regions:
        closed, _ = prof.pieces.integral(radii)
        oracle, _ = truncated_volume._quadrature(prof.faces, 2, prof.breakpoints,
                                                 prof.r_max, prof.reach).integral(radii)
        # V = r^2 (omega pi - I)
        assert np.max(np.abs(closed - oracle)) <= 1e-13 * math.pi


def test_planar_onsets_array_equals_scalar_path():
    # a farthest region (omega = 0) rises from zero past its onset, where the
    # closed form switches per radius to its shifted, cancellation-free form
    p = PointConfiguration.from_points(np.random.default_rng(3).uniform(-1, 1, (6, 2)))
    prof = next(prof for prof in BallSystem(p, np.inf).farthest_profiles if prof is not None)
    assert prof.omega == 0.0
    steps = 10.0 ** -np.arange(2, 11)
    radii = np.concatenate([b * (1.0 + sign * steps)
                            for b in prof.breakpoints for sign in (1.0, -1.0)])
    values = prof.value(radii)
    slopes = prof.derivative(radii)
    assert np.any(values == 0.0) and prof.value(prof.reach * (1.0 + 1e-10)) > 0.0
    for r, v, s in zip(radii, values, slopes):
        assert v == prof.value(float(r))
        assert s == prof.derivative(float(r))


@pytest.mark.parametrize("dim, n_pts", [(2, 12), (3, 8)])
def test_ball_systems_run_no_planar_quadrature(monkeypatch, dim, n_pts):
    dims = []
    integrate = truncated_volume._integrate

    def spy(faces, n, *args):
        dims.append(n)
        return integrate(faces, n, *args)

    monkeypatch.setattr(truncated_volume, "_integrate", spy)
    BallSystem(PointConfiguration.from_points(
        np.random.default_rng(0).uniform(-1, 1, (n_pts, dim))), np.inf)
    assert 2 not in dims
    assert (3 in dims) == (dim == 3)
