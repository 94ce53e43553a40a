import math

import numpy as np
import pytest

from kpv.errors import GeometryError, InputError
from kpv.polyhedra import Halfspace, PolyhedralSet
from kpv import truncated_volume
from kpv.truncated_volume import (RadiusGrid, _solid_angle_fraction, check_ww_lemma,
                                  fit_radial_powers, mc_truncated_volume,
                                  unit_ball_volume, volume_profile)

from conftest import halfplane_truncated_area


def halfplane(nx, ny, offset):
    return Halfspace(np.array([nx, ny], dtype=float), offset)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)


def test_interval_base_case():
    # P = {x >= 0} in E^1, base point -1: at r=3 the overlap is [0, 2]
    P = PolyhedralSet(1, (Halfspace(np.array([-1.0]), 0.0),))
    prof = volume_profile(P, np.array([-1.0]), 10.0)
    assert prof.value(3.0) == pytest.approx(2.0, abs=1e-15)
    assert prof.value(0.5) == 0.0
    assert sorted(prof.breakpoints.tolist()) == [1.0]


def test_interval_bounded():
    P = PolyhedralSet(1, (Halfspace(np.array([1.0]), 2.0),
                          Halfspace(np.array([-1.0]), 0.0)))
    prof = volume_profile(P, np.array([0.5]), 10.0)
    assert prof.value(0.25) == pytest.approx(0.5)
    assert prof.value(5.0) == pytest.approx(2.0)
    # W coefficients exact: V -> constant 2, so W(s) = 2 s
    assert prof.w_at_zero == pytest.approx(0.0)
    assert prof.taylor(3).tolist() == [0.0, 2.0, 0.0, 0.0]


def test_untruncated_ball_exact():
    P = PolyhedralSet(3, ())
    prof = volume_profile(P, np.zeros(3), 5.0)
    delta = unit_ball_volume(3)
    for r in (0.5, 2.0, 4.9):
        assert prof.value(r) == pytest.approx(delta * r ** 3, rel=1e-14)
    assert prof.w_at_zero == pytest.approx(delta)
    assert prof.taylor(3).tolist() == [prof.w_at_zero, 0.0, 0.0, 0.0]
    assert prof.breakpoints.size == 0


def test_halfplane_profile_matches_circular_segment():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 50.0)
    for r in (0.5, 1.0, 1.2, 2.0, 7.5, 49.0):
        want = halfplane_truncated_area(1.0, r)
        assert prof.value(r) == pytest.approx(want, rel=1e-8)
    assert prof.breakpoints.tolist() == [1.0]


def test_halfplane_derivative_matches_finite_difference():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 10.0)
    for r in (1.7, 3.0):
        fd = (halfplane_truncated_area(1.0, r + 1e-6)
              - halfplane_truncated_area(1.0, r - 1e-6)) / 2e-6
        assert prof.derivative(r) == pytest.approx(fd, rel=1e-5)


def test_w_coefficients_halfplane():
    # V(r) = (pi/2) r^2 + 2 r - 1/(3r) + O(r^-3): W(s) = pi/2 + 2 s - s^3/3 + ...
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), np.inf)
    assert prof.w_at_zero == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert prof.taylor(3)[1:] == pytest.approx([2.0, 0.0, -1.0 / 3.0], abs=1e-15)


def test_w_coefficients_complement_halfplane():
    P = PolyhedralSet(2, (halfplane(-1, 0, -1),))
    prof = volume_profile(P, np.zeros(2), np.inf)
    assert prof.w_at_zero == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert prof.taylor(3)[1:] == pytest.approx([-2.0, 0.0, 1.0 / 3.0], abs=1e-15)


def test_w_prime_needs_long_profile():
    # W'(0) comes from the face profiles, which reach infinity, so a profile
    # stopped at r_max = 1.5, short of its tail piece from 2, has it exactly;
    # W(0) needs that tail
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 1.5)
    w = prof.taylor(1)
    assert math.isnan(w[0])
    assert w[1] == pytest.approx(2.0, abs=1e-12)


def test_cone_profile_quadrant():
    # quadrant with apex at the base point: exact omega = 1/4
    P = PolyhedralSet(2, (halfplane(1, 0, 0), halfplane(0, 1, 0)))
    prof = volume_profile(P, np.zeros(2), 8.0)
    assert prof.omega == pytest.approx(0.25, abs=1e-12)
    assert prof.value(2.0) == pytest.approx(math.pi, rel=1e-12)
    assert prof.taylor(1)[1] == 0.0


def test_zero_profile_for_degenerate_slab():
    P = PolyhedralSet(2, (halfplane(1, 0, 0), halfplane(-1, 0, 0)))
    prof = volume_profile(P, np.array([2.0, 0.0]), 5.0)
    assert prof.value(4.0) == 0.0


def test_infeasible_raises():
    P = PolyhedralSet(2, (halfplane(1, 0, -1), halfplane(-1, 0, -1)))
    with pytest.raises(GeometryError):
        volume_profile(P, np.array([5.0, 0.0]), 5.0)


def test_profile_invariants_random(rng):
    for _ in range(4):
        k = int(rng.integers(1, 4))
        normals = rng.standard_normal((k, 2))
        offsets = rng.uniform(0.2, 1.5, k)
        P = PolyhedralSet(2, tuple(Halfspace(normals[i], offsets[i])
                                   for i in range(k)))
        prof = volume_profile(P, np.zeros(2), 20.0)
        radii = np.linspace(0.0, 20.0, 401)
        v = prof.value(radii)
        tol = 1e-8 * max(float(np.max(v)), 1e-300)
        assert np.min(v) >= -tol                              # non-negative
        assert np.min(np.diff(v)) >= -tol                     # non-decreasing
        assert np.all(v <= prof.delta * radii ** 2 * (1 + 1e-8) + tol)   # ball bound
        if prof.w_at_zero is not None:
            assert -1e-8 <= prof.w_at_zero <= prof.delta * (1 + 1e-8) + 1e-8


def test_additivity_across_a_splitting_hyperplane():
    # halfplane x <= 1 split by the line y = 0 through the base point
    left = PolyhedralSet(2, (halfplane(1, 0, 1), halfplane(0, 1, 0)))
    right = PolyhedralSet(2, (halfplane(1, 0, 1), halfplane(0, -1, 0)))
    whole = PolyhedralSet(2, (halfplane(1, 0, 1),))
    p0 = np.zeros(2)
    pw = volume_profile(whole, p0, 20.0)
    pl = volume_profile(left, p0, 20.0)
    pr = volume_profile(right, p0, 20.0)
    for r in (0.5, 1.3, 4.0, 18.0):
        assert pl.value(r) + pr.value(r) == pytest.approx(
            pw.value(r), rel=1e-8)


def test_mc_untruncated_all_hits():
    P = PolyhedralSet(2, ())
    est, se = mc_truncated_volume(P, np.zeros(2), 1.5, 10_000, seed=1)
    assert est == pytest.approx(unit_ball_volume(2) * 1.5 ** 2, rel=1e-12)
    assert se == 0.0


def test_mc_far_outside_no_hits():
    P = PolyhedralSet(2, (halfplane(1, 0, -10),))
    est, se = mc_truncated_volume(P, np.zeros(2), 2.0, 10_000, seed=2)
    assert est == 0.0 and se == 0.0


def test_mc_matches_closed_form():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    est, se = mc_truncated_volume(P, np.zeros(2), 2.0, 400_000, seed=3)
    want = halfplane_truncated_area(1.0, 2.0)
    assert abs(est - want) <= 3.0 * se


def test_ode_vs_mc_random_polytope(rng):
    normals = rng.standard_normal((3, 3))
    offsets = rng.uniform(0.3, 1.0, 3)
    P = PolyhedralSet(3, tuple(Halfspace(normals[i], offsets[i]) for i in range(3)))
    prof = volume_profile(P, np.zeros(3), 6.0)
    for r in (1.0, 4.0):
        est, se = mc_truncated_volume(P, np.zeros(3), r, 400_000, seed=17)
        assert abs(prof.value(r) - est) <= 3.5 * se


def test_check_ww_lemma_single_halfplane():
    d = check_ww_lemma((halfplane(1, 0, 1),), np.zeros(2))
    assert d <= 1e-6


def test_check_ww_lemma_orthogonal_pair():
    hs = (halfplane(1, 0, 1), halfplane(0, 1, 0.7))
    d = check_ww_lemma(hs, np.array([0.3, -0.2]))
    assert d <= 1e-6


def test_check_ww_lemma_scaling():
    hs = (halfplane(1, 0, 1), halfplane(0, 1, 0.7))
    p0 = np.array([0.3, -0.2])
    lam = 3.0
    hs_scaled = (halfplane(1, 0, lam * 1), halfplane(0, 1, lam * 0.7))
    d1 = check_ww_lemma(hs, p0)
    d2 = check_ww_lemma(hs_scaled, lam * p0)
    # defect is numerical noise in both cases, bounded by the scaled tolerance
    assert d1 <= 1e-6 and d2 <= lam * 1e-6


def test_check_ww_lemma_rejects_dependent_normals():
    hs = (halfplane(1, 0, 1), halfplane(-1, 0, 0.5))
    with pytest.raises(GeometryError):
        check_ww_lemma(hs, np.zeros(2))


def test_check_ww_lemma_rejects_too_many():
    hs = (halfplane(1, 0, 1), halfplane(0, 1, 1), halfplane(1, 1, 1))
    with pytest.raises(GeometryError):
        check_ww_lemma(hs, np.zeros(2))


def test_fit_residual_decays_with_window():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 4000.0)
    _, res_near, _ = fit_radial_powers(prof.value, 2, 3, RadiusGrid(5.0, 500.0))
    _, res_far, _ = fit_radial_powers(prof.value, 2, 3, RadiusGrid(30.0, 3000.0))
    assert res_far < res_near


def test_step_control_is_honored(monkeypatch):
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    monkeypatch.setattr(truncated_volume, "RTOL", 1e-6)
    loose = volume_profile(P, np.zeros(2), 10.0)
    monkeypatch.setattr(truncated_volume, "RTOL", 1e-12)
    tight = volume_profile(P, np.zeros(2), 10.0)
    want = halfplane_truncated_area(1.0, 8.0)
    assert abs(tight.value(8.0) - want) <= abs(loose.value(8.0) - want) + 1e-13
    assert tight.pieces.t_lo.size >= loose.pieces.t_lo.size


def test_profile_rejects_evaluation_beyond_r_max():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 5.0)
    with pytest.raises(InputError):
        prof.value(6.0)


def _tetrahedron_vertex_normals():
    """Outward normals of the three faces of a regular tetrahedron at (1, 1, 1)."""
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    normals = []
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        a = np.cross(v[i] - v[0], v[j] - v[0])
        normals.append(-a if np.dot(a, v[k] - v[0]) > 0 else a)
    return normals


@pytest.mark.parametrize("normals, want", [
    (np.eye(3), 1.0 / 8.0),
    (np.eye(4), 1.0 / 16.0),
    (_tetrahedron_vertex_normals(), (3.0 * math.acos(1.0 / 3.0) - math.pi) / (4.0 * math.pi)),
    (list(np.eye(3)) + [np.array([1.0, 1.0, 0.0])], 1.0 / 8.0),
], ids=["octant", "orthant-4d", "tetrahedron-vertex", "octant-redundant"])
def test_cone_fractions_exact(normals, want):
    # three or more halfspaces through the apex: omega is W(0) / delta_n of
    # the cone's own profile, exact to rounding
    dim = len(normals[0])
    P = PolyhedralSet(dim, tuple(Halfspace(np.asarray(a, dtype=float), 0.0) for a in normals))
    prof = volume_profile(P, np.zeros(dim), 4.0)
    assert prof.omega == pytest.approx(want, abs=1e-12)
    if dim == 3 and want == 1.0 / 8.0:
        cone = want * unit_ball_volume(3) * 2.0 ** 3
        assert prof.value(2.0) == pytest.approx(cone, rel=1e-12)


def trihedral_fraction(normals):
    """Direction fraction of {u : <u, n_i> <= 0}, i = 1..3, by Van Oosterom-Strackee."""
    rays = []
    for a, b, c in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        r = np.cross(normals[a], normals[b])
        r = r if np.dot(r, normals[c]) <= 0 else -r
        rays.append(r / np.linalg.norm(r))
    r1, r2, r3 = rays
    num = abs(np.dot(r1, np.cross(r2, r3)))
    den = 1.0 + np.dot(r1, r2) + np.dot(r2, r3) + np.dot(r3, r1)
    return 2.0 * math.atan2(num, den) / (4.0 * math.pi)


@pytest.mark.parametrize("seed", range(6))
def test_trihedral_cone_fractions_match_closed_form(seed):
    # three independent normals: a simplicial cone, whatever its shape
    normals = np.random.default_rng([3, seed]).standard_normal((3, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    got = _solid_angle_fraction(list(normals), 3)
    assert got == pytest.approx(trihedral_fraction(normals), abs=1e-12)


def test_flat_cone_fraction_is_zero():
    # u_1 = 0, u_2 <= 0: a half-plane of directions, no interior
    normals = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
               np.array([0.0, 1.0, 0.0])]
    assert _solid_angle_fraction(normals, 3) == 0.0


def test_wedge_cone_exact_any_dimension():
    # two halfspaces through the apex at 60 degrees: fraction (pi - gamma)/2pi
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
    P = PolyhedralSet(3, (Halfspace(n1, 0.0), Halfspace(n2, 0.0)))
    prof = volume_profile(P, np.zeros(3), 4.0)
    want = (math.pi - math.pi / 3.0) / (2.0 * math.pi)
    assert prof.omega == pytest.approx(want, abs=1e-12)


def test_w_prime_homogeneity_halfplane():
    # scaling the offset scales W'(0) linearly (2h for the halfplane)
    for lam in (1.0, 3.0):
        P = PolyhedralSet(2, (halfplane(1, 0, lam),))
        prof = volume_profile(P, np.zeros(2), 1100.0 * lam)
        assert prof.taylor(1)[1] == pytest.approx(2.0 * lam, rel=1e-3)
