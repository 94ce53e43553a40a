import math

import numpy as np
import pytest

from kpv.errors import GeometryError, InputError, NumericalError
from kpv.polyhedra import Halfspace, PolyhedralSet
from kpv.truncated_volume import (FitWindow, StepControl, check_ww_lemma,
                                  fit_radial_powers, mc_truncated_volume,
                                  profile_to_csv, unit_ball_volume,
                                  volume_profile, w_prime_at_zero)

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
    assert prof.value_scalar(3.0) == pytest.approx(2.0, abs=1e-15)
    assert prof.value_scalar(0.5) == 0.0
    assert sorted(prof.breakpoints.tolist()) == [1.0]


def test_interval_bounded():
    P = PolyhedralSet(1, (Halfspace(np.array([1.0]), 2.0),
                          Halfspace(np.array([-1.0]), 0.0)))
    prof = volume_profile(P, np.array([0.5]), 10.0)
    assert prof.value_scalar(0.25) == pytest.approx(0.5)
    assert prof.value_scalar(5.0) == pytest.approx(2.0)
    # W coefficients exact: V -> constant 2, so W(0)=0, W'(0)=2
    assert prof.w_at_zero == pytest.approx(0.0)
    assert prof.w_prime_at_zero == pytest.approx(2.0)


def test_untruncated_ball_exact():
    P = PolyhedralSet(3, ())
    prof = volume_profile(P, np.zeros(3), 5.0)
    delta = unit_ball_volume(3)
    for r in (0.5, 2.0, 4.9):
        assert prof.value_scalar(r) == pytest.approx(delta * r ** 3, rel=1e-14)
    assert prof.w_at_zero == pytest.approx(delta)
    assert prof.w_prime_at_zero == 0.0
    assert prof.breakpoints.size == 0


def test_halfplane_profile_matches_circular_segment():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 50.0)
    for r in (0.5, 1.0, 1.2, 2.0, 7.5, 49.0):
        want = halfplane_truncated_area(1.0, r)
        assert prof.value_scalar(r) == pytest.approx(want, rel=1e-8)
    assert prof.breakpoints.tolist() == [1.0]


def test_halfplane_derivative_matches_finite_difference():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 10.0)
    for r in (1.7, 3.0):
        fd = (halfplane_truncated_area(1.0, r + 1e-6)
              - halfplane_truncated_area(1.0, r - 1e-6)) / 2e-6
        assert prof.derivative_scalar(r) == pytest.approx(fd, rel=1e-5)


def test_w_coefficients_halfplane():
    # V(r) = (pi/2) r^2 + 2 r - 1/(3r) + O(r^-3): W(0) = pi/2, W'(0) = 2
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 1100.0)
    w1 = w_prime_at_zero(prof)
    assert prof.w_at_zero == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert w1 == pytest.approx(2.0, abs=1e-4)


def test_w_coefficients_complement_halfplane():
    P = PolyhedralSet(2, (halfplane(-1, 0, -1),))
    prof = volume_profile(P, np.zeros(2), 1100.0)
    w1 = w_prime_at_zero(prof)
    assert prof.w_at_zero == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert w1 == pytest.approx(-2.0, abs=1e-4)


def test_w_prime_needs_long_profile():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 5.0)
    with pytest.raises(NumericalError):
        w_prime_at_zero(prof)


def test_cone_profile_quadrant():
    # quadrant with apex at the base point: exact omega = 1/4
    P = PolyhedralSet(2, (halfplane(1, 0, 0), halfplane(0, 1, 0)))
    prof = volume_profile(P, np.zeros(2), 8.0)
    assert prof.omega == pytest.approx(0.25, abs=1e-12)
    assert prof.value_scalar(2.0) == pytest.approx(math.pi, rel=1e-12)
    assert prof.w_prime_at_zero == 0.0


def test_zero_profile_for_degenerate_slab():
    P = PolyhedralSet(2, (halfplane(1, 0, 0), halfplane(-1, 0, 0)))
    prof = volume_profile(P, np.array([2.0, 0.0]), 5.0)
    assert prof.value_scalar(4.0) == 0.0


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
        prof.validate(rel_tol=1e-8)


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
        assert pl.value_scalar(r) + pr.value_scalar(r) == pytest.approx(
            pw.value_scalar(r), rel=1e-8)


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
        assert abs(prof.value_scalar(r) - est) <= 3.5 * se


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
    _, res_near, _ = fit_radial_powers(prof.value, 2, 3, FitWindow(5.0, 500.0))
    _, res_far, _ = fit_radial_powers(prof.value, 2, 3, FitWindow(30.0, 3000.0))
    assert res_far < res_near


def test_step_control_is_honored():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    loose = volume_profile(P, np.zeros(2), 10.0, StepControl(rtol=1e-6))
    tight = volume_profile(P, np.zeros(2), 10.0, StepControl(rtol=1e-12))
    want = halfplane_truncated_area(1.0, 8.0)
    assert abs(tight.value_scalar(8.0) - want) <= abs(loose.value_scalar(8.0) - want) + 1e-13
    assert tight.r_grid.size >= loose.r_grid.size


def test_profile_csv(tmp_path):
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 5.0)
    path = tmp_path / "profile.csv"
    profile_to_csv(prof, path, radii=np.linspace(0.1, 4.9, 9))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,V,dVdr"
    assert len(lines) == 10


def test_profile_rejects_evaluation_beyond_r_max():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    prof = volume_profile(P, np.zeros(2), 5.0)
    with pytest.raises(InputError):
        prof.value_scalar(6.0)


def test_cone_octant_exact_and_sampled():
    # three orthogonal halfspaces through the apex: omega = 1/8 exactly;
    # the >=3-active-constraint path estimates it by directional sampling
    hs = tuple(Halfspace(e, 0.0) for e in np.eye(3))
    P = PolyhedralSet(3, hs)
    prof = volume_profile(P, np.zeros(3), 4.0)
    assert prof.omega == pytest.approx(0.125, abs=3.0 * prof.omega_stderr + 1e-12)
    assert prof.omega_stderr > 0.0
    want = 0.125 * unit_ball_volume(3) * 2.0 ** 3
    assert prof.value_scalar(2.0) == pytest.approx(want, rel=3e-3)


def test_wedge_cone_exact_any_dimension():
    # two halfspaces through the apex at 60 degrees: fraction (pi - gamma)/2pi
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
    P = PolyhedralSet(3, (Halfspace(n1, 0.0), Halfspace(n2, 0.0)))
    prof = volume_profile(P, np.zeros(3), 4.0)
    want = (math.pi - math.pi / 3.0) / (2.0 * math.pi)
    assert prof.omega == pytest.approx(want, abs=1e-12)
    assert prof.omega_stderr == 0.0


def test_w_prime_homogeneity_halfplane():
    # scaling the offset scales W'(0) linearly (2h for the halfplane)
    for lam in (1.0, 3.0):
        P = PolyhedralSet(2, (halfplane(1, 0, lam),))
        prof = volume_profile(P, np.zeros(2), 1100.0 * lam)
        assert w_prime_at_zero(prof) == pytest.approx(2.0 * lam, rel=1e-3)
