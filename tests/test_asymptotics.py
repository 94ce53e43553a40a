import math

import numpy as np
import pytest

from kpv.asymptotics import (ThresholdResult, kp_threshold,
                             laurent_fit, mean_width_difference,
                             verify_capoyleas_pach, verify_csikos,
                             verify_lift_identity, verify_ww_proposition)
from kpv.ball_volumes import BallSystem
from kpv.configurations import PointConfiguration, random_expansion
from kpv.errors import GeometryError, InputError
from kpv.meanwidth import mean_width_exact_2d, reference_mean_width
from kpv.truncated_volume import RadiusGrid, unit_ball_volume

from conftest import placed, random_config

SEGMENT = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
SQUARE = PointConfiguration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])


def test_laurent_fit_single_ball_is_exact_monomial():
    delta = unit_ball_volume(2)
    fit = laurent_fit(lambda r: delta * r * r, 2, 3, RadiusGrid(10.0, 1000.0))
    assert fit.coefficient(2) == pytest.approx(delta, rel=1e-6)
    assert fit.coefficient(1) == pytest.approx(0.0, abs=1e-6)


def test_laurent_fit_segment_union_and_intersection():
    system = BallSystem(SEGMENT, r_max=1010.0)
    win = RadiusGrid(10.0, 1000.0)
    fit_u = laurent_fit(system.union_volume, 2, 3, win)
    fit_i = laurent_fit(system.intersection_volume, 2, 3, win)
    assert fit_u.coefficient(1) == pytest.approx(2.0, rel=0.01)
    assert fit_i.coefficient(1) == pytest.approx(-2.0, rel=0.01)


def test_laurent_fit_rejects_too_many_terms():
    with pytest.raises(InputError):
        laurent_fit(lambda r: r * r, 2, 4, RadiusGrid(1.0, 10.0))


def test_laurent_fit_window_validation():
    with pytest.raises(InputError):
        RadiusGrid(5.0, 2.0).radii()


def test_reference_mean_width_planar_in_3d():
    flat = PointConfiguration.from_points(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    ref = reference_mean_width(flat)
    # V_1 = half the perimeter 4, times kappa_2 = pi
    assert ref.value == pytest.approx(4.0 * math.pi / 2.0, rel=1e-12)
    assert ref.method == "exact"


def test_reference_mean_width_of_lower_rank_sets_in_3d():
    # a point has mean width 0; a segment of length L has pi L (2L times c_{2,3})
    ref = reference_mean_width(PointConfiguration.from_points([[0.3, -1.0, 2.0]]))
    assert ref.value == 0.0 and ref.stderr > 0.0
    seg = PointConfiguration.from_points([[0.3, -1.0, 2.0], [1.3, -1.0, 2.0]])
    assert reference_mean_width(seg).value == pytest.approx(math.pi, rel=1e-12)


def test_verify_capoyleas_pach_segment_and_square():
    for cfg, m in ((SEGMENT, 2.0), (SQUARE, 4.0)):
        rep = verify_capoyleas_pach(cfg)
        assert rep.passed
        assert rep.rhs == pytest.approx(m, rel=1e-9)
        assert rep.gap <= 0.01 * m


def test_verify_capoyleas_pach_far_breakpoints():
    # last breakpoint 15 (3-d) and about 500 (the flat triangle, whose
    # circumcircle is 250 diameters wide): the coefficients are exact, so no
    # fit window has to resolve them
    spatial = PointConfiguration.from_points(
        [[-0.48, -0.4, 0.63], [-0.82, 0.2, 0.46], [-0.62, -0.89, -0.45],
         [0.31, 0.12, -0.7], [-0.13, 0.34, -0.15]])
    flat = PointConfiguration.from_points([[0.0, 0.0], [2.0, 0.0], [1.0, 1e-3]])
    for cfg in (spatial, flat):
        rep = verify_capoyleas_pach(cfg)
        assert rep.passed
        assert rep.gap <= 1e-10 * rep.rhs
        assert rep.extras["leading_coefficient"] == pytest.approx(
            unit_ball_volume(cfg.dimension), rel=1e-12)


def _higher_dimensional_cases():
    rng = np.random.default_rng(20241019)
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]
    spatial = rng.uniform(-1, 1, (5, 3))
    cases = [pytest.param(PointConfiguration.from_points([[0.0], [1.0], [0.25]]), id="1d")]
    for n in (4, 5):
        cases += [pytest.param(placed(rng, triangle, n), id=f"triangle-E{n}"),
                  pytest.param(placed(rng, spatial, n), id=f"3d-N5-E{n}")]
    return cases


@pytest.mark.parametrize("cfg", _higher_dimensional_cases())
def test_verifiers_in_any_dimension_on_exact_references(cfg):
    # a hull of rank <= 3 has an exact mean width wherever it is placed
    union = verify_capoyleas_pach(cfg)
    reports = [union] + verify_csikos(cfg)
    assert all(r.passed for r in reports)
    m = union.rhs
    assert union.extras["mean_width_method"] == "exact"
    assert union.gap <= 1e-10 * m
    assert reports[1].gap <= 1e-10 * m and reports[3].gap <= 1e-10 * m


def test_verifiers_in_4d_against_quadrature():
    cfg = random_config(np.random.default_rng(20241020), 4, 6)
    union = verify_capoyleas_pach(cfg)
    reports = [union] + verify_csikos(cfg)
    assert all(r.passed for r in reports)
    assert union.extras["mean_width_method"] == "quadrature"


def test_verify_capoyleas_pach_single_point():
    one = PointConfiguration.from_points([[0.2, 0.4]])
    rep = verify_capoyleas_pach(one)
    assert rep.passed
    assert abs(rep.lhs) <= 1e-6 * unit_ball_volume(2)


def test_verify_csikos_segment():
    reports = verify_csikos(SEGMENT)
    assert all(r.passed for r in reports)
    inter = reports[0]
    assert inter.lhs == pytest.approx(-2.0, rel=0.01)


def test_verify_csikos_triangle_cancellation():
    tri = PointConfiguration.from_points(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    reports = verify_csikos(tri)
    assert all(r.passed for r in reports)
    cancel = [r for r in reports if "vanishes" in r.claim][0]
    m = mean_width_exact_2d(tri).value
    assert cancel.gap <= 0.01 * m


def test_verify_csikos_single_point():
    one = PointConfiguration.from_points([[1.0, -2.0]])
    reports = verify_csikos(one)
    assert all(r.passed for r in reports)
    assert abs(reports[0].lhs) <= 1e-4


def test_verify_ww_two_points():
    d = 1.0
    rep = verify_ww_proposition(SEGMENT)
    assert rep.passed
    assert rep.gap <= 1e-3 * d


def test_verify_ww_triangle():
    tri = PointConfiguration.from_points([[0, 0], [1, 0], [0.4, 0.8]])
    rep = verify_ww_proposition(tri)
    assert rep.passed


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10])
def test_verify_ww_rank_test_is_relative_to_the_diameter(s):
    tri = PointConfiguration.from_points(s * np.array([[0, 0], [1, 0], [0.3, 0.8]]))
    rep = verify_ww_proposition(tri)
    assert rep.passed
    assert rep.extras["union_coefficient"] == pytest.approx(2.917414955805219 * s, rel=1e-13)
    collinear = PointConfiguration.from_points(s * np.array([[0, 0], [1, 1], [2, 2]]))
    with pytest.raises(GeometryError, match="general position"):
        verify_ww_proposition(collinear)


def test_verify_ww_single_point():
    one = PointConfiguration.from_points([[0.0, 0.0]])
    rep = verify_ww_proposition(one)
    assert rep.passed and rep.gap == 0.0


def test_verify_ww_rejects_too_many_points():
    four = PointConfiguration.from_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    with pytest.raises(GeometryError):
        verify_ww_proposition(four)


def test_verify_ww_rejects_degenerate():
    collinear = PointConfiguration.from_points([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(GeometryError):
        verify_ww_proposition(collinear)


def test_verify_lift_identity_single_ball():
    one = PointConfiguration.from_points([[0.0, 0.0]])
    reports = verify_lift_identity(one, [2.0])
    for rep in reports:
        assert rep.passed
        assert rep.rhs == pytest.approx(math.pi * 4.0, rel=1e-9)


def test_verify_lift_identity_disjoint_pair():
    far = PointConfiguration.from_points([[0.0, 0.0], [40.0, 0.0]])
    reports = verify_lift_identity(far, [2.0])
    union = [r for r in reports if r.claim.startswith("union")][0]
    assert union.passed
    assert union.rhs == pytest.approx(2.0 * math.pi * 4.0, rel=1e-9)


def test_kp_threshold_scaled_square():
    q = PointConfiguration.from_points(1.1 * SQUARE.points)
    diam = q.diameter
    res = kp_threshold(SQUARE, q, RadiusGrid(diam, 400.0 * diam, 14))
    assert res.all_hold
    assert res.strictness_margin > 0.0
    assert res.margins.shape == (14, 4)


def test_kp_threshold_congruent_margin_zero():
    moved = PointConfiguration.from_points(SQUARE.points + np.array([4.0, -7.0]))
    res = kp_threshold(SQUARE, moved, RadiusGrid(1.0, 100.0, 6))
    assert res.congruent
    assert res.all_hold
    assert res.strictness_margin == 0.0
    assert np.all(res.margins == 0.0)


def test_kp_threshold_rejects_non_expansion():
    shrunk = PointConfiguration.from_points(0.5 * SQUARE.points)
    with pytest.raises(GeometryError):
        kp_threshold(SQUARE, shrunk, RadiusGrid(1.0, 10.0, 4))


def test_kp_threshold_random_expansion(rng):
    p = random_config(rng, 2, 5)
    q = random_expansion(p, seed=77, magnitude=0.2)
    diam = max(p.diameter, q.diameter)
    res = kp_threshold(p, q, RadiusGrid(diam, 500.0 * diam, 12))
    assert res.all_hold
    assert res.strictness_margin > 0.0
    assert res.r0 <= res.checked_grid[-1]


def test_threshold_report_surfaces_small_r_failures():
    # the scan must tolerate inequalities failing below r0: negative margins
    # stay visible in the table while r0 moves up the grid (the boundary
    # inequalities genuinely can fail at small radii)
    radii = np.geomspace(1.0, 100.0, 5)
    margins = np.array([[0.3, -0.2, 0.1, 0.1],
                        [0.3, 0.2, -0.05, 0.1],
                        [0.3, 0.2, 0.1, 0.1],
                        [0.4, 0.3, 0.2, 0.1],
                        [0.5, 0.3, 0.2, 0.2]])
    holds = np.all(margins >= -1e-12, axis=1)
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(holds)))
    i0 = int(np.argmax(suffix_ok))
    res = ThresholdResult(r0=float(radii[i0]), checked_grid=radii,
                          all_hold=bool(np.all(margins[:, :2] >= -1e-12)),
                          strictness_margin=float(np.min(margins[i0:])),
                          margins=margins)
    assert res.r0 == pytest.approx(radii[2])
    assert not res.all_hold                      # volume inequality failed once
    assert np.any(res.margins < 0)               # failures stay visible
    assert res.strictness_margin > 0.0           # margin measured beyond r0
    d = res.to_dict()
    assert d["r0"] == res.r0 and len(d["margins"]) == 5


def test_mean_width_difference_correlated_error():
    from kpv.asymptotics import mean_width_difference
    p = PointConfiguration.from_points([[0, 0, 0], [1, 0, 0]])
    q = PointConfiguration.from_points([[0, 0, 0], [1.0 + 1e-8, 0, 0]])
    diff, err = mean_width_difference(p, q)
    # the lifting constant is exact, so a 1e-8 stretch is resolvable
    assert diff == pytest.approx(math.pi * 1e-8, rel=5e-3)
    assert err < diff
    # planar exact case has no constant at all
    p2 = PointConfiguration.from_points([[0, 0], [1, 0]])
    q2 = PointConfiguration.from_points([[0, 0], [2, 0]])
    d2, e2 = mean_width_difference(p2, q2)
    assert d2 == pytest.approx(2.0, rel=1e-12)
    assert e2 <= 1e-10


def test_union_coefficient_monotone_under_expansion(rng):
    # the fitted second coefficient inherits the mean-width growth
    p = random_config(rng, 2, 5)
    q = random_expansion(p, seed=55, magnitude=0.35)
    win = RadiusGrid(10.0 * max(p.diameter, q.diameter),
                     1000.0 * max(p.diameter, q.diameter))
    ap = laurent_fit(BallSystem(p, r_max=win.r_max * 1.01).union_volume, 2, 3, win)
    aq = laurent_fit(BallSystem(q, r_max=win.r_max * 1.01).union_volume, 2, 3, win)
    diff, err = mean_width_difference(p, q)
    fit_tol = 0.01 * max(abs(ap.coefficient(1)), abs(aq.coefficient(1)))
    if diff > 2 * fit_tol:
        assert aq.coefficient(1) - ap.coefficient(1) > 0
