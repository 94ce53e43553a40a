"""The facet table of a planar family against its sites' own region profiles.

Sites spanning the plane build each family (nearest, farthest) as one table
with a row per (site, Delaunay edge) incidence, and BallSystem sums volumes,
boundaries and Laurent coefficients off it.  The per-site profiles, built by
the face lattice when they are first read, are the reference: the table's
sums must be their sums, to the bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpv import ball_volumes
from kpv.ball_volumes import BallSystem
from kpv.configurations import PointConfiguration

FUNCTIONS = (("union_volume", "nearest_profiles", "value"),
             ("intersection_volume", "farthest_profiles", "value"),
             ("union_boundary", "nearest_profiles", "derivative"),
             ("intersection_boundary", "farthest_profiles", "derivative"))


def _grid(*sides):
    return np.array(list(itertools.product(*(range(k) for k in sides))), dtype=float)


def _jittered(sides, j):
    grid = _grid(*sides)
    return grid + j * np.random.default_rng(2).standard_normal(grid.shape)


PLANAR_SETS = {
    **{f"random-N{n}": np.random.default_rng(n).uniform(-1, 1, (n, 2))
       for n in (4, 5, 9, 17, 26, 40)},
    "lattice-4x3": _grid(4, 3),
    "lattice-3x3": _grid(3, 3),
    **{f"lattice-4x3-jitter-{j:g}": _jittered((4, 3), j) for j in (1e-5, 1e-6, 1e-7, 1e-8)},
    "lattice-3x3-jitter-1e-06": _jittered((3, 3), 1e-6),
    # site 2 on the bottom hull edge, site 5 inside the hull
    "hull-edge": np.array([[0, 0], [2, 0], [1, 0], [2, 1], [0, 1], [0.7, 0.4]], dtype=float),
}


@pytest.mark.parametrize("name", list(PLANAR_SETS))
def test_family_sums_are_the_site_profile_sums(name):
    p = PointConfiguration.from_points(PLANAR_SETS[name])
    system = BallSystem(p, np.inf)
    radii = np.geomspace(0.01, 40.0, 120) * p.diameter
    for function, profiles, method in FUNCTIONS:
        want = sum(getattr(prof, method)(radii) for prof in getattr(system, profiles)
                   if prof is not None)
        got = getattr(system, function)(radii)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), function
    # and at infinity: the Laurent coefficients
    for which, profiles in (("union", "nearest_profiles"), ("intersection", "farthest_profiles")):
        want = sum(prof.taylor(2) for prof in getattr(system, profiles) if prof is not None)
        got = np.array(system.laurent_coefficients(which, 3))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), which


@st.composite
def planar_sets(draw):
    """Random sites, N = 3 ... 40, or a 3x3, 4x3 or 4x4 grid jittered by 1e-5 ... 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.uniform(-1, 1, (draw(st.integers(3, 40)), 2))
    grid = _grid(*draw(st.sampled_from([(3, 3), (4, 3), (4, 4)])))
    return grid + 10.0 ** -draw(st.integers(5, 9)) * rng.standard_normal(grid.shape)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planar_sets())
def test_family_sums_are_the_lattice_sums_bit_for_bit(pts):
    p = PointConfiguration.from_points(pts)
    system = BallSystem(p, np.inf)
    radii = np.geomspace(0.01, 40.0, 50) * p.diameter
    for function, profiles, method in FUNCTIONS:
        want = sum(getattr(prof, method)(radii) for prof in getattr(system, profiles)
                   if prof is not None)
        assert getattr(system, function)(radii).tolist() == want.tolist(), function
    for which, profiles in (("union", "nearest_profiles"), ("intersection", "farthest_profiles")):
        want = sum(prof.taylor(2) for prof in getattr(system, profiles) if prof is not None)
        assert list(system.laurent_coefficients(which, 3)) == want.tolist(), which


@pytest.mark.parametrize("name", ["random-N40", "lattice-4x3-jitter-1e-06", "hull-edge"])
def test_batches_give_the_bits_of_single_radii(name, monkeypatch):
    p = PointConfiguration.from_points(PLANAR_SETS[name])
    system = BallSystem(p, 3.0 * p.diameter)
    radii = np.linspace(0.01, 2.99, 97) * p.diameter
    single = {f: [getattr(system, f)(float(r)) for r in radii] for f, _, _ in FUNCTIONS}
    # chunks of a few radii, and one chunk for all
    for cells in (64, ball_volumes._CHUNK_ELEMENTS):
        monkeypatch.setattr(ball_volumes, "_CHUNK_ELEMENTS", cells)
        for function, values in single.items():
            assert getattr(system, function)(radii).tolist() == values, (function, cells)


def test_planar_builds_run_no_lattice_face(monkeypatch):
    # the face lattice builds a profile per face of dimension >= 2; a planar
    # family builds none
    calls = []
    make = ball_volumes._profile_from_faces

    def spy(n, *args):
        calls.append(n)
        return make(n, *args)
    monkeypatch.setattr(ball_volumes, "_profile_from_faces", spy)
    for name in ("random-N17", "lattice-3x3", "hull-edge"):
        p = PointConfiguration.from_points(PLANAR_SETS[name])
        for r_max in (0.15 * p.diameter, np.inf):
            BallSystem(p, r_max).union_boundary(0.1 * p.diameter)
    BallSystem(PointConfiguration.from_points([[0, 0], [1, 0], [0.3, 0.8]]), np.inf)
    assert calls == []
    # the spy sees the faces of a spatial build
    BallSystem(PointConfiguration.from_points(np.eye(3)), np.inf)
    assert calls


def test_collinear_planar_sites_keep_the_lattice():
    p = PointConfiguration.from_points([[0, 0], [1, 0], [2.5, 0], [4, 0]])
    system = BallSystem(p, np.inf)
    assert isinstance(system._nearest, ball_volumes._Lattice)
    # three unit disks apart plus the last one: 4 pi r^2 until the first pair meets
    assert system.union_volume(0.4) == pytest.approx(4 * np.pi * 0.16, rel=1e-14)


@pytest.mark.parametrize("s", [1e-6, 1e-10])
def test_tiny_triangle_is_the_unit_triangle_scaled(s):
    # sites 1e-10 apart are distinct: the duplicate test is relative to the diameter
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    unit = BallSystem(PointConfiguration.from_points(pts), np.inf)
    tiny = BallSystem(PointConfiguration.from_points(s * pts), np.inf)
    radii = np.array([0.2, 0.45, 0.9, 3.0])
    assert np.min(np.abs(unit.breakpoints[:, None] / radii - 1.0)) > 1e-3
    for function, power in (("union_volume", 2), ("intersection_volume", 2),
                            ("union_boundary", 1), ("intersection_boundary", 1)):
        want = getattr(unit, function)(radii)
        got = getattr(tiny, function)(s * radii) / s ** power
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), function
    for which in ("union", "intersection"):
        want = np.array(unit.laurent_coefficients(which, 3))
        got = np.array(tiny.laurent_coefficients(which, 3)) / s ** np.arange(3)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), which
