"""Voronoi regions cut out by Delaunay neighbours against all N-1 bisectors.

BallSystem builds each site's region from its Delaunay (nearest) or
furthest-site Delaunay (farthest) neighbours only.  The reference here is the
same BallSystem with every other site as a neighbour, which is the
all-bisector construction; the two must give the same volumes, boundaries and
Laurent coefficients.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpv import ball_volumes, polyhedra
from kpv.ball_volumes import (BallSystem, delaunay_neighbours, farthest_voronoi,
                              nearest_voronoi)
from kpv.configurations import PointConfiguration
from kpv.errors import GeometryError
from kpv.polyhedra import face_data

from conftest import random_config, random_orthogonal

REL = 1e-12


def all_other_sites(p, furthest=False):
    return [np.delete(np.arange(p.n_points), i) for i in range(p.n_points)]


def reference_system(p, r_max, monkeypatch):
    """BallSystem with every region cut out by all N-1 bisectors."""
    with monkeypatch.context() as m:
        m.setattr(ball_volumes, "delaunay_neighbours", all_other_sites)
        return BallSystem(p, r_max)


def system_values(system, radii):
    radii = system.off_breakpoint(radii)
    return np.concatenate([system.union_volume(radii), system.intersection_volume(radii),
                           system.union_boundary(radii),
                           system.intersection_boundary(radii)])


def assert_same_system(p, monkeypatch, r_max=np.inf):
    pruned = BallSystem(p, r_max)
    full = reference_system(p, r_max, monkeypatch)
    top = min(r_max, 3.0 * p.diameter)
    radii = np.linspace(0.02, 0.999, 13) * top
    a, b = system_values(pruned, radii), system_values(full, radii)
    scale = np.maximum(np.abs(b), REL * np.max(np.abs(b)))
    assert np.max(np.abs(a - b) / scale) <= REL
    if np.isinf(r_max):
        for which in ("union", "intersection"):
            got = pruned.laurent_coefficients(which)
            want = full.laurent_coefficients(which)
            assert got == pytest.approx(want, rel=REL, abs=REL * abs(want[0]))
    return pruned


@pytest.mark.parametrize("dim, n_pts, seed", [(2, 16, 1), (2, 40, 2), (3, 6, 3), (3, 12, 4)])
def test_pruned_system_matches_all_bisectors(dim, n_pts, seed, monkeypatch):
    p = random_config(np.random.default_rng([20240211, seed]), dim, n_pts)
    assert_same_system(p, monkeypatch)


def test_many_site_build_solves_few_margin_problems(monkeypatch):
    """2-d N=60 to 0.15 diam: 381 max-margin solves (8117 with all bisectors)."""
    solve = polyhedra._solve_max_margin
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(polyhedra, "_solve_max_margin", counted)
    p = random_config(np.random.default_rng(3), 2, 60)
    BallSystem(p, 0.15 * p.diameter)
    assert len(calls) <= 8 * p.n_points


@pytest.mark.parametrize("dim, n_pts", [(2, 24), (3, 10)])
def test_pruned_regions_keep_every_facet(dim, n_pts, rng):
    """Each region's genuine facets are the same hyperplanes either way."""
    p = random_config(rng, dim, n_pts)
    for builder, kind in ((nearest_voronoi, "nearest"), (farthest_voronoi, "farthest")):
        for i, nb in enumerate(delaunay_neighbours(p, kind == "farthest")):
            full = builder(p, i).region
            if nb is None:
                assert full.feasibility_margin() <= 1e-9 * p.diameter
                continue
            pruned = ball_volumes._voronoi(p, kind, i, nb).region

            def facets(P):
                return sorted((tuple(np.round(P.halfspaces[f.face_index].normal, 12)),
                               round(P.halfspaces[f.face_index].offset, 12))
                              for f in face_data(P, p.points[i]))
            assert facets(pruned) == facets(full)


def test_farthest_neighbours_skip_interior_and_hull_edge_sites():
    # site 2 is on the bottom hull edge, site 5 inside the hull
    p = PointConfiguration.from_points(
        [[0, 0], [2, 0], [1, 0], [2, 1], [0, 1], [0.7, 0.4]])
    far = delaunay_neighbours(p, furthest=True)
    assert far[2] is None and far[5] is None
    assert all(far[i] is not None for i in (0, 1, 3, 4))
    near = delaunay_neighbours(p)
    assert all(nb is not None and i not in nb for i, nb in enumerate(near))


@pytest.mark.parametrize("points", [
    [[0, 0], [1, 0], [2.5, 0], [4, 0]],                            # collinear
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1.2, 0], [0.3, 0.4, 0]],  # coplanar
    [[0, 0], [1, 0]],                                               # N <= n
    [[0, 0], [1, 0], [0.3, 0.8]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1]],
], ids=["collinear-2d", "coplanar-3d", "pair-2d", "triangle-2d", "triangle-3d",
        "tetrahedron-3d"])
def test_fallback_inputs_match_all_bisectors(points, monkeypatch):
    p = PointConfiguration.from_points(points)
    lists = delaunay_neighbours(p) + delaunay_neighbours(p, furthest=True)
    if len(points) <= p.dimension + 1:
        # too few sites for one of the triangulations: every other site is used
        assert any(nb is not None and len(nb) == p.n_points - 1 for nb in lists)
    assert_same_system(p, monkeypatch)
    assert_same_system(p, monkeypatch, r_max=0.7 * p.diameter)


@pytest.mark.parametrize("points", [[[0.0]], [[0.0], [1.0]], [[0.0], [2.5], [1.0], [-0.4]]],
                         ids=["one-site", "pair", "four-sites"])
def test_one_dimensional_inputs_match_all_bisectors(points, monkeypatch):
    p = PointConfiguration.from_points(points)
    for furthest in (False, True):
        assert [nb.tolist() for nb in delaunay_neighbours(p, furthest)] == \
               [[j for j in range(p.n_points) if j != i] for i in range(p.n_points)]
    if p.n_points == 1:
        # one unit interval: union and intersection of length 2r
        system = BallSystem(p, 10.0)
        assert system.union_volume(1.5) == pytest.approx(3.0, rel=REL)
        assert system.intersection_volume(1.5) == pytest.approx(3.0, rel=REL)
        return
    assert_same_system(p, monkeypatch)
    assert_same_system(p, monkeypatch, r_max=0.7 * p.diameter)


@pytest.mark.parametrize("points", [
    [[0, 0], [1, 0], [1, 1], [0, 1]],                               # unit square
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],    # unit cube
    [[0, 0], [2, 0], [1, 0], [2, 1], [0, 1], [0.7, 0.4]],           # hull-edge point
], ids=["unit-square", "unit-cube", "hull-edge"])
def test_degenerate_inputs_match_all_bisectors(points, monkeypatch):
    p = PointConfiguration.from_points(points)
    assert_same_system(p, monkeypatch)
    assert_same_system(p, monkeypatch, r_max=0.7 * p.diameter)


def test_large_offset_matches_all_bisectors(monkeypatch):
    # sites a few units apart, 1e6 away from the origin (the far box of the
    # max-margin solve then cancels in its roundoff test)
    base = np.array([[0.0, 0.0], [10.0, 1.0], [4.0, 9.0], [-6.0, 7.0], [-8.0, -3.0],
                     [1.0, -9.0], [9.0, -7.0], [2.0, 3.0], [-3.0, -1.0]])
    offset = PointConfiguration.from_points(base + 1e6)
    assert [None if nb is None else nb.tolist()
            for nb in delaunay_neighbours(offset, furthest=True)] == \
           [None if nb is None else nb.tolist()
            for nb in delaunay_neighbours(PointConfiguration.from_points(base), True)]
    pruned = assert_same_system(offset, monkeypatch, r_max=3.0 * offset.diameter)
    unshifted = BallSystem(PointConfiguration.from_points(base), 3.0 * offset.diameter)
    radii = np.linspace(0.1, 2.9, 8) * offset.diameter
    # coordinates of 1e6 leave about 1e-10 of relative precision in the sites
    assert pruned.union_volume(radii) == pytest.approx(unshifted.union_volume(radii),
                                                       rel=1e-8)


def test_ambiguous_facet_error_names_region():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1e-9, 1.0]])
    with pytest.raises(GeometryError) as err:
        BallSystem(PointConfiguration.from_points(pts), np.inf)
    msg = str(err.value)
    assert msg.startswith("facet dimension numerically ambiguous")
    assert msg.endswith("(nearest region of site 1)")


# ---------------------------------------------------------------------------
# invariance under rigid motion and relabelling
# ---------------------------------------------------------------------------

@st.composite
def moved_configuration(draw, dim):
    """Distinct lattice sites, a rigid motion and a relabelling of them."""
    n_pts = draw(st.integers(min_value=dim + 2, max_value=8))
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), min_size=n_pts,
                          max_size=n_pts, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    shift = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    perm = draw(st.permutations(range(n_pts)))
    return np.array(cells, dtype=float), seed, np.array(shift), list(perm)


def _invariance(data, dim):
    pts, seed, shift, perm = data
    q = random_orthogonal(np.random.default_rng(seed), dim)
    p = PointConfiguration.from_points(pts)
    moved = PointConfiguration.from_points((pts @ q.T + shift)[perm])
    r_max = 1.5 * p.diameter
    a, b = BallSystem(p, r_max), BallSystem(moved, r_max)
    radii = a.off_breakpoint(np.linspace(0.05, 1.45, 9) * p.diameter)
    for f in ("union_volume", "intersection_volume"):
        got, want = getattr(b, f)(radii), getattr(a, f)(radii)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * math.pi * r_max ** dim)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(moved_configuration(2))
def test_volumes_invariant_under_rigid_motion_and_relabelling_2d(data):
    _invariance(data, 2)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(moved_configuration(3))
def test_volumes_invariant_under_rigid_motion_and_relabelling_3d(data):
    _invariance(data, 3)
