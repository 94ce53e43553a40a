"""BallSystem against Voronoi regions cut out by all N-1 bisectors.

BallSystem reads every region's faces off the Delaunay (nearest) or
furthest-site Delaunay (farthest) triangulation of the sites in their own
flat, cells of cospherical sites pulled into simplices, and shares one
profile per simplex.  The reference here cuts each region out by all N-1
bisectors with nearest_voronoi / farthest_voronoi and finds its facets with
face_data inside volume_profile, one site at a time; the two must give the
same volumes, boundaries and Laurent coefficients.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from kpv import ball_volumes, polyhedra, truncated_volume
from kpv.ball_volumes import BallSystem, farthest_voronoi, nearest_voronoi
from kpv.configurations import PointConfiguration, embed
from kpv.errors import GeometryError, NumericalError
from kpv.meanwidth import mean_width_exact
from kpv.truncated_volume import unit_ball_volume, volume_profile

from conftest import random_config, random_orthogonal

REL = 1e-12


class AllBisectorReference:
    """Per-site profiles of the all-bisector regions, summed site by site.

    Regions are built about the sites' centroid, as BallSystem builds them; a
    farthest region of margin at most 1e-9 * max(1, diameter) is empty or
    flat and contributes nothing.
    """

    def __init__(self, p, r_max):
        centred = PointConfiguration(p.dimension, p.points - p.points.mean(axis=0))
        scale = max(1.0, p.diameter)
        self.nearest = [volume_profile(nearest_voronoi(centred, i), centred.points[i],
                                       r_max) for i in range(p.n_points)]
        self.farthest = []
        for i in range(p.n_points):
            region = farthest_voronoi(centred, i)
            if region.feasibility_margin() > 1e-9 * scale:
                self.farthest.append(volume_profile(region, centred.points[i], r_max))
        bps = [b for prof in self.nearest + self.farthest for b in prof.breakpoints]
        self.breakpoints = np.unique(bps)

    def values(self, radii):
        return np.concatenate([sum(prof.value(radii) for prof in self.nearest),
                               sum(prof.value(radii) for prof in self.farthest),
                               sum(prof.derivative(radii) for prof in self.nearest),
                               sum(prof.derivative(radii) for prof in self.farthest)])

    def laurent_coefficients(self, which):
        profiles = self.nearest if which == "union" else self.farthest
        return tuple(sum(prof.taylor(1) for prof in profiles))


def system_values(system, radii):
    return np.concatenate([system.union_volume(radii), system.intersection_volume(radii),
                           system.union_boundary(radii),
                           system.intersection_boundary(radii)])


def assert_same_system(p, r_max=np.inf):
    system = BallSystem(p, r_max)
    full = AllBisectorReference(p, r_max)
    top = min(r_max, 3.0 * p.diameter)
    radii = system.off_breakpoint(np.linspace(0.02, 0.999, 13) * top)
    a, b = system_values(system, radii), full.values(radii)
    scale = np.maximum(np.abs(b), REL * np.max(np.abs(b)))
    assert np.max(np.abs(a - b) / scale) <= REL
    if np.isinf(r_max):
        for which in ("union", "intersection"):
            got = system.laurent_coefficients(which)
            want = full.laurent_coefficients(which)
            assert got == pytest.approx(want, rel=REL, abs=REL * abs(want[0]))
    return system


@pytest.mark.parametrize("dim, n_pts, seed", [(2, 16, 1), (2, 40, 2), (3, 6, 3), (3, 12, 4),
                                               (4, 7, 5)])
def test_pruned_system_matches_all_bisectors(dim, n_pts, seed):
    p = random_config(np.random.default_rng([20240211, seed]), dim, n_pts)
    assert_same_system(p)


@pytest.fixture
def max_margin_solves(monkeypatch):
    """Calls of the max-margin solve, under both names it is held by."""
    solve = polyhedra._solve_max_margin
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(polyhedra, "_solve_max_margin", counted)
    monkeypatch.setattr(truncated_volume, "_solve_max_margin", counted)
    return calls


def test_many_site_build_solves_few_margin_problems(max_margin_solves):
    """2-d N=60 to 0.15 diam: no max-margin solve (8117 with all bisectors)."""
    p = random_config(np.random.default_rng(3), 2, 60)
    BallSystem(p, 0.15 * p.diameter)
    assert len(max_margin_solves) == 0


def test_lifted_build_solves_no_margin_problems(max_margin_solves):
    """2-d N=20 in E^4 to 3 diam: both families on the lattice, no max-margin solve."""
    p = PointConfiguration.from_points(np.random.default_rng(0).uniform(-1, 1, (20, 2)))
    BallSystem(embed(p, 4), 3.0 * p.diameter)
    assert len(max_margin_solves) == 0


def read_profiles(system):
    return system.nearest_profiles + system.farthest_profiles


@pytest.fixture
def face_builds(monkeypatch):
    """Face profiles built, counted per dimension."""
    built = {}
    for name in ("_interval_profile", "_profile_from_faces"):
        def spy_face(*args, make=getattr(ball_volumes, name)):
            prof = make(*args)
            built[prof.dimension] = built.get(prof.dimension, 0) + 1
            return prof
        monkeypatch.setattr(ball_volumes, name, spy_face)
    return built


@pytest.mark.parametrize("dim, n_pts", [(2, 30), (3, 12), (4, 8)])
def test_one_profile_per_simplex(dim, n_pts, rng, face_builds):
    p = random_config(rng, dim, n_pts)
    # a planar system builds its sites' profiles when they are first read
    read_profiles(BallSystem(p, np.inf))
    # the face of a simplex with m sites has dimension n - m + 1
    want = {}
    for furthest in (False, True):
        simplices = Delaunay(p.points, furthest_site=furthest).simplices
        for m in range(1, dim + 1):
            faces = {c for s in simplices for c in itertools.combinations(sorted(s), m)}
            want[dim - m + 1] = want.get(dim - m + 1, 0) + len(faces)
    assert face_builds == want


@pytest.mark.parametrize("points", [[[0, 0], [1, 0], [0.3, 0.8]],
                                    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1]]],
                         ids=["triangle-2d", "tetrahedron-3d"])
def test_simplex_sites_build_both_families_without_qhull(points, monkeypatch):
    def no_qhull(*args, **kwargs):
        raise AssertionError("qhull called")
    monkeypatch.setattr(ball_volumes, "Delaunay", no_qhull)
    assert_same_system(PointConfiguration.from_points(points))


def test_face_error_names_family_and_simplex(monkeypatch):
    # a planar family's faces come out of one array step; one face whose
    # ends are no numbers is named
    segment_ends = ball_volumes._segment_ends

    def fail(*args):
        edges, u, a, b, hull = segment_ends(*args)
        a[0] = np.nan
        return edges, u, a, b, hull
    monkeypatch.setattr(ball_volumes, "_segment_ends", fail)
    p = PointConfiguration.from_points([[0, 0], [1, 0], [0.3, 0.8]])
    with pytest.raises(NumericalError, match=r"^segment ends are not numbers "
                                             r"\(nearest face of sites \(0, 1\)\)$"):
        BallSystem(p, np.inf)


def test_site_profile_error_names_family_and_simplex(monkeypatch):
    def fail(*args):
        raise GeometryError("no face")
    monkeypatch.setattr(ball_volumes, "_interval_profile", fail)
    p = PointConfiguration.from_points([[0, 0], [1, 0], [0.3, 0.8]])
    system = BallSystem(p, np.inf)
    with pytest.raises(GeometryError, match=r"^no face \(nearest face of sites \(0, 1\)\)$"):
        system.nearest_profiles


def test_farthest_neighbours_skip_interior_and_hull_edge_sites():
    # site 2 is on the bottom hull edge, site 5 inside the hull: neither is
    # in a furthest-site simplex
    p = PointConfiguration.from_points(
        [[0, 0], [2, 0], [1, 0], [2, 1], [0, 1], [0.7, 0.4]])
    system = BallSystem(p, np.inf)
    far = system.farthest_profiles
    assert far[2] is None and far[5] is None
    assert all(far[i] is not None for i in (0, 1, 3, 4))
    assert all(prof is not None for prof in system.nearest_profiles)


def lifted(dim, n_pts):
    """Random sites as verify lift embeds them in E^(n+2)."""
    p = random_config(np.random.default_rng([dim, n_pts]), dim, n_pts)
    return embed(p, dim + 2).points.tolist()


def _grid(*sides):
    return np.array(list(itertools.product(*(range(k) for k in sides))), dtype=float)


@pytest.mark.parametrize("points", [
    [[0, 0], [1, 0], [2.5, 0], [4, 0]],                            # collinear
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1.2, 0], [0.3, 0.4, 0]],  # coplanar
    [[0, 0], [1, 0]],                                               # N <= n
    [[0, 0], [1, 0], [0.3, 0.8]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1]],
    lifted(2, 3), lifted(2, 6), lifted(2, 12), lifted(3, 5),
    # cospherical cells, which qhull splits into simplices, flat ones among them
    np.vstack((np.eye(3), -np.eye(3))),
    [p for p in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, p)) == 2],
    np.vstack((_grid(2, 2, 2), [[0.5, 0.5, 0.5]])),
    np.vstack((_grid(2, 2), [[0.5, 0.5]])),
    np.column_stack((np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3))),
    _grid(3, 3), _grid(4, 4),
], ids=["collinear-2d", "coplanar-3d", "pair-2d", "triangle-2d", "triangle-3d",
        "tetrahedron-3d", "lifted-2d-N3", "lifted-2d-N6", "lifted-2d-N12", "lifted-3d-N5",
        "octahedron", "cuboctahedron", "cube-centre", "square-centre", "hexagon",
        "lattice-3x3", "lattice-4x4"])
def test_fallback_inputs_match_all_bisectors(points):
    # sites in a lower flat are triangulated in it, and their regions are
    # prisms over the flat's regions; k + 1 sites spanning a k-flat are
    # their own simplex; each cell of cospherical sites is pulled into
    # simplices of its own
    p = PointConfiguration.from_points(points)
    assert_same_system(p)
    assert_same_system(p, r_max=0.7 * p.diameter)


@pytest.mark.parametrize("points", [[[0.0]], [[0.0], [1.0]], [[0.0], [2.5], [1.0], [-0.4]]],
                         ids=["one-site", "pair", "four-sites"])
def test_one_dimensional_inputs_match_all_bisectors(points):
    p = PointConfiguration.from_points(points)
    if p.n_points == 1:
        # one unit interval: union and intersection of length 2r
        system = BallSystem(p, 10.0)
        assert system.union_volume(1.5) == pytest.approx(3.0, rel=REL)
        assert system.intersection_volume(1.5) == pytest.approx(3.0, rel=REL)
        return
    assert_same_system(p)
    assert_same_system(p, r_max=0.7 * p.diameter)


@pytest.mark.parametrize("points, faces", [
    # per family: 5 edges, the diagonal's face is a point
    ([[0, 0], [1, 0], [1, 1], [0, 1]], {2: 4 + 4, 1: 4 + 4}),
    # per family: 12 cube edges and 12 hull triangles (nearest faces: rays);
    # the faces of inner triangles, face and body diagonals are the centre
    ([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
     {3: 8 + 8, 2: 12 + 12, 1: 12 + 12}),
    # a hull-edge point; the farthest family is a cocircular rectangle
    ([[0, 0], [2, 0], [1, 0], [2, 1], [0, 1], [0.7, 0.4]], {2: 6 + 4, 1: 10 + 4}),
], ids=["unit-square", "unit-cube", "hull-edge"])
def test_degenerate_inputs_match_all_bisectors(points, faces, face_builds):
    p = PointConfiguration.from_points(points)
    read_profiles(assert_same_system(p))
    # faces of zero extent are dropped; qhull cannot build the furthest-site
    # triangulation of the cospherical square and cube, which then are one
    # cell of the farthest family
    assert face_builds == faces
    assert_same_system(p, r_max=0.7 * p.diameter)


def _box_mean_width(sides):
    # kappa_(n-1) V_1: V_1 of a box is the sum of its edge lengths along the axes
    return unit_ball_volume(len(sides) - 1) * sum(k - 1 for k in sides)


@pytest.mark.parametrize("points, mean_width", [
    (_grid(2, 2, 2, 2), _box_mean_width((2, 2, 2, 2))),
    (_grid(3, 3, 3), _box_mean_width((3, 3, 3))),
    (_grid(4, 3, 2), _box_mean_width((4, 3, 2))),
    (np.vstack((_grid(2, 2, 2, 2), [[0.5] * 4])), _box_mean_width((2, 2, 2, 2))),
    (_grid(2, 2, 3, 2), _box_mean_width((2, 2, 3, 2))),
], ids=["4-cube", "lattice-3x3x3", "lattice-4x3x2", "4-cube-centre", "lattice-2x2x3x2"])
def test_lattices_have_the_ball_and_mean_width_at_infinity(points, mean_width):
    system = BallSystem(PointConfiguration.from_points(points), np.inf)
    delta = unit_ball_volume(points.shape[1])
    for which, sign in (("union", 1.0), ("intersection", -1.0)):
        lead, second = system.laurent_coefficients(which)
        assert lead == pytest.approx(delta, rel=1e-12)
        assert second == pytest.approx(sign * mean_width, rel=1e-12)


def test_jittered_lattice_volumes_do_not_depend_on_r_max():
    # slivers of the jittered grid put breakpoints near 1e5; one quadrature
    # piece spanning [2, 8e4] once read the union at r = 5 as 910.27 built to
    # infinity, 888.54 built to r = 6 (Monte Carlo: 889.17 +- 0.50)
    p = PointConfiguration.from_points(
        _grid(3, 2, 2) + 1e-5 * np.random.default_rng(0).standard_normal((12, 3)))
    radii = np.linspace(0.3, 5.0, 12)
    to_infinity, to_six = BallSystem(p, np.inf), BallSystem(p, 6.0)
    for f in ("union_volume", "intersection_volume"):
        assert getattr(to_infinity, f)(radii) == pytest.approx(getattr(to_six, f)(radii),
                                                               rel=1e-10, abs=1e-10)


def test_large_offset_matches_all_bisectors():
    # sites a few units apart, 1e6 away from the origin (the far box of the
    # max-margin solve then cancels in its roundoff test)
    base = np.array([[0.0, 0.0], [10.0, 1.0], [4.0, 9.0], [-6.0, 7.0], [-8.0, -3.0],
                     [1.0, -9.0], [9.0, -7.0], [2.0, 3.0], [-3.0, -1.0]])
    offset = PointConfiguration.from_points(base + 1e6)
    pruned = assert_same_system(offset, r_max=3.0 * offset.diameter)
    unshifted = BallSystem(PointConfiguration.from_points(base), 3.0 * offset.diameter)
    radii = np.linspace(0.1, 2.9, 8) * offset.diameter
    # coordinates of 1e6 leave about 1e-10 of relative precision in the sites
    assert pruned.union_volume(radii) == pytest.approx(unshifted.union_volume(radii),
                                                       rel=1e-8)


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
CUBE = np.array(list(itertools.product(range(2), repeat=3)), dtype=float)


@pytest.mark.parametrize("sites, moved, j", [
    # the corner (0, 1) moved by 1e-9 gives a diagonal face of length ~1e-9
    (SQUARE, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1e-9, 1.0]]), 1e-9),
    # sites moved by 1e-6 split the cube's centre into Voronoi vertices 1e-6
    # apart, joined by thin faces whose profiles halve pieces finer than the
    # spacing of doubles near their onsets
    (CUBE, CUBE + 1e-6 * np.random.default_rng([6, 7]).standard_normal(CUBE.shape), 1e-6),
], ids=["square-corner", "cube-jitter"])
def test_jittered_lattice_matches_the_lattice(sites, moved, j):
    got = BallSystem(PointConfiguration.from_points(moved), np.inf)
    want = BallSystem(PointConfiguration.from_points(sites), np.inf)
    radii = np.linspace(0.05, 2.0, 27)
    ball = unit_ball_volume(sites.shape[1]) * radii ** sites.shape[1]
    # boundaries move by O(sqrt(j)) just past an onset; volumes by O(j)
    for f in ("union_volume", "intersection_volume"):
        assert np.max(np.abs(getattr(got, f)(radii) - getattr(want, f)(radii)) / ball) < 10 * j


def test_corner_moved_cube_builds_to_infinity():
    # sliver tetrahedra with circumcentres far out; facets between the two
    # on-facet tolerances it once had were counted twice (union a_n 10.47)
    pts = CUBE.copy()
    pts[7] += 1e-9
    system = BallSystem(PointConfiguration.from_points(pts), np.inf)
    for which in ("union", "intersection"):
        assert system.laurent_coefficients(which, 1)[0] == pytest.approx(4 * math.pi / 3,
                                                                         rel=1e-6)


@pytest.mark.parametrize("sides, j, seed, r_max", [
    ((2, 2, 2, 2), 1e-12, 1, np.inf),   # unchecked, union a_n reads 33% high
    ((2, 2, 2, 2), 1e-12, 1, 5.0),
    ((2, 2, 2), 1e-14, 0, 3.0),         # unchecked, union volumes read up to 15% high
    # a hull-edge site 1e-13 out of line: its wedge is too thin to keep, and
    # the intersection's a_(n-1) reads -7 for -8 while both a_n are right
    ((3, 3), 1e-13, 0, np.inf),
], ids=["4-cube-to-infinity", "4-cube-finite", "cube-finite", "lattice-3x3"])
def test_nearly_cospherical_sets_raise_instead_of_a_wrong_volume(sides, j, seed, r_max):
    # slivers of sites cospherical to about 1e-12 keep only eps / j of the
    # digits of their circumcentres; the families' identities expose it
    grid = _grid(*sides)
    pts = grid + j * np.random.default_rng(seed).standard_normal(grid.shape)
    with pytest.raises(NumericalError, match=r"do not cancel|not delta_n"):
        BallSystem(PointConfiguration.from_points(pts), r_max)


@pytest.mark.parametrize("sides", [(3, 3), (3, 2, 2)])
def test_thin_far_wedges_keep_their_share_of_the_mean_width(sides):
    # jitter 1e-12 pushes hull-edge sites out of line: their farthest regions
    # are wedges about 1e-12 wide with apices about 1e12 out, which carry 2 of
    # the 3x3's a_(n-1) and must not be dropped as of zero extent
    grid = _grid(*sides)
    p = PointConfiguration.from_points(
        grid + 1e-12 * np.random.default_rng(0).standard_normal(grid.shape))
    system = BallSystem(p, np.inf)
    mean_width = mean_width_exact(p).value
    assert system.laurent_coefficients("union")[1] == pytest.approx(mean_width, rel=1e-9)
    assert system.laurent_coefficients("intersection")[1] == pytest.approx(-mean_width, rel=1e-9)


def test_lattice_error_names_its_region(monkeypatch):
    make = ball_volumes._profile_from_faces

    def fail_regions(n, *args):
        if n == 3:
            raise NumericalError("no region")
        return make(n, *args)
    monkeypatch.setattr(ball_volumes, "_profile_from_faces", fail_regions)
    with pytest.raises(NumericalError, match=r"^no region \(nearest region of site 0\)$"):
        BallSystem(PointConfiguration.from_points(CUBE), np.inf)


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


# ---------------------------------------------------------------------------
# nearly cospherical input
# ---------------------------------------------------------------------------

@st.composite
def jittered_grid(draw):
    """An integer grid, 2 or 3 sites a side in 2-d or 3-d, jittered by 10^-k, k = 3..8."""
    dim = draw(st.sampled_from([2, 3]))
    pts = _grid(*draw(st.lists(st.integers(2, 3), min_size=dim, max_size=dim)))
    jitter = 10.0 ** -draw(st.integers(3, 8))
    return pts + jitter * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        pts.shape)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(jittered_grid())
def test_nearly_cospherical_sets_have_the_ball_at_infinity(pts):
    # slivers of nearly cospherical sites have circumcentres far out
    system = BallSystem(PointConfiguration.from_points(pts), np.inf)
    for which in ("union", "intersection"):
        assert system.laurent_coefficients(which, 1)[0] == pytest.approx(
            unit_ball_volume(pts.shape[1]), rel=1e-6)


# ---------------------------------------------------------------------------
# flat input: isometric placement and scaling
# ---------------------------------------------------------------------------

@st.composite
def planar_lattice(draw):
    """Distinct planar lattice sites (possibly collinear) and a seed."""
    n_pts = draw(st.integers(min_value=2, max_value=7))
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=n_pts, max_size=n_pts, unique=True))
    return np.array(cells, dtype=float), draw(st.integers(0, 2**32 - 1))


def _flat_volumes(p, radii):
    system = BallSystem(p, radii[-1])
    return np.concatenate([system.union_volume(radii), system.intersection_volume(radii)])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(planar_lattice(), st.sampled_from([3, 4]))
def test_planar_sets_placed_by_an_isometry_match_their_embedding(data, dim):
    pts, seed = data
    rng = np.random.default_rng(seed)
    flat = embed(PointConfiguration.from_points(pts), dim)
    placed = PointConfiguration.from_points(
        flat.points @ random_orthogonal(rng, dim).T + rng.uniform(-5.0, 5.0, dim))
    radii = np.linspace(0.05, 1.45, 9) * flat.diameter
    want = _flat_volumes(flat, radii)
    got = _flat_volumes(placed, radii)
    ball = unit_ball_volume(dim) * radii[-1] ** dim
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * ball)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(planar_lattice(), st.sampled_from([3, 4]), st.sampled_from([1e-3, 1e3]))
def test_flat_volumes_scale_as_the_dimension(data, dim, lam):
    # V(lam P, lam r) = lam^n V(P, r)
    p = embed(PointConfiguration.from_points(data[0]), dim)
    radii = np.linspace(0.05, 1.45, 9) * p.diameter
    want = lam ** dim * _flat_volumes(p, radii)
    got = _flat_volumes(PointConfiguration.from_points(lam * p.points), lam * radii)
    ball = unit_ball_volume(dim) * (lam * radii[-1]) ** dim
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * ball)
