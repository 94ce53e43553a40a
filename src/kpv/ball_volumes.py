"""Volumes and boundary volumes of unions and intersections of equal balls.

The decomposition: the union of balls of radius r is the disjoint (up to
measure zero) union of the nearest-point Voronoi regions truncated at radius
r around their sites, and the intersection is the analogous union of
truncated farthest-point regions.  Each truncated region is a ball-truncated
polyhedral set, so its radial volume profile comes from the recursive ODE
engine; summing profiles per site gives exact volumes, and summing the ODE
right-hand sides gives exact boundary measures.

The regions' faces are read off the Delaunay triangulation of the sites in
the k-flat they span (the furthest-site one for farthest regions; k + 1
sites are their own simplex, and sites on a line pair up in order along
it): the face dual to a simplex sigma has its base point at sigma's
circumcentre and its facets dual to the simplices one site larger, so each
face profile is built once per simplex and shared by its sites, with no
facet extraction.  qhull splits each cell of cospherical sites into
simplices, flat ones among them; the cell is replaced by its pulling
triangulation, so every simplex has a circumcentre and the faces inside a
cell have zero extent.  The geometry stays in the sites' own coordinates;
only the triangulation sees coordinates in the flat.  Every family of every
input is built this way and checked by two exact identities (BallSystem);
nearest_voronoi and farthest_voronoi cut a region out by all the bisectors.

Sites spanning the plane skip the per-face profiles: their regions' facets
are the edges of the triangulation, so each family is one facet table with a
row per (site, edge) incidence, built and evaluated in array passes
(_PlanarFamily).  The face lattice (_Lattice) serves sites in a lower flat
and every dimension from three up.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from .configurations import PointConfiguration, distance_matrix
from .errors import GeometryError, InputError, NumericalError
from .polyhedra import Halfspace, PolyhedralSet
from .truncated_volume import (_EPS, _check_range, _interval_profile, _PlanarPieces,
                               _profile_from_faces, _running_sum, _solid_angle_fraction,
                               unit_ball_volume)

# sites closer than this share of the diameter count as duplicates
DISTINCT_SITE_TOL = 1e-9
# boundary measures are read only at radii at least BREAKPOINT_TOL * r away
# from every profile breakpoint
BREAKPOINT_TOL = 1e-9
# (facet rows) x (radii) evaluated at a time by a planar family: larger passes
# leave the cache and run slower
_CHUNK_ELEMENTS = 2 ** 14


def _check_distinct(p: PointConfiguration):
    if p.n_points < 2:
        return
    d = distance_matrix(p).entries
    off = d[np.triu_indices(p.n_points, k=1)]
    if np.min(off) <= DISTINCT_SITE_TOL * p.diameter:
        raise GeometryError(
            "configuration has duplicate (or nearly duplicate) sites; "
            "deduplicate upstream before building Voronoi regions")


def _bisector(pi: np.ndarray, pj: np.ndarray) -> Halfspace:
    """Halfspace of points at least as close to pi as to pj."""
    v = pj - pi
    return Halfspace(normal=v, offset=0.5 * float(np.dot(pj, pj) - np.dot(pi, pi)))


def _affine_rank(centred: np.ndarray) -> tuple[int, np.ndarray]:
    """Dimension of the flat spanned by centred sites, and its directions (rows)."""
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    return int(np.sum(svals > 1e-12 * svals[0])), vt


def _voronoi(p: PointConfiguration, kind: str, i: int) -> PolyhedralSet:
    """Region of site i cut out by the bisectors with every other site."""
    _check_distinct(p)
    if not 0 <= i < p.n_points:
        raise InputError(f"site index {i} out of range")
    hs = tuple(_bisector(p.points[i], p.points[j]) for j in range(p.n_points) if j != i)
    if kind == "farthest":
        hs = tuple(h.flipped() for h in hs)
    return PolyhedralSet(p.dimension, hs)


def nearest_voronoi(p: PointConfiguration, i: int) -> PolyhedralSet:
    """Nearest-point region of site i: all bisector halfspaces toward i."""
    return _voronoi(p, "nearest", i)


def farthest_voronoi(p: PointConfiguration, i: int) -> PolyhedralSet:
    """Farthest-point region of site i: empty (negative margin) unless i is a hull vertex."""
    return _voronoi(p, "farthest", i)


# ---------------------------------------------------------------------------
# the face lattice of a triangulation in the sites' flat
# ---------------------------------------------------------------------------

def _cells(tri, sites: np.ndarray, kind: str):
    """The simplices that are cells on their own, and the sorted sites of every other cell.

    qhull (option Qt) splits a non-simplicial facet into simplices, flat ones
    included, that keep its hyperplane; a site it sets aside (option Qc) raises.
    """
    if tri.coplanar.size:
        raise NumericalError(f"qhull drops site {sites[tri.coplanar[0, 0]]} ({kind} family)")
    _, label, counts = np.unique(tri.equations, axis=0, return_inverse=True, return_counts=True)
    label = label.ravel()
    return (tri.simplices[counts[label] == 1],
            [np.unique(tri.simplices[label == c]) for c in np.flatnonzero(counts > 1)])


def _pulling(coords: np.ndarray, cell: np.ndarray, dim: int, kind: str) -> np.ndarray:
    """Pulling triangulation of the dim-polytope whose vertices are coords[cell].

    The lowest site of the sorted cell is coned over the triangulated facets
    that miss it, so cells that share a face triangulate it alike.
    """
    if cell.size == dim + 1:
        return cell[None, :]
    pts = coords[cell] - coords[cell].mean(axis=0)
    try:
        hull = ConvexHull(pts @ _affine_rank(pts)[1][:dim].T, qhull_options="Qc")
    except QhullError as exc:
        raise NumericalError(f"qhull cannot triangulate a cell ({kind} family)") from exc
    alone, merged = _cells(hull, cell, kind)
    tris = np.concatenate([_pulling(coords, cell[np.sort(f)], dim - 1, kind)
                           for f in [*alone, *merged] if 0 not in f])
    return np.column_stack((np.full(len(tris), cell[0]), tris))


def _triangulation(centred: np.ndarray, rank: int, basis: np.ndarray, kind: str) -> np.ndarray:
    """Simplices of the (furthest-site) Delaunay triangulation of the sites in their flat.

    The sites span a flat of dimension rank along the first rank rows of
    basis.  rank + 1 sites are their own simplex; sites on a line pair up
    with their neighbours in order along it (the furthest-site triangulation
    is the outermost pair); otherwise qhull triangulates their coordinates
    in the flat, with each cell of cospherical sites pulled (_pulling), and
    cospherical sites it cannot triangulate furthest-site are one cell.
    """
    n_pts, n = centred.shape
    furthest = kind == "farthest"
    if n_pts == rank + 1:
        return np.arange(n_pts)[None, :]
    if rank == 1:
        order = np.argsort(centred @ basis[0])
        return order[None, [0, -1]] if furthest else np.column_stack((order[:-1], order[1:]))
    coords = centred if rank == n else centred @ basis[:rank].T
    try:
        tri = Delaunay(coords, furthest_site=furthest)
    except QhullError as exc:
        # the least-squares sphere |x - c|^2 = R^2, linear in c and R^2 - |c|^2
        lifted, sq = np.column_stack((2.0 * coords, np.ones(n_pts))), np.sum(coords**2, axis=1)
        fit = lifted @ np.linalg.lstsq(lifted, sq, rcond=None)[0]
        if not furthest or np.max(np.abs(fit - sq)) > 1e-12 * np.max(sq):
            raise NumericalError(f"qhull cannot triangulate the sites ({kind} family)") from exc
        return _pulling(coords, np.arange(n_pts), rank, kind)
    alone, merged = _cells(tri, np.arange(n_pts), kind)
    return np.concatenate([alone] + [_pulling(coords, cell, rank, kind) for cell in merged])


def _circumcentres(points: np.ndarray, groups: np.ndarray, kind: str):
    """Circumcentres of simplices (rows of site indices) and their orthogonal flats.

    Returns (centres, normals): normals[k] is an orthonormal basis (rows) of
    the directions orthogonal to simplex k, along which its Voronoi face
    extends.  Raises NumericalError, naming the family, when a solve is singular.
    """
    verts = points[groups]
    if groups.shape[1] == 1:
        return verts[:, 0], np.broadcast_to(np.eye(points.shape[1]),
                                            (groups.shape[0],) + (points.shape[1],) * 2)
    edges = verts[:, 1:] - verts[:, :1]
    u, svals, vt = np.linalg.svd(edges)
    if not np.all(svals[:, -1] > _EPS * svals[:, 0]):
        raise NumericalError(f"singular circumcentre solve ({kind} family)")
    m = edges.shape[1]
    if m == 1:
        # the midpoint, free of the solve's rounding
        return 0.5 * (verts[:, 0] + verts[:, 1]), vt[:, 1:]
    # the centre is p_0 + x with 2 <x, e_j> = |e_j|^2 and x in the span of the edges
    y = np.einsum("kji,kj->ki", u, 0.5 * np.sum(edges * edges, axis=2)) / svals
    return verts[:, 0] + np.einsum("ki,kin->kn", y, vt[:, :m]), vt[:, m:]


def _where(kind: str, sigma) -> str:
    """The name of the face of a family dual to the simplex sigma (its sites)."""
    sites = tuple(int(i) for i in sigma)
    return (f"{kind} region of site {sites[0]}" if len(sites) == 1 else
            f"{kind} face of sites {sites}")


@contextlib.contextmanager
def _located(kind: str, sigma):
    """Name the face dual to sigma in a GeometryError or NumericalError raised inside."""
    try:
        yield
    except (GeometryError, NumericalError) as exc:
        raise type(exc)(f"{exc} ({_where(kind, sigma)})") from exc


def _lattice_profiles(points: np.ndarray, simplices: np.ndarray, kind: str,
                      r_max: float, scale: float) -> list:
    """Per-site region profiles of one family, read off its triangulation.

    The sites span a k-flat of E^n and the simplices (k + 1 sites each)
    triangulate it.  The face of a region dual to the simplex sigma is the
    set F_sigma of points equidistant from sigma's sites and nearer to
    (farther from) them than to every other site.  Its base point is sigma's
    circumcentre c_sigma, whichever site the recursion started from, so its
    profile is built once and shared by every site of sigma.  The face of a
    full simplex is the (n - k)-flat through its centre; the facets of any
    other face are the faces F_tau of the simplices tau = sigma + {j} in the
    triangulation, at distance |c_tau - c_sigma|, with the sign of
    |c_sigma - p_j| - R_sigma (reversed for farthest regions).  Faces of zero
    extent (sites on a common sphere) are dropped.
    """
    lattice = _Lattice(points, simplices, kind == "nearest", scale)
    n = points.shape[1]
    k = simplices.shape[1] - 1
    by_size: list[dict] = [{} for _ in range(k + 1)]    # sigma -> its full simplices
    for t, simplex in enumerate(lattice.full):
        for m in range(1, k + 1):
            for sigma in itertools.combinations(simplex, m):
                by_size[m].setdefault(sigma, []).append(t)
    solved = _circumcentres(points, np.array(lattice.full), kind)
    lattice.vertices = solved[0]
    # the n - k directions off the sites' flat, along which every face extends
    lattice.off_flat = scale * solved[1][0]
    flat = None if k == n else _profile_from_faces(n - k, 1.0, [], np.inf, 0.0, scale)
    for simplex, c in zip(lattice.full, lattice.vertices):
        lattice.centre[tuple(simplex)] = c
        lattice.profile[tuple(simplex)] = flat
    for m in range(k, 0, -1):
        faces = list(by_size[m])
        for sigma, c, normal in zip(faces, *_circumcentres(points, np.array(faces), kind)):
            lattice.centre[sigma] = c
            star = by_size[m][sigma]
            if m == k and len(star) == 1:
                lattice.add_ray(sigma, star[0], c, normal)
            with _located(kind, sigma):
                lattice.profile[sigma] = (
                    lattice.segment(sigma, star, c, normal[0]) if normal.shape[0] == 1 else
                    lattice.face(sigma, star, c, normal, r_max if m == 1 else np.inf))
    return [lattice.profile.get((i,)) for i in range(points.shape[0])]


class _Lattice:
    """Face profiles of one family, built from the smallest faces up to the regions."""

    def __init__(self, points, simplices, nearest: bool, scale: float):
        self.points = points
        self.full = np.sort(simplices, axis=1).tolist()
        self.nearest = nearest
        self.scale = scale
        self.tol = 1e-12 * scale
        self.vertices = None        # circumcentres of the full simplices
        self.off_flat = None        # directions off the sites' flat, times scale
        self.centre: dict = {}      # sigma -> c_sigma
        self.profile: dict = {}     # sigma -> profile of F_sigma, None if of zero extent
        self.rays: dict = {}        # ridge -> line along which its face runs off

    def add_ray(self, sigma, t, c, normal):
        """Record the ray of the hull ridge sigma, whose face leaves simplex t's centre.

        It runs along the component of p_j - c_sigma in sigma's normal
        space, j the other site of t (away from p_j for nearest regions,
        toward it for farthest ones; only its line enters the extent test).
        """
        j = next(v for v in self.full[t] if v not in sigma)
        v = normal.T @ (normal @ (self.points[j] - c))
        self.rays[sigma] = v / np.linalg.norm(v)

    def segment(self, sigma, star, c, u):
        """Exact profile of the 1-d face F_sigma about c_sigma, or None if a point.

        Its ends are the circumcentres of the one or two simplices that
        contain sigma, at <c_tau - c_sigma, u> along the face's line; each
        bounds the face from the side away from (farthest: toward) the
        simplex's other site.
        """
        a, b = -np.inf, np.inf
        for t in star:
            k = next(v for v in self.full[t] if v not in sigma)
            end = float(np.dot(self.vertices[t] - c, u))
            if (np.dot(self.points[k] - c, u) > 0.0) == self.nearest:
                b = min(b, end)
            else:
                a = max(a, end)
        if b - a <= 2.0 * self.tol:
            return None
        return _interval_profile(a, b, 0.0)

    def face(self, sigma, star, c, normal, r_max):
        """Profile of the face F_sigma (dimension >= 2) about c_sigma; None at zero extent."""
        d = normal.shape[0]
        # F_sigma is the hull of its vertices plus the cone of its rays, times
        # the directions off the flat: it has zero extent unless their
        # differences span its d directions.  Rays count down to 1e-14 of angle:
        # a thin wedge has its apex ~1 / angle out and an O(1) share of a_(n-1)
        spans = [self.vertices[star[1:]] - self.vertices[star[0]], self.off_flat]
        cofaces = {}                # tau -> the site k of tau = sigma + {k}
        for t in star:
            for k in self.full[t]:
                if k in sigma:
                    continue
                cofaces[tuple(sorted(sigma + (k,)))] = k
                ridge = tuple(v for v in self.full[t] if v != k)
                if ridge in self.rays:
                    spans.append(100.0 * self.scale * self.rays[ridge][None, :])
        spans = np.concatenate(spans)
        if spans.shape[0] < d or np.linalg.svd(spans, compute_uv=False)[d - 1] <= self.tol:
            return None

        sites = list(cofaces.values())
        h = np.linalg.norm(np.array([self.centre[tau] for tau in cofaces]) - c, axis=1)
        dist = np.linalg.norm(self.points[sites] - c, axis=1)
        inside = dist >= np.linalg.norm(self.points[sigma[0]] - c)
        eps = np.where(inside == self.nearest, 1, -1)
        # the distance below which _profile_from_faces drops a facet
        on = h <= self.tol
        facets = [(float(hk), int(ek), self.profile[tau])
                  for tau, hk, ek in zip(cofaces, h, eps) if self.profile[tau] is not None]
        violated = bool(np.any(~on & (eps < 0)))
        if violated:
            omega = 0.0
        elif not on.any():
            omega = 1.0
        else:
            # outward normals in the face's flat: toward p_k for nearest regions
            out = (self.points[np.array(sites)[on]] - c) @ normal.T
            out /= np.linalg.norm(out, axis=1, keepdims=True)
            omega = _solid_angle_fraction(list(out if self.nearest else -out), d)
        return _profile_from_faces(d, omega, facets, r_max, np.inf if violated else 0.0,
                                   self.scale)


class _SiteProfiles:
    """A family as its sites' region profiles (None for a site without a region)."""

    def __init__(self, profiles: list):
        self.profiles = profiles
        self.breakpoints = np.array([bp for prof in profiles if prof is not None
                                     for bp in prof.breakpoints])

    def evaluate(self, r: np.ndarray, derivative: bool) -> np.ndarray:
        """Sum of the regions' volumes (boundaries), site by site, at radii r > 0."""
        total = np.zeros(r.shape)
        for prof in self.profiles:
            if prof is not None:
                total = total + (prof.derivative(r) if derivative else prof.value(r))
        return total

    def taylor(self, order: int) -> np.ndarray:
        """The sum of the regions' taylor(order), site by site."""
        return sum((prof.taylor(order) for prof in self.profiles if prof is not None),
                   np.zeros(order + 1))


def _segment_ends(points, tris, centres, nearest: bool):
    """The 1-d faces of a planar family, one per edge of its triangulation.

    tris holds the sorted sites of each triangle and centres their
    circumcentres.  Returns (edges, u, a, b, hull): the sorted site pairs,
    a unit normal u of each edge, the ends a <= b of its face along the line
    m + x u through its midpoint m, and whether it is a hull edge.  Each
    triangle t at an edge bounds the face at <c_t - m, u>, from the side away
    from (farthest: toward) t's third site; a hull edge's face is a ray.
    """
    n_pts = points.shape[0]
    # the edge opposite each vertex of each triangle
    pairs = tris[:, [[1, 2], [0, 2], [0, 1]]].reshape(-1, 2)
    keys, edge_of = np.unique(pairs[:, 0] * n_pts + pairs[:, 1], return_inverse=True)
    edges = np.column_stack(np.divmod(keys, n_pts))
    p, q = points[edges[:, 0]], points[edges[:, 1]]
    mid = 0.5 * (p + q)
    u = (q - p)[:, ::-1] * np.array([-1.0, 1.0])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    along = u[edge_of]
    end = np.sum((np.repeat(centres, 3, axis=0) - mid[edge_of]) * along, axis=1)
    ahead = (np.sum((points[tris.ravel()] - mid[edge_of]) * along, axis=1) > 0.0) == nearest
    a, b = np.full(len(edges), -np.inf), np.full(len(edges), np.inf)
    np.maximum.at(a, edge_of[~ahead], end[~ahead])
    np.minimum.at(b, edge_of[ahead], end[ahead])
    return edges, u, a, b, np.bincount(edge_of, minlength=len(edges)) == 1


def _region_extent(n_pts: int, tris, centres, edges, u, hull, scale: float) -> np.ndarray:
    """Whether each site's planar region has extent, as _Lattice.face decides it.

    It has unless the differences of its star's circumcentres and the lines
    of its hull edges' rays (counted 100 scale long) span no plane: their
    second singular value is at most 1e-12 scale.  Each site's vectors are
    stacked, zero rows padding, for one batched SVD.
    """
    first = np.zeros((n_pts, 2))
    in_star, t = np.unique(tris.ravel(), return_index=True)
    first[in_star] = centres[t // 3]
    site = np.concatenate((tris.ravel(), edges[hull].ravel()))
    vectors = np.concatenate((np.repeat(centres, 3, axis=0) - first[tris.ravel()],
                              np.repeat(100.0 * scale * u[hull], 2, axis=0)))
    order = np.argsort(site, kind="stable")
    site, vectors = site[order], vectors[order]
    spans = np.zeros((n_pts, max(2, int(np.max(np.bincount(site)))), 2))
    spans[site, np.arange(site.size) - np.searchsorted(site, site)] = vectors
    return np.linalg.svd(spans, compute_uv=False)[:, 1] > 1e-12 * scale


class _PlanarFamily:
    """One family of sites spanning the plane, as one facet table.

    The table has a row per (site, edge) incidence of the family's
    triangulation, sorted by site and then by the edge's other site: the
    facet of the site's region dual to the edge, at distance h = |p_j - p_i| / 2
    with sign eps = 1 (farthest: -1), whose own profile is the edge's face
    (_segment_ends) about the edge's midpoint.  Faces and regions of zero
    extent are dropped as _Lattice drops them, and every region has
    solid-angle fraction omega = 1 (farthest: 0) at its site.  A region's
    volume is r^2 (omega pi - I(r)), I the sum of its rows' shares of
    _PlanarPieces, and its boundary (2 V - S) / r, S = sum eps h V_i(rho)
    from the same columns in the same pass.  Each sum runs in table order, over a
    region's rows and then over the regions: so the family's sums carry the
    bits of the sums of its sites' own profiles (profiles, built on first
    access, as _Lattice builds them), and a batch of radii gives the bits
    each radius gives alone.
    """

    def __init__(self, points, simplices, kind: str, r_max: float, scale: float):
        self.kind, self.r_max, self.scale = kind, r_max, scale
        nearest = kind == "nearest"
        tris = np.sort(simplices, axis=1)
        centres = _circumcentres(points, tris, kind)[0]
        self.edges, u, self.a, self.b, hull = _segment_ends(points, tris, centres, nearest)
        bad = np.flatnonzero(np.isnan(self.a) | np.isnan(self.b))
        if bad.size:
            raise NumericalError(f"segment ends are not numbers "
                                 f"({_where(kind, self.edges[bad[0]])})")
        self.extent = _region_extent(points.shape[0], tris, centres, self.edges, u, hull, scale)
        keep = self.b - self.a > 2e-12 * scale
        # the table: (site, edge) rows by site and then by the edge's other site
        site = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        edge = np.tile(np.arange(len(self.edges)), 2)
        rows = np.lexsort((self.edges[edge, 0] + self.edges[edge, 1] - site, site))
        rows = rows[keep[edge[rows]] & self.extent[site[rows]]]
        self.site, self.edge = site[rows], edge[rows]
        h = 0.5 * np.linalg.norm(points[self.edges[:, 1]] - points[self.edges[:, 0]], axis=1)
        self.h = h[self.edge]
        self.eps = 1.0 if nearest else -1.0
        self.omega = 1.0 if nearest else 0.0
        self.cone_coef = self.omega * unit_ball_volume(2)
        # the columns run slot by slot, a slot holding the k-th row of every
        # region (a row of a zero segment, exactly 0 in every sum, where a region
        # has fewer), so that a region's terms lie one region-count apart
        place = np.arange(rows.size) - np.searchsorted(self.site, self.site)
        self.regions, self.depth = int(np.sum(self.extent)), int(np.max(place, initial=0)) + 1
        column = place * self.regions + (np.cumsum(self.extent) - 1)[self.site]
        cells = self.depth * self.regions
        h_col, a_col, b_col = np.ones(cells), np.zeros(cells), np.zeros(cells)
        h_col[column], a_col[column], b_col[column] = self.h, self.a[self.edge], self.b[self.edge]
        self.ends = np.array([a_col, b_col])[:, :, None]
        self.pieces = _PlanarPieces(h_col, np.full(cells, self.eps), a_col, b_col,
                                    onset=not nearest)
        # every facet's breakpoints: h, and sqrt(h^2 + e^2) for the ends e of its
        # face, as _interval_profile and _profile_from_faces record them
        used = np.unique(self.edge)
        ends = np.abs(np.concatenate((self.a[used], self.b[used])))
        on = np.isfinite(ends) & (ends > 0.0)
        foot = np.concatenate((h[used], h[used]))[on]
        self.breakpoints = np.concatenate((h[used], np.sqrt(foot * foot + ends[on] ** 2)))
        self._profiles = None

    def _by_region(self, columns: np.ndarray) -> np.ndarray:
        """Column values summed region by region, each in table order."""
        return _running_sum(columns.reshape((self.depth, self.regions) + columns.shape[1:]))

    def evaluate(self, r: np.ndarray, derivative: bool) -> np.ndarray:
        """The family's volume (boundary) at radii r > 0, _CHUNK_ELEMENTS table cells at a time."""
        _check_range(self.r_max, float(np.max(r)))
        out = np.empty_like(r)
        step = max(1, _CHUNK_ELEMENTS // (self.depth * self.regions))
        a, b = self.ends
        for start in range(0, r.size, step):
            rr = r[start:start + step]
            share, rho = self.pieces.shares(rr)
            v = (self.cone_coef - self._by_region(share)) * rr ** 2
            if derivative:
                length = np.maximum(np.minimum(b, rho) - np.maximum(a, -rho), 0.0)
                v = (2 * v - self._by_region(self.pieces.eh * length)) / rr
            out[start:start + step] = _running_sum(v)
        return out

    def taylor(self, order: int) -> np.ndarray:
        """(w_0, ..., w_order) of the family's W(s) = s^2 V(1/s), order <= 2.

        A region's w_0 is omega pi - I(inf).  A facet's face, a line, a ray or
        a segment, has W_i(s) = lambda_0 + lambda_1 s with lambda_0 = 2, 1, 0
        and lambda_1 = 0, its end's distance from the foot point, its length:
        it adds eps h lambda_0 to w_1 and eps h lambda_1 / 2 to w_2.
        """
        a, b = self.ends[:, :, 0]
        lam = np.column_stack((np.isinf(a) * 1.0 + np.isinf(b),
                               np.where(np.isinf(b), 0.0, b) - np.where(np.isinf(a), 0.0, a)))
        w = np.column_stack((self.cone_coef - self._by_region(self.pieces.infinite_shares),
                             self._by_region(self.pieces.eh * lam) / [1.0, 2.0]))
        return _running_sum(np.vstack((np.zeros(3), w)))[:order + 1]

    @property
    def profiles(self) -> list:
        """Each site's region profile as _Lattice builds it (None: the site has no region)."""
        if self._profiles is None:
            segments, faces = {}, {}
            for i, e, h in zip(self.site.tolist(), self.edge.tolist(), self.h.tolist()):
                if e not in segments:
                    with _located(self.kind, self.edges[e]):
                        segments[e] = _interval_profile(float(self.a[e]), float(self.b[e]), 0.0)
                faces.setdefault(i, []).append((h, int(self.eps), segments[e]))
            self._profiles = [None] * self.extent.size
            for i in np.flatnonzero(self.extent).tolist():
                with _located(self.kind, (i,)):
                    self._profiles[i] = _profile_from_faces(
                        2, self.omega, faces.get(i, []), self.r_max,
                        0.0 if self.omega else np.inf, self.scale)
        return self._profiles


class BallSystem:
    """Union and intersection volumes of one configuration's balls, by radius.

    This is the way to evaluate them: the nearest and farthest families of
    regions are built once up to r_max (np.inf covers every radius), and
    union_volume, intersection_volume, union_boundary and
    intersection_boundary sum them at a radius or a whole array of radii in
    one pass, so radius scans (threshold searches, dense scans) stay cheap.
    A family is a facet table for sites spanning the plane and its sites'
    region profiles otherwise, the sites of a Delaunay simplex sharing its
    face's profile (see the module docstring).  Sums reduce in facet order
    within a region and then in ascending site order, so they carry the bits
    of the sums of nearest_profiles and farthest_profiles.  Built with
    r_max = np.inf, the system also carries the exact Laurent coefficients
    of both volume functions.
    """

    def __init__(self, p: PointConfiguration, r_max: float):
        _check_distinct(p)
        self.config = p
        self.r_max = float(r_max)
        self.dimension = p.dimension
        self.delta = unit_ball_volume(p.dimension)
        # every tolerance is relative to the configuration's extent
        scale = p.diameter if p.n_points > 1 else 1.0
        # volumes are translation-invariant; circumcentres about the centroid keep
        # their rounding relative to the configuration's extent, not its offset
        centred = p.points - p.points.mean(axis=0)
        rank, basis = _affine_rank(centred)
        self._nearest, self._farthest = (
            self._family(centred, _triangulation(centred, rank, basis, kind), kind, rank, scale)
            for kind in ("nearest", "farthest"))
        self.breakpoints = np.unique(np.concatenate((self._nearest.breakpoints,
                                                     self._farthest.breakpoints)))
        # the union's a_(n-1) is minus the intersection's, and to infinity both a_n
        # are delta_n: slivers of nearly cospherical sites, whose circumcentres keep
        # eps / jitter of their digits, break these identities by far more than 1e-6
        union, inter = (family.taylor(1)[1] for family in (self._nearest, self._farthest))
        if not abs(union + inter) <= 1e-6 * max(abs(union), abs(inter)):
            raise NumericalError(f"a_(n-1) of the union ({union:.12g}) and of the "
                                 f"intersection ({inter:.12g}) do not cancel")
        for which, kind in (("union", "nearest"), ("intersection", "farthest")):
            lead = self.laurent_coefficients(which)[0] if math.isinf(self.r_max) else self.delta
            if not abs(lead - self.delta) <= 1e-6 * self.delta:
                raise NumericalError(f"a_n = {lead:.12g}, not delta_n ({kind} family)")

    def _family(self, centred, simplices, kind: str, rank: int, scale: float):
        """One family: a facet table for sites spanning the plane, else the face lattice."""
        if rank == self.dimension == 2:
            return _PlanarFamily(centred, simplices, kind, self.r_max, scale)
        return _SiteProfiles(_lattice_profiles(centred, simplices, kind, self.r_max, scale))

    @property
    def nearest_profiles(self) -> list:
        """Each site's nearest-region profile (None for a site without a region)."""
        return self._nearest.profiles

    @property
    def farthest_profiles(self) -> list:
        """Each site's farthest-region profile (None for a site without a region)."""
        return self._farthest.profiles

    def _sum(self, family, r, derivative: bool = False):
        """A family's volume (or boundary) at a radius or an array of radii."""
        arr = np.asarray(r, dtype=float)
        total = np.zeros(arr.shape)
        pos = arr > 0.0
        if pos.any():
            total[pos] = family.evaluate(arr[pos], derivative)
        return float(total) if total.ndim == 0 else total

    def laurent_coefficients(self, which: str, terms: int = 2) -> tuple[float, ...]:
        """Exact (a_n, a_(n-1), ...) of the union or intersection volume at infinity.

        The first terms coefficients, 1 <= terms <= n + 1: the family's
        Taylor coefficients of W(s) = s^n V(1/s) at s = 0.  They need a
        system built with r_max = np.inf (InputError otherwise).
        """
        if which not in ("union", "intersection"):
            raise InputError(f"which must be 'union' or 'intersection', got {which!r}")
        if not 1 <= terms <= self.dimension + 1:
            raise InputError(f"terms must be in 1..{self.dimension + 1} (powers r^n .. r^0), "
                             f"got {terms}")
        if not math.isinf(self.r_max):
            raise InputError("Laurent coefficients need a system built with r_max=np.inf")
        family = self._nearest if which == "union" else self._farthest
        return tuple(float(c) for c in family.taylor(terms - 1))

    def union_volume(self, r):
        """Union volume at a radius (float) or an array of radii (array)."""
        return self._sum(self._nearest, r)

    def intersection_volume(self, r):
        """Intersection volume at a radius (float) or an array of radii (array)."""
        return self._sum(self._farthest, r)

    def _breakpoint_gap(self, r: np.ndarray) -> np.ndarray:
        """Distance from each radius to the nearest breakpoint."""
        k = np.searchsorted(self.breakpoints, r)
        left = self.breakpoints[np.maximum(k - 1, 0)]
        right = self.breakpoints[np.minimum(k, self.breakpoints.size - 1)]
        return np.minimum(np.abs(r - left), np.abs(right - r))

    def _check_off_breakpoint(self, r):
        if not self.breakpoints.size:
            return
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        tol = BREAKPOINT_TOL * np.abs(arr)
        bad = np.flatnonzero(self._breakpoint_gap(arr) < tol)
        if bad.size:
            rb, tb = float(arr[bad[0]]), float(tol[bad[0]])
            raise GeometryError(
                f"radius {rb:g} sits on a profile breakpoint (within {tb:g}); "
                f"offset the radius by at least {tb:g}")

    def off_breakpoint(self, r):
        """Nearest radius at least BREAKPOINT_TOL * r away from breakpoints.

        Radius grids built from the configuration diameter hit bisector
        distances exactly; callers scanning many radii nudge them with this
        instead of handling the breakpoint error.  Takes a radius or an array
        of radii.
        """
        arr = np.asarray(r, dtype=float)
        if not self.breakpoints.size:
            return r
        out = np.atleast_1d(arr).copy()
        for _ in range(64):
            tol = BREAKPOINT_TOL * np.abs(out)
            near = self._breakpoint_gap(out) < tol
            if not near.any():
                return float(out[0]) if arr.ndim == 0 else out
            out[near] += 3.0 * tol[near]
        stuck = float(np.atleast_1d(arr)[np.argmax(near)])
        raise GeometryError(f"could not move radius {stuck:g} off the breakpoint set")

    def union_boundary(self, r):
        """Boundary measure of the union, d/dr of its volume, off breakpoints."""
        self._check_off_breakpoint(r)
        return self._sum(self._nearest, r, derivative=True)

    def intersection_boundary(self, r):
        """Boundary measure of the intersection, d/dr of its volume, off breakpoints."""
        self._check_off_breakpoint(r)
        return self._sum(self._farthest, r, derivative=True)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

# rows drawn per generator call; the stream does not depend on this size
MC_CHUNK = 500_000
# samples counted at a time, so the per-site work arrays stay in cache
MC_BLOCK = 16_384


def _distance_hits(sites, lo, hi, radii, samples: int, seed: int):
    """Hit counts of uniform samples in the box [lo, hi]: (nearest, farthest).

    The samples are default_rng(seed).uniform(lo, hi, (m, n)) in chunks of
    MC_CHUNK rows, formed as Generator.uniform forms them, lo + (hi - lo) u
    from rng.random((m, n)), one block at a time in place.  Entry k of
    nearest (farthest) counts the samples within radii[k] of their nearest
    (farthest) site, i.e. in the union (intersection) of the balls.  Squared
    distances add the coordinates left to right, as np.sum(axis=1) does for
    a row.
    """
    sites = np.asarray(sites, dtype=float)
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    r2 = np.asarray(radii, dtype=float) ** 2
    near_hits = [0] * r2.size
    far_hits = [0] * r2.size
    buffers = np.empty((4, MC_BLOCK))
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        m = min(MC_CHUNK, samples - done)
        x = rng.random((m, sites.shape[1]))
        for start in range(0, m, MC_BLOCK):
            block = x[start:start + MC_BLOCK]
            np.multiply(block, span, out=block)
            np.add(block, lo, out=block)
            cols = block.T                          # strided coordinate columns
            near, far, d2, term = buffers[:, :cols.shape[1]]
            near.fill(np.inf)
            far.fill(0.0)
            for site in sites:
                np.subtract(cols[0], site[0], out=d2)
                np.multiply(d2, d2, out=d2)
                for col, c in zip(cols[1:], site[1:]):
                    np.subtract(col, c, out=term)
                    np.multiply(term, term, out=term)
                    np.add(d2, term, out=d2)
                np.minimum(near, d2, out=near)
                np.maximum(far, d2, out=far)
            for k, rr in enumerate(r2):
                near_hits[k] += int(np.count_nonzero(near <= rr))
                far_hits[k] += int(np.count_nonzero(far <= rr))
        done += m
    return near_hits, far_hits


def mc_ball_volume(p: PointConfiguration, r: float, which: str,
                   samples: int, seed: int):
    """Hit-or-miss estimate over the bounding box of the union: (value, stderr).

    which="both" returns {"union": (value, stderr), "intersection": (value,
    stderr)} from one pass over the samples.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if which not in ("union", "intersection", "both"):
        raise InputError(
            f"which must be 'union', 'intersection' or 'both', got {which!r}")
    pts = p.points
    lo = np.min(pts, axis=0) - r
    hi = np.max(pts, axis=0) + r
    box = float(np.prod(hi - lo))
    (hits_any,), (hits_all,) = _distance_hits(pts, lo, hi, [r], samples, seed)
    out = {}
    for name, hits in (("union", hits_any), ("intersection", hits_all)):
        frac = hits / samples
        out[name] = (box * frac, box * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
    return out if which == "both" else out[which]
