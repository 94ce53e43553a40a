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

One ridge pass (_ridge_faces) finds the ridges of a triangulation, the
simplices one site smaller than a full one, and the lines of their faces:
in full rank a segment between neighbouring circumcentres, or a ray at the
hull.  Both family builders read it.  The face lattice (_Lattice) builds a
profile per face from the smallest faces up, and serves sites in a lower
flat and every dimension from three up.  Sites spanning the plane skip the
per-face profiles: their regions' facets are the edges of the
triangulation, so each family is one facet table with a row per (site,
edge) incidence, built and evaluated in array passes (_PlanarFamily).  Its
per-site profiles, built by the face lattice when first read, are the
table's reference.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import functools
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
        return verts[:, 0], np.repeat(np.eye(points.shape[1])[None], groups.shape[0], axis=0)
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


def _ridge_faces(points: np.ndarray, simplices: np.ndarray, centres: np.ndarray, kind: str):
    """The ridges of a family's triangulation, and the lines of their faces.

    simplices holds the sorted sites of each full simplex (k + 1 >= 2 of
    them) and centres their circumcentres; a ridge is a simplex of k sites,
    an edge in the plane.  Returns (ridges, c, normals, u, a, b, hull,
    ridge_of): the ridges in sorted order, their circumcentres, bases (rows)
    of the directions orthogonal to them, the unit normal u of each in the
    sites' flat, the ends a <= b of its face along the line c + x u, whether
    it lies on the hull, and the ridge opposite site j of simplex t at
    ridge_of[t (k + 1) + j].  In the plane c is the edge's midpoint and u the
    edge turned by 90 degrees; in full rank u is the basis row.  In full rank
    the face is a segment, a ray at the hull, and each simplex t at the
    ridge bounds it at <c_t - c, u>, from the side away from (farthest:
    toward) t's other site.  In a lower flat only a hull ridge's line, that
    of its face's ray, is read: u is the part of p_j - c in the normal space,
    j the other site of the ridge's simplex, NaN off the hull, and a, b are
    None.
    """
    n_pts, (size, n) = points.shape[0], (simplices.shape[1], points.shape[1])
    k = size - 1
    # the ridge opposite each site of each simplex, found by its integer key
    drop = np.array([[i for i in range(size) if i != j] for j in range(size)])
    faces = simplices[:, drop].reshape(-1, k)
    _, first, ridge_of = np.unique(np.ravel_multi_index(tuple(faces.T), (n_pts,) * k),
                                   return_index=True, return_inverse=True)
    ridges = faces[first]
    hull = np.bincount(ridge_of, minlength=len(ridges)) == 1
    if k == n == 2:
        p, q = points[ridges[:, 0]], points[ridges[:, 1]]
        c, u = 0.5 * (p + q), (q - p)[:, ::-1] * np.array([-1.0, 1.0])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        normals = u[:, None, :]
    else:
        c, normals = _circumcentres(points, ridges, kind)
        u = normals[:, 0]
    if k < n:
        basis, u = normals[hull], np.full(c.shape, np.nan)
        coef = basis @ (points[simplices.ravel()[first[hull]]] - c[hull])[:, :, None]
        ray = (coef.transpose(0, 2, 1) @ basis)[:, 0]
        u[hull] = ray / np.linalg.norm(ray, axis=1, keepdims=True)
        return ridges, c, normals, u, None, None, hull, ridge_of
    other = points[simplices.ravel()]
    along, base = u[ridge_of], c[ridge_of]
    end = np.sum((np.repeat(centres, size, axis=0) - base) * along, axis=1)
    ahead = (np.sum((other - base) * along, axis=1) > 0.0) == (kind == "nearest")
    a, b = np.full(len(ridges), -np.inf), np.full(len(ridges), np.inf)
    with np.errstate(invalid="ignore"):         # an end that is no number is named below
        np.maximum.at(a, ridge_of[~ahead], end[~ahead])
        np.minimum.at(b, ridge_of[ahead], end[ahead])
    bad = np.flatnonzero(np.isnan(b - a))
    if bad.size:
        raise NumericalError(f"segment ends are not numbers ({_where(kind, ridges[bad[0]])})")
    return ridges, c, normals, u, a, b, hull, ridge_of


class _Lattice:
    """One family as its sites' region profiles, read off its triangulation.

    The sites span a k-flat of E^n and the simplices (k + 1 sites each)
    triangulate it.  The face of a region dual to the simplex sigma is the
    set F_sigma of points equidistant from sigma's sites and nearer to
    (farther from) them than to every other site.  Its base point is sigma's
    circumcentre c_sigma, whichever site the recursion started from, so its
    profile is built once and shared by every site of sigma, from the
    smallest faces up to the regions.  The face of a full simplex is the
    (n - k)-flat through its centre, and in full rank a ridge's face is the
    segment or ray _ridge_faces finds.  The facets of any other face are the
    faces F_tau of the simplices tau = sigma + {j} in the triangulation, in
    the order of j, at distance |c_tau - c_sigma|, with the sign of
    |c_sigma - p_j| - R_sigma (reversed for farthest regions).  Faces of zero
    extent (sites on a common sphere) are dropped.
    """

    def __init__(self, points, simplices, kind: str, r_max: float, scale: float):
        self.points, self.scale = points, scale
        self.nearest = kind == "nearest"
        self.tol = 1e-12 * scale
        n, k = points.shape[1], simplices.shape[1] - 1
        full = np.sort(simplices, axis=1)
        self.full = full.tolist()
        by_size: list[dict] = [{} for _ in range(k)]    # sigma under a ridge -> its full simplices
        for t, simplex in enumerate(self.full):
            for m in range(1, k):
                for sigma in itertools.combinations(simplex, m):
                    by_size[m].setdefault(sigma, []).append(t)
        self.vertices, normals = _circumcentres(points, full, kind)
        # the n - k directions off the sites' flat, along which every face extends
        self.off_flat = scale * normals[0]
        flat = None if k == n else _profile_from_faces(n - k, 1.0, [], np.inf, 0.0, scale)
        self.centre = {tuple(s): c for s, c in zip(self.full, self.vertices)}   # sigma -> c_sigma
        # sigma -> profile of F_sigma, None if of zero extent
        self.profile: dict = dict.fromkeys(self.centre, flat)
        self.rays: dict = {}        # hull ridge -> line along which its face runs off
        # (faces, centres, normals, stars, ends) from the ridges down to the sites
        levels = []
        if k:
            ridges, centres, normals, u, a, b, hull, ridge_of = _ridge_faces(
                points, full, self.vertices, kind)
            faces = [tuple(r) for r in ridges.tolist()]
            self.rays = {r: v for r, v, out in zip(faces, u, hull) if out}
            if k == n:
                levels.append((faces, centres, normals, itertools.repeat(None),
                               zip(a.tolist(), b.tolist())))
            else:
                stars = [[] for _ in faces]
                for i, ridge in enumerate(ridge_of.tolist()):
                    stars[ridge].append(i // (k + 1))
                levels.append((faces, centres, normals, stars, itertools.repeat(None)))
        for m in range(k - 1, 0, -1):
            faces = list(by_size[m])
            levels.append((faces, *_circumcentres(points, np.array(faces), kind),
                           by_size[m].values(), itertools.repeat(None)))
        sigma = None
        try:
            for faces, centres, normals, stars, ends in levels:
                for sigma, c, normal, star, end in zip(faces, centres, normals, stars, ends):
                    self.centre[sigma] = c
                    self.profile[sigma] = (
                        self.face(sigma, star, c, normal,
                                  r_max if len(sigma) == 1 else np.inf) if end is None else
                        None if end[1] - end[0] <= 2.0 * self.tol else
                        _interval_profile(*end, 0.0))
        except (GeometryError, NumericalError) as exc:
            # name the face being built
            raise type(exc)(f"{exc} ({_where(kind, sigma)})") from exc
        self.profiles = [self.profile.get((i,)) for i in range(points.shape[0])]
        self.breakpoints = np.array([bp for prof in self.profiles if prof is not None
                                     for bp in prof.breakpoints])

    def face(self, sigma, star, c, normal, r_max):
        """Profile of the face F_sigma (dimension >= 2) about c_sigma; None at zero extent."""
        d = normal.shape[0]
        # F_sigma is the hull of its vertices plus the cone of its rays, times
        # the directions off the flat: it has zero extent unless their
        # differences span its d directions.  Rays count down to 1e-14 of angle:
        # a thin wedge has its apex ~1 / angle out and an O(1) share of a_(n-1)
        spans = [self.vertices[star[1:]] - self.vertices[star[0]], self.off_flat]
        cofaces = {}                # the site j of each tau = sigma + {j} -> tau
        for t in star:
            for j in self.full[t]:
                if j in sigma:
                    continue
                cofaces[j] = tuple(sorted(sigma + (j,)))
                ridge = tuple(v for v in self.full[t] if v != j)
                if ridge in self.rays:
                    spans.append(100.0 * self.scale * self.rays[ridge][None, :])
        spans = np.concatenate(spans)
        if spans.shape[0] < d or np.linalg.svd(spans, compute_uv=False)[d - 1] <= self.tol:
            return None

        sites = sorted(cofaces)
        taus = [cofaces[j] for j in sites]
        h = np.linalg.norm(np.array([self.centre[tau] for tau in taus]) - c, axis=1)
        dist = np.linalg.norm(self.points[sites + [sigma[0]]] - c, axis=1)
        inside = dist[:-1] >= dist[-1]
        eps = np.where(inside == self.nearest, 1, -1)
        # the distance below which _profile_from_faces drops a facet
        on = h <= self.tol
        facets = [(float(hk), int(ek), self.profile[tau])
                  for tau, hk, ek in zip(taus, h, eps) if self.profile[tau] is not None]
        violated = bool(np.any(~on & (eps < 0)))
        if violated:
            omega = 0.0
        elif not on.any():
            omega = 1.0
        else:
            # outward normals in the face's flat: toward p_j for nearest regions
            out = (self.points[np.array(sites)[on]] - c) @ normal.T
            out /= np.linalg.norm(out, axis=1, keepdims=True)
            omega = _solid_angle_fraction(list(out if self.nearest else -out), d)
        return _profile_from_faces(d, omega, facets, r_max, np.inf if violated else 0.0,
                                   self.scale)

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
    facet of the site's region dual to the edge, at distance h = |c - p_i|
    from the edge's midpoint c, with sign eps = 1 (farthest: -1), whose own
    profile is the edge's face (_ridge_faces) about c.  Faces and regions of
    zero extent are dropped as _Lattice drops them, and every region has
    solid-angle fraction omega = 1 (farthest: 0) at its site.  A region's
    volume is r^2 (omega pi - I(r)), I the sum of its rows' shares of
    _PlanarPieces, and its boundary (2 V - S) / r, S = sum eps h V_i(rho)
    from the same columns in the same pass.  Each sum runs in table order,
    over a region's rows and then over the regions: so the family's sums
    carry the bits of the sums of its sites' region profiles, which the face
    lattice builds when they are first read (profiles), and a batch of radii
    gives the bits each radius gives alone.
    """

    def __init__(self, points, simplices, kind: str, r_max: float, scale: float):
        self._lattice = (points, simplices, kind, r_max, scale)
        self.r_max = r_max
        nearest = kind == "nearest"
        tris = np.sort(simplices, axis=1)
        centres = _circumcentres(points, tris, kind)[0]
        edges, mid, _, u, a, b, hull, _ = _ridge_faces(points, tris, centres, kind)
        self.extent = _region_extent(points.shape[0], tris, centres, edges, u, hull, scale)
        keep = b - a > 2e-12 * scale
        # the table: (site, edge) rows by site and then by the edge's other site
        site = np.concatenate((edges[:, 0], edges[:, 1]))
        edge = np.tile(np.arange(len(edges)), 2)
        rows = np.lexsort((edges[edge, 0] + edges[edge, 1] - site, site))
        rows = rows[keep[edge[rows]] & self.extent[site[rows]]]
        self.site, self.edge = site[rows], edge[rows]
        self.h = np.linalg.norm(mid[self.edge] - points[self.site], axis=1)
        self.eps = 1.0 if nearest else -1.0
        self.cone_coef = (1.0 if nearest else 0.0) * unit_ball_volume(2)
        # the columns run slot by slot, a slot holding the k-th row of every
        # region (a row of a zero segment, exactly 0 in every sum, where a region
        # has fewer), so that a region's terms lie one region-count apart
        place = np.arange(rows.size) - np.searchsorted(self.site, self.site)
        self.regions, self.depth = int(np.sum(self.extent)), int(np.max(place, initial=0)) + 1
        column = place * self.regions + (np.cumsum(self.extent) - 1)[self.site]
        cells = self.depth * self.regions
        h_col, a_col, b_col = np.ones(cells), np.zeros(cells), np.zeros(cells)
        h_col[column], a_col[column], b_col[column] = self.h, a[self.edge], b[self.edge]
        self.ends = np.array([a_col, b_col])[:, :, None]
        self.pieces = _PlanarPieces(h_col, np.full(cells, self.eps), a_col, b_col,
                                    onset=not nearest)
        # every facet's breakpoints: h, and sqrt(h^2 + e^2) for the ends e of its
        # face, as _interval_profile and _profile_from_faces record them
        ends = np.abs(np.concatenate((a[self.edge], b[self.edge])))
        on = np.isfinite(ends) & (ends > 0.0)
        foot = np.concatenate((self.h, self.h))[on]
        self.breakpoints = np.concatenate((self.h, np.sqrt(foot * foot + ends[on] ** 2)))

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

    @functools.cached_property
    def profiles(self) -> list:
        """Each site's region profile, from the face lattice (None: the site has no region)."""
        return _Lattice(*self._lattice).profiles


class BallSystem:
    """Union and intersection volumes of one configuration's balls, by radius.

    This is the way to evaluate them: the nearest and farthest families of
    regions are built once up to r_max (np.inf covers every radius), and
    union_volume, intersection_volume, union_boundary and
    intersection_boundary sum them at a radius or a whole array of radii in
    one pass, so radius scans (threshold searches, dense scans) stay cheap.
    A family is a facet table for sites spanning the plane and the face
    lattice of its sites' region profiles otherwise, the sites of a Delaunay
    simplex sharing its face's profile (see the module docstring).  Sums
    reduce in facet order within a region and then in ascending site order,
    so they carry the bits of the sums of nearest_profiles and
    farthest_profiles, which a planar family builds from the face lattice
    when they are first read.  Built with
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
        # one breakpoint reached along two paths may differ in its last bits
        breakpoints = np.unique(np.concatenate((self._nearest.breakpoints,
                                                self._farthest.breakpoints)))
        self.breakpoints = breakpoints[np.diff(breakpoints, prepend=-np.inf)
                                       > 1e-12 * breakpoints]
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
        return _Lattice(centred, simplices, kind, self.r_max, scale)

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
