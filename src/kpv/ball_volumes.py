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

One face pass (_levels) finds a triangulation's faces level by level, from
the ridges (one site short of a full simplex) down to the sites, each level
from the one above by integer keys, with each face's cofaces, star and hull
rays.  Both family builders read it, the ridges' segments and rays come from
_ridge_faces, and one test (_extent) drops the faces of zero extent.  The
face lattice (_Lattice) builds a profile per face and serves sites in a
lower flat and every dimension from three up.  Sites spanning the plane skip
the per-face profiles: their regions' facets are the edges of the
triangulation, the sites' cofaces, so each family is one facet table built
and evaluated in array passes (_PlanarFamily); its reference is the lattice.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from .configurations import PointConfiguration
from .errors import GeometryError, InputError, NumericalError
from .polyhedra import Halfspace, PolyhedralSet
from .truncated_volume import (_EPS, _check_range, _interval_profile, _PlanarPieces,
                               _profile_from_faces, _running_sum, _solid_angle_fraction,
                               unit_ball_volume)

# sites closer than this share of the diameter count as duplicates
DISTINCT_SITE_TOL = 1e-9
# (facet rows) x (radii) evaluated at a time by a planar family: larger passes
# leave the cache and run slower
_CHUNK_ELEMENTS = 2 ** 14


def _check_distinct(p: PointConfiguration):
    """GeometryError when two of p's sites (nearly) coincide."""
    if p.n_points > 1 and (np.min(p.distances[np.triu_indices(p.n_points, k=1)])
                           <= DISTINCT_SITE_TOL * p.diameter):
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


@functools.lru_cache(maxsize=None)
def _splits(size: int, m: int) -> np.ndarray:
    """The m-subsets of range(size) in lexicographic order, a row each, followed by the rest."""
    return np.array([s + tuple(i for i in range(size) if i not in s)
                     for s in itertools.combinations(range(size), m)])


def _levels(full: np.ndarray, n_pts: int):
    """The faces of a triangulation level by level, from its ridges down to its sites.

    full holds the sorted sites of each full simplex (k + 1 >= 2 of them).
    Level m holds the faces of m sites, those of the level above without a
    site j, found by integer keys.  Yields for m = k, ..., 1 the faces (rows
    of sorted sites) in sorted order; the star, each full simplex's faces by
    row in the lexicographic order of their positions in it; the cofaces,
    triples (sigma, tau = sigma + {j}, j) of rows here and above (of full at
    m = k) by sigma and then j; and the rays, pairs (face, ridge) of each
    face and hull ridge (of one full simplex) containing it, in that order.
    """
    size = full.shape[1]
    above = full
    for m in range(size - 1, 0, -1):
        # the faces of the level above without their site j, coded key n + j (an
        # error past 64 bits) and sorted: a run of equal keys is one face's cofaces
        cut = above[:, _splits(m + 1, m)].reshape(-1, m + 1)
        coded = np.ravel_multi_index(tuple(cut.T), (n_pts,) * (m + 1))
        order = np.argsort(coded)
        keys, j = np.divmod(coded[order], n_pts)
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        sigma, first = np.cumsum(new) - 1, np.flatnonzero(new)
        faces, keys = cut[order[first], :m], keys[first]
        if above is full:
            # a full simplex's cut is its star; a hull ridge is its own ray
            star = np.empty((len(full), size), dtype=sigma.dtype)
            star.flat[order] = sigma
            hull = np.flatnonzero(np.bincount(sigma) == 1)
            ridges, rays = faces[hull], (hull, hull)
        else:
            weights = n_pts ** np.arange(m - 1, -1, -1)
            star = np.searchsorted(keys, full[:, _splits(size, m)[:, :m]] @ weights)
            inner = _splits(size - 1, m)[:, :m]
            ray_face = np.searchsorted(keys, ridges[:, inner] @ weights).ravel()
            by_face = np.argsort(ray_face, kind="stable")
            rays = ray_face[by_face], np.repeat(hull, len(inner))[by_face]
        yield faces, star, (sigma, order // (m + 1), j), rays
        above = faces


def _extent(star, n_faces: int, centres, off_flat, rays, u, d: int, scale: float):
    """Whether each of the n_faces faces of a level of _levels has extent.

    A face is the hull of its vertices, its star's circumcentres (centres),
    plus the cone of its rays, the lines u of its hull ridges (rays) taken
    100 scale long (a thin wedge has its apex ~1 / angle out and an O(1)
    share of a_(n-1)), plus the span of off_flat's rows.  It has extent where
    these rows and its vertices' differences span d directions, the d-th
    singular value above 1e-12 scale: one batched SVD, zero rows padding.
    """
    face = np.concatenate((star.ravel(), rays[0]))
    order = np.argsort(face, kind="stable")
    face = face[order]
    vectors = np.concatenate((np.repeat(centres, star.shape[1], axis=0),
                              100.0 * scale * u[rays[1]]))[order]
    # a face's first row is its first vertex
    first = np.searchsorted(face, face)
    vectors = np.where((order < star.size)[:, None], vectors - vectors[first], vectors)
    place = np.arange(face.size) - first
    depth = int(place.max()) + 1
    spans = np.zeros((n_faces, max(d, depth + len(off_flat)), centres.shape[1]))
    spans[face, place] = vectors
    spans[:, depth:depth + len(off_flat)] = off_flat
    return np.linalg.svd(spans, compute_uv=False)[:, d - 1] > 1e-12 * scale


def _ridge_faces(points: np.ndarray, ridges, cofaces, centres: np.ndarray, kind: str,
                 scale: float):
    """The lines of the faces of a family's ridges, the first level of _levels.

    ridges and cofaces are that level's faces and triples (ridge, t, j), and
    centres the full simplices' circumcentres.  Returns (c, normals, u, a,
    b, keep): the ridges' circumcentres, bases (rows) of the directions
    orthogonal to them, the unit normal u of each in the sites' flat (in the
    plane the edge turned by 90 degrees, about its midpoint c), the ends
    a <= b of its face along the line c + x u and whether they lie more than
    2e-12 scale apart.  In full rank the face is a segment, a ray at the hull, and
    each t bounds it at <c_t - c, u>, from the side away from (farthest:
    toward) p_j.  In a lower flat only a hull ridge's line, that of its
    face's ray, is read: u is the part of p_j - c in the normal space, NaN
    off the hull, and a, b and keep are None.
    """
    n, k = points.shape[1], ridges.shape[1]
    sigma, tau, j = cofaces
    if k == n == 2:
        p, q = points[ridges[:, 0]], points[ridges[:, 1]]
        c, u = 0.5 * (p + q), (q - p)[:, ::-1] * np.array([-1.0, 1.0])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        normals = u[:, None, :]
    else:
        c, normals = _circumcentres(points, ridges, kind)
        u = normals[:, 0]
    if k < n:
        hull = np.bincount(sigma, minlength=len(ridges)) == 1
        basis, u = normals[hull], np.full(c.shape, np.nan)
        coef = basis @ (points[j[hull[sigma]]] - c[hull])[:, :, None]
        ray = (coef.transpose(0, 2, 1) @ basis)[:, 0]
        u[hull] = ray / np.linalg.norm(ray, axis=1, keepdims=True)
        return c, normals, u, None, None, None
    along, base = u[sigma], c[sigma]
    end = np.sum((centres[tau] - base) * along, axis=1)
    ahead = (np.sum((points[j] - base) * along, axis=1) > 0.0) == (kind == "nearest")
    a, b = np.full(len(ridges), -np.inf), np.full(len(ridges), np.inf)
    with np.errstate(invalid="ignore"):         # an end that is no number is named below
        np.maximum.at(a, sigma[~ahead], end[~ahead])
        np.minimum.at(b, sigma[ahead], end[ahead])
    bad = np.flatnonzero(np.isnan(b - a))
    if bad.size:
        raise NumericalError(f"segment ends are not numbers ({_where(kind, ridges[bad[0]])})")
    return c, normals, u, a, b, b - a > 2e-12 * scale


class _Lattice:
    """One family as its sites' region profiles, read off its triangulation.

    The sites span a k-flat of E^n and the simplices (k + 1 sites each)
    triangulate it.  The face of a region dual to the simplex sigma is the
    set F_sigma of points equidistant from sigma's sites and nearer to
    (farther from) them than to every other site.  Its base point is sigma's
    circumcentre c_sigma, whichever site the recursion started from, so its
    profile is built once, level by level of _levels, and shared by every
    site of sigma.  The face of a full simplex is the (n - k)-flat through
    its centre, and in full rank a ridge's face is the segment or ray of
    _ridge_faces.  The facets of any other face are the faces F_tau of its
    cofaces tau = sigma + {j}, in the order of j, at distance
    |c_tau - c_sigma| and with the sign of |c_sigma - p_j| - R_sigma
    (reversed for farthest regions), both found for a level in array passes.
    Faces of zero extent (sites on a common sphere; _extent) are dropped.
    """

    def __init__(self, points, simplices, kind: str, r_max: float, scale: float):
        nearest, tol = kind == "nearest", 1e-12 * scale
        n_pts, n, k = points.shape[0], points.shape[1], simplices.shape[1] - 1
        full = np.sort(simplices, axis=1)
        vertices, normals = _circumcentres(points, full, kind)
        # the n - k directions off the sites' flat, along which every face extends
        off_flat = scale * normals[0]
        # the level above: its faces, their centres and profiles (None at zero extent)
        faces, centres = full, vertices
        profiles = [None if k == n else
                    _profile_from_faces(n - k, 1.0, [], np.inf, 0.0, scale)] * len(full)
        for m, (level, star, (sigma, tau, j), rays) in zip(range(k, 0, -1),
                                                            _levels(full, n_pts)):
            if m == k:
                c, normals, lines, a, b, keep = _ridge_faces(
                    points, level, (sigma, tau, j), vertices, kind, scale)
            else:
                c, normals = _circumcentres(points, level, kind)
            d, built = n - m + 1, [None] * len(level)
            if m == n:
                todo, a, b = np.flatnonzero(keep).tolist(), a.tolist(), b.tolist()
            else:
                todo = np.flatnonzero(_extent(star, len(level), vertices, off_flat, rays, lines,
                                              d, scale)).tolist()
                h = np.linalg.norm(centres[tau] - c[sigma], axis=1)
                dist = np.linalg.norm(points[j] - c[sigma], axis=1)
                base = np.linalg.norm(points[level[:, 0]] - c, axis=1)
                eps = np.where((dist >= base[sigma]) == nearest, 1, -1)
                on = h <= tol
                violated = np.bincount(sigma, ~on & (eps < 0), len(level)) > 0
                touching = np.bincount(sigma, on, len(level)) > 0
                bounds = np.searchsorted(sigma, np.arange(len(level) + 1)).tolist()
                rows = list(zip(h.tolist(), eps.tolist(), [profiles[t] for t in tau.tolist()]))
            try:
                for f in todo:
                    if m == n:
                        built[f] = _interval_profile(a[f], b[f], 0.0)
                        continue
                    lo, hi = bounds[f], bounds[f + 1]
                    if violated[f] or not touching[f]:
                        omega = 0.0 if violated[f] else 1.0
                    else:
                        # outward normals in the face's flat: toward p_j for nearest regions
                        out = (points[j[lo:hi][on[lo:hi]]] - c[f]) @ normals[f].T
                        out /= np.linalg.norm(out, axis=1, keepdims=True)
                        omega = _solid_angle_fraction(list(out if nearest else -out), d)
                    built[f] = _profile_from_faces(
                        d, omega, [row for row in rows[lo:hi] if row[2] is not None],
                        r_max if m == 1 else np.inf, np.inf if violated[f] else 0.0, scale)
            except (GeometryError, NumericalError) as exc:
                # name the face being built
                raise type(exc)(f"{exc} ({_where(kind, level[f])})") from exc
            faces, centres, profiles = level, c, built
        by_site = dict(zip(faces[:, 0].tolist(), profiles))
        self.profiles = [by_site.get(i) for i in range(n_pts)]
        self.breakpoints = np.array([bp for prof in self.profiles if prof is not None
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


class _PlanarFamily:
    """One family of sites spanning the plane, as one facet table.

    The table has a row per coface (site, edge) of the sites (_levels),
    sorted by site and then by the edge's other site: the facet of the
    site's region dual to the edge, at distance h = |c - p_i| from the
    edge's midpoint c, with sign eps = 1 (farthest: -1), whose own profile is
    the edge's face (_ridge_faces) about c.  Faces and regions of zero extent
    are dropped as _Lattice drops them, and every region has solid-angle
    fraction omega = 1 (farthest: 0) at its site.  A region's volume is
    r^2 (omega pi - I(r)), I the sum of its rows' shares of _PlanarPieces,
    and its boundary (2 V - S) / r, S = sum eps h V_i(rho) from the same
    columns in the same pass.  Each sum runs in table order, over a region's
    rows and then over the regions: so the family's sums carry the bits of
    the sums of its sites' region profiles, which the face lattice builds
    when they are first read (profiles), and a batch of radii gives the bits
    each radius gives alone.
    """

    def __init__(self, points, simplices, kind: str, r_max: float, scale: float):
        self._lattice = (points, simplices, kind, r_max, scale)
        self.r_max = r_max
        nearest = kind == "nearest"
        tris = np.sort(simplices, axis=1)
        centres = _circumcentres(points, tris, kind)[0]
        (edges, _, cofaces, _), (sites, star, (region, edge, _), rays) = (
            _levels(tris, points.shape[0]))
        mid, _, u, a, b, keep = _ridge_faces(points, edges, cofaces, centres, kind, scale)
        extent = _extent(star, len(sites), centres, np.zeros((0, 2)), rays, u, 2, scale)
        # the table: the sites' cofaces, (site, edge) rows by site and then by
        # the edge's other site
        rows = keep[edge] & extent[region]
        region, self.edge = region[rows], edge[rows]
        self.site = sites[region, 0]
        self.h = np.linalg.norm(mid[self.edge] - points[self.site], axis=1)
        self.eps = 1.0 if nearest else -1.0
        self.cone_coef = (1.0 if nearest else 0.0) * unit_ball_volume(2)
        # the columns run slot by slot, a slot holding the k-th row of every
        # region (a row of a zero segment, exactly 0 in every sum, where a region
        # has fewer), so that a region's terms lie one region-count apart
        place = np.arange(region.size) - np.searchsorted(region, region)
        self.regions, self.depth = int(np.sum(extent)), int(np.max(place, initial=0)) + 1
        column = place * self.regions + (np.cumsum(extent) - 1)[region]
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
    when they are first read.  Built with r_max = np.inf, the system also
    carries the exact Laurent coefficients of both volume functions.
    """

    def __init__(self, p: PointConfiguration, r_max: float):
        _check_distinct(p)
        scale = p.diameter or 1.0       # tolerances are relative to the diameter
        self.config = p
        self.r_max = float(r_max)
        self.dimension = p.dimension
        self.delta = unit_ball_volume(p.dimension)
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
        # are delta_n (a build short of 2 b_last has a NaN a_n in 3-d and up):
        # slivers of nearly cospherical sites, whose circumcentres keep eps / jitter
        # of their digits, break these identities by far more than 1e-6
        (lead_u, union), (lead_i, inter) = (family.taylor(1)
                                            for family in (self._nearest, self._farthest))
        if not abs(union + inter) <= 1e-6 * max(abs(union), abs(inter)):
            raise NumericalError(f"a_(n-1) of the union ({union:.12g}) and of the "
                                 f"intersection ({inter:.12g}) do not cancel")
        for lead, kind in ((lead_u, "nearest"), (lead_i, "farthest")):
            if math.isinf(self.r_max) and not abs(lead - self.delta) <= 1e-6 * self.delta:
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

    def off_breakpoint(self, r):
        """r, since every radius is read.  Nothing in kpv calls it; bench/tracer.py wraps it."""
        return r

    def union_boundary(self, r):
        """Boundary measure of the union, d/dr of its volume, at any radius r > 0.

        Continuous at breakpoints for n >= 2 (a facet enters with a square-root
        onset); for n = 1 it jumps where an interval's end comes free, and a
        breakpoint radius reads one of the two one-sided values.
        """
        return self._sum(self._nearest, r, derivative=True)

    def intersection_boundary(self, r):
        """Boundary measure of the intersection, d/dr of its volume, at any radius r > 0.

        Continuous at breakpoints for n >= 2; for n = 1 a breakpoint radius
        reads one of the two one-sided values.
        """
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
