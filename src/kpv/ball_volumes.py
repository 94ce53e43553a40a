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
facet extraction.  The geometry stays in the sites' own coordinates; only
the triangulation sees coordinates in the flat.  A family qhull cannot
triangulate, that has a site qhull sets aside as coplanar, or that has an
ill-conditioned circumcentre (MAX_CIRCUMCENTRE_COND) falls back to cutting
each region out by all the bisectors and finding its facets with
polyhedra.face_data.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .configurations import PointConfiguration, distance_matrix
from .errors import GeometryError, InputError, NumericalError
from .polyhedra import Halfspace, PolyhedralSet
from .truncated_volume import (RadialVolumeProfile, _interval_profile, _profile_from_faces,
                               _solid_angle_fraction, unit_ball_volume, volume_profile)

DISTINCT_SITE_TOL = 1e-9
# boundary measures are read only at radii at least BREAKPOINT_TOL * max(1, r)
# away from every profile breakpoint
BREAKPOINT_TOL = 1e-9


@dataclass(eq=False)
class VoronoiRegion:
    """A nearest- or farthest-point Voronoi region of one site."""

    kind: str                   # "nearest" | "farthest"
    site_index: int
    region: PolyhedralSet

    def is_empty(self, tol: float | None = None) -> bool:
        """Farthest regions of non-extreme sites are empty; nearest never are."""
        if self.kind == "nearest":
            return False
        return not self.region.is_feasible(tol)


def _check_distinct(p: PointConfiguration):
    if p.n_points < 2:
        return
    d = distance_matrix(p).entries
    off = d[np.triu_indices(p.n_points, k=1)]
    if np.min(off) <= DISTINCT_SITE_TOL:
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


def _voronoi(p: PointConfiguration, kind: str, i: int) -> VoronoiRegion:
    """Region of site i cut out by the bisectors with every other site."""
    pts = p.points
    hs = tuple(_bisector(pts[i], pts[j]) for j in range(p.n_points) if j != i)
    if kind == "farthest":
        hs = tuple(h.flipped() for h in hs)
    return VoronoiRegion(kind=kind, site_index=i, region=PolyhedralSet(p.dimension, hs))


def _checked_voronoi(p: PointConfiguration, kind: str, i: int) -> VoronoiRegion:
    _check_distinct(p)
    if not 0 <= i < p.n_points:
        raise InputError(f"site index {i} out of range")
    return _voronoi(p, kind, i)


def nearest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Nearest-point region of site i: all bisector halfspaces toward i."""
    return _checked_voronoi(p, "nearest", i)


def farthest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Farthest-point region of site i (may be empty for interior sites)."""
    return _checked_voronoi(p, "farthest", i)


# ---------------------------------------------------------------------------
# the face lattice of a triangulation in the sites' flat
# ---------------------------------------------------------------------------

# A family whose circumcentre solves are worse conditioned than this is built
# from bisectors instead: a centre's error grows as the condition number times
# the rounding of the sites.
MAX_CIRCUMCENTRE_COND = 1e8


def _triangulation(centred: np.ndarray, rank: int, basis: np.ndarray,
                   furthest: bool) -> np.ndarray | None:
    """Simplices of the (furthest-site) Delaunay triangulation of the sites in their flat.

    The sites span a flat of dimension rank along the first rank rows of
    basis.  rank + 1 sites are their own simplex; sites on a line pair up
    with their neighbours in order along it (the furthest-site triangulation
    is the outermost pair); otherwise qhull triangulates their coordinates
    in the flat.  None when qhull fails or sets a site aside as coplanar.
    """
    n_pts, n = centred.shape
    if n_pts == rank + 1:
        return np.arange(n_pts)[None, :]
    if rank == 1:
        order = np.argsort(centred @ basis[0])
        return order[None, [0, -1]] if furthest else np.column_stack((order[:-1], order[1:]))
    try:
        tri = Delaunay(centred if rank == n else centred @ basis[:rank].T,
                       furthest_site=furthest)
    except QhullError:
        return None
    return None if tri.coplanar.size else tri.simplices


def _circumcentres(points: np.ndarray, groups: np.ndarray):
    """Circumcentres of simplices (rows of site indices) and their orthogonal flats.

    Returns (centres, normals): normals[k] is an orthonormal basis (rows) of
    the directions orthogonal to simplex k, along which its Voronoi face
    extends.  None when a solve is singular or ill-conditioned.
    """
    verts = points[groups]
    if groups.shape[1] == 1:
        return verts[:, 0], np.broadcast_to(np.eye(points.shape[1]),
                                            (groups.shape[0],) + (points.shape[1],) * 2)
    edges = verts[:, 1:] - verts[:, :1]
    u, svals, vt = np.linalg.svd(edges)
    if not np.all(svals[:, -1] * MAX_CIRCUMCENTRE_COND > svals[:, 0]):
        return None
    m = edges.shape[1]
    if m == 1:
        # the midpoint, free of the solve's rounding
        return 0.5 * (verts[:, 0] + verts[:, 1]), vt[:, 1:]
    # the centre is p_0 + x with 2 <x, e_j> = |e_j|^2 and x in the span of the edges
    y = np.einsum("kji,kj->ki", u, 0.5 * np.sum(edges * edges, axis=2)) / svals
    return verts[:, 0] + np.einsum("ki,kin->kn", y, vt[:, :m]), vt[:, m:]


def _lattice_profiles(points: np.ndarray, simplices: np.ndarray, kind: str,
                      r_max: float, scale: float) -> list | None:
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
    extent (sites on a common sphere) are dropped.  Returns None when a
    circumcentre solve is ill-conditioned.
    """
    lattice = _Lattice(points, simplices, kind == "nearest", scale)
    n = points.shape[1]
    k = simplices.shape[1] - 1
    by_size: list[dict] = [{} for _ in range(k + 1)]    # sigma -> its full simplices
    for t, simplex in enumerate(lattice.full):
        for m in range(1, k + 1):
            for sigma in itertools.combinations(simplex, m):
                by_size[m].setdefault(sigma, []).append(t)
    solved = _circumcentres(points, np.array(lattice.full))
    if solved is None:
        return None
    lattice.vertices = solved[0]
    # the n - k directions off the sites' flat, along which every face extends
    lattice.off_flat = scale * solved[1][0]
    flat = None if k == n else _profile_from_faces(n - k, 1.0, [], np.inf, 0.0, scale)
    for simplex, c in zip(lattice.full, lattice.vertices):
        lattice.centre[tuple(simplex)] = c
        lattice.profile[tuple(simplex)] = flat
    for m in range(k, 0, -1):
        faces = list(by_size[m])
        solved = _circumcentres(points, np.array(faces))
        if solved is None:
            return None
        for sigma, c, normal in zip(faces, *solved):
            lattice.centre[sigma] = c
            star = by_size[m][sigma]
            if m == k and len(star) == 1:
                lattice.add_ray(sigma, star[0], c, normal)
            try:
                lattice.profile[sigma] = (
                    lattice.segment(sigma, star, c, normal[0]) if normal.shape[0] == 1 else
                    lattice.face(sigma, star, c, normal, r_max if m == 1 else np.inf))
            except (GeometryError, NumericalError) as exc:
                where = f"region of site {sigma[0]}" if m == 1 else f"face of sites {sigma}"
                raise type(exc)(f"{exc} ({kind} {where})") from exc
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
        # differences span its d directions
        spans = [self.vertices[star[1:]] - self.vertices[star[0]], self.off_flat]
        cofaces = {}                # tau -> the site k of tau = sigma + {k}
        for t in star:
            for k in self.full[t]:
                if k in sigma:
                    continue
                cofaces[tuple(sorted(sigma + (k,)))] = k
                ridge = tuple(v for v in self.full[t] if v != k)
                if ridge in self.rays:
                    spans.append(self.scale * self.rays[ridge][None, :])
        spans = np.concatenate(spans)
        if spans.shape[0] < d or np.linalg.svd(spans, compute_uv=False)[d - 1] <= self.tol:
            return None

        sites = list(cofaces.values())
        h = np.linalg.norm(np.array([self.centre[tau] for tau in cofaces]) - c, axis=1)
        dist = np.linalg.norm(self.points[sites] - c, axis=1)
        inside = dist >= np.linalg.norm(self.points[sigma[0]] - c)
        eps = np.where(inside == self.nearest, 1, -1)
        # slack tolerance of the base point, as for bisector-built sets
        on = h <= 1e-9 * self.scale
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


class BallSystem:
    """Union and intersection volumes of one configuration's balls, by radius.

    This is the way to evaluate them: the per-site nearest and farthest
    region profiles are built once up to r_max (np.inf covers every radius),
    and union_volume, intersection_volume, union_boundary and
    intersection_boundary sum them at a radius or a whole array of radii in
    one pass, so radius scans (threshold searches, Laurent windows) stay
    cheap.  The sites of a Delaunay simplex share its face's profile (see
    the module docstring).  Sums reduce in ascending site order.  Built with
    r_max = np.inf, the system also carries the exact leading Laurent
    coefficients of both volume functions.
    """

    def __init__(self, p: PointConfiguration, r_max: float):
        _check_distinct(p)
        self.config = p
        self.r_max = float(r_max)
        self.dimension = p.dimension
        self.delta = unit_ball_volume(p.dimension)
        scale = max(1.0, p.diameter)
        # volumes are translation-invariant; regions about the centroid keep
        # the facet tolerances, which scale with the halfspace offsets, relative
        # to the configuration's extent rather than to its distance from 0
        centred = PointConfiguration(p.dimension, p.points - p.points.mean(axis=0))
        rank, basis = _affine_rank(centred.points)

        def build(kind: str, i: int) -> RadialVolumeProfile | None:
            # lower-dimensional farthest regions contribute 0; nearest regions
            # always contain their site with positive margin
            region = _voronoi(centred, kind, i).region
            if kind == "farthest" and region.feasibility_margin() <= 1e-9 * scale:
                return None
            try:
                return volume_profile(region, centred.points[i], self.r_max)
            except (GeometryError, NumericalError) as exc:
                raise type(exc)(f"{exc} ({kind} region of site {i})") from exc

        def family(kind: str) -> list:
            simplices = _triangulation(centred.points, rank, basis, kind == "farthest")
            if simplices is not None:
                profiles = _lattice_profiles(centred.points, simplices, kind,
                                             self.r_max, scale)
                if profiles is not None:
                    return profiles
            return [build(kind, i) for i in range(p.n_points)]

        self.nearest_profiles = family("nearest")
        self.farthest_profiles = family("farthest")
        profiles = self.nearest_profiles + self.farthest_profiles

        bps = [bp for prof in profiles if prof is not None for bp in prof.breakpoints]
        self.breakpoints = np.unique(np.asarray(bps)) if bps else np.zeros(0)

    def _sum(self, profiles, r, derivative: bool = False):
        """Sum of per-site values (or derivatives) at a radius or an array of radii."""
        arr = np.asarray(r, dtype=float)
        total = np.zeros(arr.shape)
        for prof in profiles:
            if prof is not None:
                total = total + (prof.derivative(arr) if derivative else prof.value(arr))
        return float(total) if total.ndim == 0 else total

    def laurent_coefficients(self, which: str) -> tuple[float, float]:
        """Exact (a_n, a_{n-1}) of the union or intersection volume at infinity.

        They are the sums of the per-site W(0) and W'(0).  W(0) exists only
        when the system was built with r_max = np.inf (InputError otherwise).
        """
        if which not in ("union", "intersection"):
            raise InputError(f"which must be 'union' or 'intersection', got {which!r}")
        profiles = [prof for prof in (self.nearest_profiles if which == "union"
                                      else self.farthest_profiles) if prof is not None]
        if any(prof.w_at_zero is None for prof in profiles):
            raise InputError("the leading coefficient needs a system built with r_max=np.inf")
        return (sum(prof.w_at_zero for prof in profiles),
                sum(prof.w_prime_at_zero for prof in profiles))

    def union_volume(self, r):
        """Union volume at a radius (float) or an array of radii (array)."""
        return self._sum(self.nearest_profiles, r)

    def intersection_volume(self, r):
        """Intersection volume at a radius (float) or an array of radii (array)."""
        return self._sum(self.farthest_profiles, r)

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
        tol = BREAKPOINT_TOL * np.maximum(1.0, arr)
        bad = np.flatnonzero(self._breakpoint_gap(arr) < tol)
        if bad.size:
            rb, tb = float(arr[bad[0]]), float(tol[bad[0]])
            raise GeometryError(
                f"radius {rb:g} sits on a profile breakpoint (within {tb:g}); "
                f"offset the radius by at least {tb:g}")

    def off_breakpoint(self, r):
        """Nearest radius at least BREAKPOINT_TOL * max(1, r) away from breakpoints.

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
            tol = BREAKPOINT_TOL * np.maximum(1.0, out)
            near = self._breakpoint_gap(out) < tol
            if not near.any():
                return float(out[0]) if arr.ndim == 0 else out
            out[near] += 3.0 * tol[near]
        stuck = float(np.atleast_1d(arr)[np.argmax(near)])
        raise GeometryError(f"could not move radius {stuck:g} off the breakpoint set")

    def union_boundary(self, r):
        """Boundary measure of the union, d/dr of its volume, off breakpoints."""
        self._check_off_breakpoint(r)
        return self._sum(self.nearest_profiles, r, derivative=True)

    def intersection_boundary(self, r):
        """Boundary measure of the intersection, d/dr of its volume, off breakpoints."""
        self._check_off_breakpoint(r)
        return self._sum(self.farthest_profiles, r, derivative=True)


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
    MC_CHUNK rows.  Entry k of nearest (farthest) counts the samples within
    radii[k] of their nearest (farthest) site, i.e. in the union
    (intersection) of the balls.  Squared distances add the coordinates left
    to right, as np.sum(axis=1) does for a row.
    """
    sites = np.asarray(sites, dtype=float)
    r2 = np.asarray(radii, dtype=float) ** 2
    near_hits = [0] * r2.size
    far_hits = [0] * r2.size
    buffers = np.empty((4, MC_BLOCK))
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        m = min(MC_CHUNK, samples - done)
        x = rng.uniform(lo, hi, size=(m, sites.shape[1]))
        for start in range(0, m, MC_BLOCK):
            cols = x[start:start + MC_BLOCK].T      # strided coordinate columns
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
