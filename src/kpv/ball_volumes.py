"""Volumes and boundary volumes of unions and intersections of equal balls.

The decomposition: the union of balls of radius r is the disjoint (up to
measure zero) union of the nearest-point Voronoi regions truncated at radius
r around their sites, and the intersection is the analogous union of
truncated farthest-point regions.  A site's region is cut out by the
bisectors with its Delaunay neighbours only (the furthest-site triangulation
for farthest regions), the other bisectors being redundant.  Each truncated
region is a ball-truncated polyhedral set, so its radial volume profile comes
from the recursive ODE engine; summing profiles per site gives exact volumes,
and summing the ODE right-hand sides gives exact boundary measures.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .configurations import PointConfiguration, distance_matrix
from .errors import GeometryError, InputError, NumericalError
from .polyhedra import Halfspace, PolyhedralSet
from .truncated_volume import RadialVolumeProfile, unit_ball_volume, volume_profile

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


def delaunay_neighbours(p: PointConfiguration,
                        furthest: bool = False) -> list[np.ndarray | None]:
    """Per site, the other sites whose bisectors can bound its Voronoi region.

    These are the site's neighbours in the Delaunay triangulation (nearest
    regions) or the furthest-site triangulation (farthest regions), in
    ascending order.  A site in no furthest-site simplex is not a hull vertex,
    so its farthest region is empty or lower-dimensional: its entry is None.
    Sites spanning a k-flat with 2 <= k < n are triangulated in that flat:
    their regions are prisms over the flat's regions, cut out by the same
    bisectors.  Every other site is listed when the sites span a line or a
    point, when qhull cannot triangulate (such as cospherical sites for the
    furthest-site triangulation), and for a site qhull sets aside as
    coplanar; such a site also joins every other list.
    """
    n_pts = p.n_points
    every_other = [np.delete(np.arange(n_pts), i) for i in range(n_pts)]
    centred = p.points - p.points.mean(axis=0)
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    rank = int(np.sum(svals > 1e-12 * svals[0]))
    if rank < 2:
        return every_other
    if rank < p.dimension:
        centred = centred @ vt[:rank].T
    try:
        tri = Delaunay(centred, furthest_site=furthest)
    except QhullError:
        return every_other
    indptr, indices = tri.vertex_neighbor_vertices
    in_simplex = np.zeros(n_pts, dtype=bool)
    in_simplex[tri.simplices.ravel()] = True
    set_aside = np.unique(tri.coplanar[:, 0])
    out: list[np.ndarray | None] = []
    for i in range(n_pts):
        if i in set_aside or (not furthest and not in_simplex[i]):
            out.append(every_other[i])
        elif in_simplex[i]:
            nb = np.union1d(indices[indptr[i]:indptr[i + 1]], set_aside)
            out.append(nb[nb != i])
        else:
            out.append(None)
    return out


def _voronoi(p: PointConfiguration, kind: str, i: int, neighbours) -> VoronoiRegion:
    """Region of site i cut out by the bisectors with the sites in neighbours."""
    pts = p.points
    hs = tuple(_bisector(pts[i], pts[j]) for j in neighbours)
    if kind == "farthest":
        hs = tuple(h.flipped() for h in hs)
    return VoronoiRegion(kind=kind, site_index=i, region=PolyhedralSet(p.dimension, hs))


def _all_bisector_voronoi(p: PointConfiguration, kind: str, i: int) -> VoronoiRegion:
    _check_distinct(p)
    if not 0 <= i < p.n_points:
        raise InputError(f"site index {i} out of range")
    return _voronoi(p, kind, i, [j for j in range(p.n_points) if j != i])


def nearest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Nearest-point region of site i: all bisector halfspaces toward i."""
    return _all_bisector_voronoi(p, "nearest", i)


def farthest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Farthest-point region of site i (may be empty for interior sites)."""
    return _all_bisector_voronoi(p, "farthest", i)


class BallSystem:
    """Union and intersection volumes of one configuration's balls, by radius.

    This is the way to evaluate them: the per-site nearest and farthest
    region profiles are built once up to r_max (np.inf covers every radius),
    and union_volume, intersection_volume, union_boundary and
    intersection_boundary sum them at a radius or a whole array of radii in
    one pass, so radius scans (threshold searches, Laurent windows) stay
    cheap.  Sums reduce in ascending site order.  Built with r_max = np.inf,
    the system also carries the exact leading Laurent coefficients of both
    volume functions.
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

        def build(kind: str, i: int, others) -> RadialVolumeProfile | None:
            # a site in no furthest-site simplex has an empty or flat farthest
            # region; nearest regions always contain their site with positive
            # margin, and lower-dimensional farthest regions contribute 0
            if others is None:
                return None
            region = _voronoi(centred, kind, i, others).region
            if kind == "farthest" and region.feasibility_margin() <= 1e-9 * scale:
                return None
            try:
                return volume_profile(region, centred.points[i], self.r_max)
            except (GeometryError, NumericalError) as exc:
                raise type(exc)(f"{exc} ({kind} region of site {i})") from exc

        def family(kind: str) -> list:
            nbs = delaunay_neighbours(p, furthest=kind == "farthest")
            return [build(kind, i, others) for i, others in enumerate(nbs)]

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
