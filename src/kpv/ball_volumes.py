"""Volumes and boundary volumes of unions and intersections of equal balls.

The decomposition: the union of balls of radius r is the disjoint (up to
measure zero) union of the nearest-point Voronoi regions truncated at radius
r around their sites, and the intersection is the analogous union of
truncated farthest-point regions.  Each truncated region is a ball-truncated
polyhedral set, so its radial volume profile comes from the recursive ODE
engine; summing profiles per site gives exact volumes, and summing the ODE
right-hand sides gives exact boundary measures.

A hit-or-miss Monte Carlo path over the bounding box of the union serves as
the independent oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .configurations import PointConfiguration, distance_matrix
from .errors import GeometryError, InputError
from .polyhedra import Halfspace, PolyhedralSet
from .truncated_volume import (RadialVolumeProfile, StepControl, unit_ball_volume,
                               volume_profile)

DISTINCT_SITE_TOL = 1e-9


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


@dataclass(frozen=True)
class BallSystemVolumes:
    """Volumes (and, for the ODE path, boundary volumes) at one radius."""

    r: float
    union_volume: float | None = None
    intersection_volume: float | None = None
    union_boundary: float | None = None
    intersection_boundary: float | None = None
    method: str = "voronoi_ode"
    union_stderr: float | None = None
    intersection_stderr: float | None = None


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


def nearest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Nearest-point region of site i: all bisector halfspaces toward i."""
    _check_distinct(p)
    pts = p.points
    if not 0 <= i < p.n_points:
        raise InputError(f"site index {i} out of range")
    hs = tuple(_bisector(pts[i], pts[j]) for j in range(p.n_points) if j != i)
    return VoronoiRegion(kind="nearest", site_index=i,
                         region=PolyhedralSet(p.dimension, hs))


def farthest_voronoi(p: PointConfiguration, i: int) -> VoronoiRegion:
    """Farthest-point region of site i (may be empty for interior sites)."""
    _check_distinct(p)
    pts = p.points
    if not 0 <= i < p.n_points:
        raise InputError(f"site index {i} out of range")
    hs = tuple(_bisector(pts[i], pts[j]).flipped()
               for j in range(p.n_points) if j != i)
    return VoronoiRegion(kind="farthest", site_index=i,
                         region=PolyhedralSet(p.dimension, hs))


def _thread_count() -> int:
    raw = os.environ.get("KPV_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class BallSystem:
    """Per-site truncated-region profiles for one configuration.

    Profiles are built once up to r_max (np.inf covers every radius) and then
    evaluated at a radius or a whole array of radii in one pass, so radius
    scans (threshold searches, Laurent windows) stay cheap.  Per-site
    builds run in parallel when KPV_THREADS > 1; sums always reduce in
    ascending site order, so results do not depend on scheduling.
    """

    def __init__(self, p: PointConfiguration, r_max: float,
                 step_control: StepControl | None = None,
                 families: tuple = ("nearest", "farthest")):
        _check_distinct(p)
        self.config = p
        self.r_max = float(r_max)
        self.control = step_control or StepControl()
        self.dimension = p.dimension
        self.delta = unit_ball_volume(p.dimension)
        self.families = tuple(families)
        scale = max(1.0, p.diameter)

        regions: list[VoronoiRegion] = []
        if "nearest" in self.families:
            regions += [nearest_voronoi(p, i) for i in range(p.n_points)]
        if "farthest" in self.families:
            regions += [farthest_voronoi(p, i) for i in range(p.n_points)]

        def build(region: VoronoiRegion) -> RadialVolumeProfile | None:
            # nearest regions always contain their site with positive margin;
            # empty or lower-dimensional farthest regions contribute 0
            if (region.kind == "farthest"
                    and region.region.feasibility_margin() <= 1e-9 * scale):
                return None
            return volume_profile(region.region, p.points[region.site_index],
                                  self.r_max, self.control)

        workers = _thread_count()
        if workers > 1 and len(regions) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                profiles = list(pool.map(build, regions))
        else:
            profiles = [build(reg) for reg in regions]
        n_near = p.n_points if "nearest" in self.families else 0
        self.nearest_profiles = profiles[:n_near]
        self.farthest_profiles = profiles[n_near:]

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

    def _require(self, family: str):
        if family not in self.families:
            raise InputError(f"system was built without the {family} family")

    def union_volume(self, r):
        """Union volume at a radius (float) or an array of radii (array)."""
        self._require("nearest")
        return self._sum(self.nearest_profiles, r)

    def intersection_volume(self, r):
        """Intersection volume at a radius (float) or an array of radii (array)."""
        self._require("farthest")
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
        tol = self.control.breakpoint_tol * np.maximum(1.0, arr)
        bad = np.flatnonzero(self._breakpoint_gap(arr) < tol)
        if bad.size:
            rb, tb = float(arr[bad[0]]), float(tol[bad[0]])
            raise GeometryError(
                f"radius {rb:g} sits on a profile breakpoint (within {tb:g}); "
                f"offset the radius by at least {tb:g}")

    def off_breakpoint(self, r):
        """Nearest radius at least the event tolerance away from breakpoints.

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
            tol = self.control.breakpoint_tol * np.maximum(1.0, out)
            near = self._breakpoint_gap(out) < tol
            if not near.any():
                return float(out[0]) if arr.ndim == 0 else out
            out[near] += 3.0 * tol[near]
        stuck = float(np.atleast_1d(arr)[np.argmax(near)])
        raise GeometryError(f"could not move radius {stuck:g} off the breakpoint set")

    def union_boundary(self, r):
        self._check_off_breakpoint(r)
        return self._sum(self.nearest_profiles, r, derivative=True)

    def intersection_boundary(self, r):
        self._check_off_breakpoint(r)
        return self._sum(self.farthest_profiles, r, derivative=True)

    def volumes(self, r: float, boundaries: bool = True) -> BallSystemVolumes:
        ub = ib = None
        if boundaries:
            ub = self.union_boundary(r)
            ib = self.intersection_boundary(r)
        return BallSystemVolumes(r=r,
                                 union_volume=self.union_volume(r),
                                 intersection_volume=self.intersection_volume(r),
                                 union_boundary=ub, intersection_boundary=ib,
                                 method="voronoi_ode")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def union_volume(p: PointConfiguration, r: float, method: str = "voronoi_ode",
                 samples: int = 1_000_000, seed: int = 0,
                 step_control: StepControl | None = None) -> BallSystemVolumes:
    """Volume of the union of balls of radius r about the points."""
    if method == "voronoi_ode":
        system = BallSystem(p, r_max=r * (1 + 1e-9), step_control=step_control,
                            families=("nearest",))
        return BallSystemVolumes(r=r, union_volume=system.union_volume(r),
                                 method="voronoi_ode")
    if method == "monte_carlo":
        est, se = mc_ball_volume(p, r, "union", samples, seed)
        return BallSystemVolumes(r=r, union_volume=est, union_stderr=se,
                                 method="monte_carlo")
    raise InputError(f"unknown method {method!r}")


def intersection_volume(p: PointConfiguration, r: float, method: str = "voronoi_ode",
                        samples: int = 1_000_000, seed: int = 0,
                        step_control: StepControl | None = None) -> BallSystemVolumes:
    """Volume of the intersection of balls of radius r (0 when empty)."""
    if method == "voronoi_ode":
        system = BallSystem(p, r_max=r * (1 + 1e-9), step_control=step_control,
                            families=("farthest",))
        return BallSystemVolumes(r=r, intersection_volume=system.intersection_volume(r),
                                 method="voronoi_ode")
    if method == "monte_carlo":
        est, se = mc_ball_volume(p, r, "intersection", samples, seed)
        return BallSystemVolumes(r=r, intersection_volume=est, intersection_stderr=se,
                                 method="monte_carlo")
    raise InputError(f"unknown method {method!r}")


def boundary_volume(p: PointConfiguration, r: float, which: str,
                    step_control: StepControl | None = None) -> float:
    """(n-1)-volume of the boundary of the union or intersection at radius r.

    Read off the ODE right-hand sides (d/dr of the volume), not finite
    differences.  Raises when r sits on a profile breakpoint.
    """
    if which not in ("union", "intersection"):
        raise InputError(f"which must be 'union' or 'intersection', got {which!r}")
    family = "nearest" if which == "union" else "farthest"
    system = BallSystem(p, r_max=r * (1 + 1e-9), step_control=step_control,
                        families=(family,))
    if which == "union":
        return system.union_boundary(r)
    return system.intersection_boundary(r)


def _mc_counts(p: PointConfiguration, r: float, samples: int, seed: int):
    pts = p.points
    lo = np.min(pts, axis=0) - r
    hi = np.max(pts, axis=0) + r
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits_any = 0
    hits_all = 0
    done = 0
    chunk = 500_000
    r2 = r * r
    while done < samples:
        m = min(chunk, samples - done)
        x = rng.uniform(lo, hi, size=(m, p.dimension))
        inside_any = np.zeros(m, dtype=bool)
        inside_all = np.ones(m, dtype=bool)
        for site in pts:
            d2 = np.sum((x - site) ** 2, axis=1)
            np.logical_or(inside_any, d2 <= r2, out=inside_any)
            np.logical_and(inside_all, d2 <= r2, out=inside_all)
        hits_any += int(np.count_nonzero(inside_any))
        hits_all += int(np.count_nonzero(inside_all))
        done += m
    out = {}
    for name, hits in (("union", hits_any), ("intersection", hits_all)):
        frac = hits / samples
        out[name] = (box * frac, box * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
    return out


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
    counts = _mc_counts(p, r, samples, seed)
    return counts if which == "both" else counts[which]
