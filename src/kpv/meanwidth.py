"""Mean width of convex hulls of finite point sets.

The functional computed here is the raw integral of the support function
over the unit sphere with Lebesgue surface measure (total mass n * delta_n),
so in the plane it equals the hull perimeter.  Three routes are provided:
sphere quadrature (deterministic trapezoid in the plane, antithetic Monte
Carlo in higher dimensions), the exact planar perimeter, and the 3-d edge
functional sum(beta_ij * d_ij) scaled by a dimensional constant.  The
constants are closed forms by Kubota's formula, int_{S^(n-1)} h_K =
kappa_(n-1) V_1(K) (Schneider, Convex Bodies): V_1 is half the perimeter of a
planar body and sum(beta_ij * d_ij) / (2 pi) for a 3-polytope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .configurations import PointConfiguration
from .errors import GeometryError, InputError
from .polyhedra import convex_hull_2d
from .truncated_volume import unit_ball_volume

_STDERR_FLOOR = 1e-15


@dataclass(frozen=True)
class MeanWidthResult:
    """Mean-width value with its method tag and error estimate."""

    value: float
    method: str                 # quadrature | exact2d | edge_sum_3d
    stderr: float
    nodes_used: int


@dataclass(frozen=True)
class EdgeCurvatureData:
    """Hull edge with its length and exterior (dihedral complement) angle."""

    edge: tuple[int, int]
    length: float
    exterior_angle: float


@dataclass(frozen=True)
class CalibrationConstant:
    """Multiplier turning a lower-dimensional reference functional into M_n.

    For n0 = 2 the reference functional is the planar hull perimeter and the
    constant is kappa_(n-1) / 2; for n0 = 3 it is the edge sum
    sum(beta_ij * d_ij) and the constant is kappa_(n-1) / (2 pi).  Both are
    exact.  Same-dimension constants where the reference functional is M_n
    itself are exactly 1.
    """

    n0: int
    n: int
    value: float


def _support_values(pts: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return np.max(directions @ pts.T, axis=1)


def mean_width_quadrature(points: PointConfiguration, nodes: int,
                          seed: int = 0) -> MeanWidthResult:
    """Sphere quadrature of the support function.

    In the plane the rule is a deterministic uniform-angle trapezoid and the
    reported stderr is the difference against the half-resolution rule (a
    conservative discretization bound).  In higher dimensions directions are
    sampled antithetically, which also keeps the estimate non-negative.
    """
    if nodes < 1:
        raise InputError("nodes must be >= 1")
    n = points.dimension
    # centering changes no support integral (the linear term integrates to
    # zero over the sphere) but shrinks the sampling variance
    pts = points.points - np.mean(points.points, axis=0)
    total = n * unit_ball_volume(n)

    if n == 2:
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        h = _support_values(pts, np.column_stack([np.cos(theta), np.sin(theta)]))
        value = float(np.mean(h)) * total
        if nodes >= 2:
            coarse = float(np.mean(h[::2])) * total
            # kink contributions bound the periodic-rule error by
            # perimeter * dtheta^2 / 8 (sum of support-derivative jumps is
            # the perimeter, which is the value itself here)
            dtheta = 2.0 * math.pi / nodes
            stderr = max(abs(value - coarse), abs(value) * dtheta * dtheta / 8.0)
        else:
            stderr = abs(value)
        return MeanWidthResult(value=max(value, 0.0), method="quadrature",
                               stderr=max(stderr, _STDERR_FLOOR * (1 + abs(value))),
                               nodes_used=nodes)

    pairs = max(1, (nodes + 1) // 2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((pairs, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True) + 1e-300
    pair_means = 0.5 * (_support_values(pts, g) + _support_values(pts, -g))
    value = float(np.mean(pair_means)) * total
    if pairs >= 2:
        stderr = float(np.std(pair_means, ddof=1) / math.sqrt(pairs)) * total
    else:
        stderr = abs(value)
    return MeanWidthResult(value=value, method="quadrature",
                           stderr=max(stderr, _STDERR_FLOOR * (1 + abs(value))),
                           nodes_used=2 * pairs)


def mean_width_exact_2d(points: PointConfiguration) -> MeanWidthResult:
    """Exact planar mean width: the hull perimeter (a segment counts twice)."""
    if points.dimension != 2:
        raise InputError("mean_width_exact_2d requires a 2-dimensional configuration")
    hull = convex_hull_2d(points)
    m = hull.shape[0]
    if m == 1:
        value = 0.0
    elif m == 2:
        value = 2.0 * float(np.linalg.norm(hull[1] - hull[0]))
    else:
        value = float(np.sum(np.linalg.norm(np.roll(hull, -1, axis=0) - hull, axis=1)))
    return MeanWidthResult(value=value, method="exact2d", stderr=0.0, nodes_used=0)


def edge_curvatures_3d(points: PointConfiguration) -> list[EdgeCurvatureData]:
    """Edges of a full-dimensional 3-d hull with lengths and exterior angles.

    Coplanar facets are merged (1e-8 angular tolerance) so triangulation
    edges inside a flat face are not reported.  The exterior angle of an edge
    is the angle between the outward normals of its two incident facets.
    """
    if points.dimension != 3:
        raise InputError("edge_curvatures_3d requires a 3-dimensional configuration")
    pts = points.points
    degenerate_msg = ("hull is not full-dimensional; use mean_width_exact_2d in "
                      "the spanning plane or mean_width_quadrature")
    if points.n_points < 4:
        raise GeometryError(degenerate_msg)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise GeometryError(degenerate_msg) from exc
    diam = float(np.max(np.ptp(pts, axis=0)))
    if hull.volume <= 1e-10 * max(diam, 1e-30) ** 3:
        raise GeometryError(degenerate_msg)

    normals = hull.equations[:, :3]
    nf = len(hull.simplices)
    parent = list(range(nf))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in range(nf):
        for t in hull.neighbors[s]:
            if t > s and np.linalg.norm(normals[s] - normals[t]) <= 1e-8:
                ra, rb = find(s), find(int(t))
                if ra != rb:
                    parent[rb] = ra

    edges: dict[tuple[int, int], tuple[int, int]] = {}
    for s in range(nf):
        for k, t in enumerate(hull.neighbors[s]):
            t = int(t)
            if t < s:
                continue
            gs, gt = find(s), find(t)
            if gs == gt:
                continue
            verts = [int(v) for j, v in enumerate(hull.simplices[s]) if j != k]
            key = (min(verts), max(verts))
            edges.setdefault(key, (gs, gt))

    out = []
    for (i, j), (gs, gt) in sorted(edges.items()):
        c = float(np.clip(np.dot(normals[gs], normals[gt]), -1.0, 1.0))
        beta = math.acos(c)
        out.append(EdgeCurvatureData(edge=(i, j),
                                     length=float(np.linalg.norm(pts[i] - pts[j])),
                                     exterior_angle=beta))
    return out


def edge_functional_3d(points: PointConfiguration) -> float:
    """sum(beta_ij * d_ij) over the hull edges."""
    return sum(e.exterior_angle * e.length for e in edge_curvatures_3d(points))


def mean_width_edge_sum_3d(points: PointConfiguration) -> MeanWidthResult:
    """Mean width from the edge functional: c * sum(beta * d), c = calibrate(3, 3)."""
    c = calibrate(3, 3)
    s = edge_functional_3d(points)
    return MeanWidthResult(value=c.value * s, method="edge_sum_3d",
                           stderr=_STDERR_FLOOR * (1 + c.value * s), nodes_used=0)


def calibrate(n0: int, n: int) -> CalibrationConstant:
    """The dimensional constant of the n0-dimensional reference formula.

    Supported: 2 <= n0 <= n <= 4.  (2, n) lifts a planar perimeter into E^n
    and is kappa_(n-1) / 2; (3, n) scales the 3-d edge sum and is
    kappa_(n-1) / (2 pi).  (2, 2) and (4, 4), where the reference functional
    is M_n itself, are 1.
    """
    if not (2 <= n0 <= n <= 4):
        raise InputError(f"unsupported calibration pair (n0={n0}, n={n})")
    if n0 == n and n0 in (2, 4):
        value = 1.0
    elif n0 == 2:
        value = unit_ball_volume(n - 1) / 2.0
    else:   # n0 == 3, n in (3, 4)
        value = unit_ball_volume(n - 1) / (2.0 * math.pi)
    return CalibrationConstant(n0=n0, n=n, value=value)
