"""Mean width of convex hulls of finite point sets.

The functional computed here is the raw integral of the support function
over the unit sphere with Lebesgue surface measure (total mass n * delta_n),
so in the plane it equals the hull perimeter.  Two routes are provided.  The
exact one is Kubota's formula, int_{S^(n-1)} h_K = kappa_(n-1) V_1(K)
(Schneider, Convex Bodies, section 4.2), with V_1 taken in the flat the
points span: half the perimeter of a polygon, sum(beta_e * |e|) / (2 pi)
over the edges of a 3-polytope.  It covers hulls of rank <= 3 in any
dimension.  Sphere quadrature (a deterministic trapezoid in the plane,
antithetic Monte Carlo in higher dimensions) covers every rank;
reference_mean_width takes the exact route wherever it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .configurations import PointConfiguration
from .errors import GeometryError, InputError
from .truncated_volume import unit_ball_volume

_STDERR_FLOOR = 1e-15
# the sphere quadrature's directions and seed when a hull of rank >= 4 needs it
QUADRATURE_NODES = 200_000
QUADRATURE_SEED = 433494437


@dataclass(frozen=True)
class MeanWidthResult:
    """Mean-width value with its method tag and error estimate."""

    value: float
    method: str                 # exact | quadrature
    stderr: float
    nodes_used: int


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


def _flat_coordinates(points: PointConfiguration) -> np.ndarray:
    """The centred points in an orthonormal frame of the k-flat they span (N x k).

    k counts the singular values of the centred points above
    1e-9 * max(1, largest), so a set within that of a k-flat is taken as flat.
    """
    centered = points.points - np.mean(points.points, axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    k = int(np.sum(svals > 1e-9 * max(1.0, float(svals[0]))))
    return centered @ vt[:k].T


def _intrinsic_volume_1(x: np.ndarray) -> float:
    """V_1 of the hull of x, full-dimensional in its k <= 3 coordinates."""
    k = x.shape[1]
    if k == 0:
        return 0.0
    if k == 1:
        return float(np.ptp(x[:, 0]))
    hull = ConvexHull(x)
    if k == 2:
        return 0.5 * float(hull.area)        # qhull's planar "area" is the perimeter
    # sum of |e| * beta_e / (2 pi) over the edges of the triangulated boundary,
    # beta_e the angle between the unit normals u, v of the two triangles at e.
    # beta_e = 2 atan2(|u - v|, |u + v|) is exact to rounding at every angle:
    # an edge inside a flat face gets beta ~ 1e-16, so coplanar triangles need
    # no merging
    s, j = np.nonzero(hull.neighbors > np.arange(len(hull.simplices))[:, None])
    u = hull.equations[s, :3]
    v = hull.equations[hull.neighbors[s, j], :3]
    a = x[hull.simplices[s, (j + 1) % 3]]
    b = x[hull.simplices[s, (j + 2) % 3]]
    w = np.linalg.norm(np.stack([u - v, u + v, a - b]), axis=2)
    return float(np.arctan2(w[0], w[1]) @ w[2]) / math.pi


def mean_width_exact(points: PointConfiguration) -> MeanWidthResult:
    """Exact mean width of a hull of rank k <= 3, in any dimension n.

    Kubota's formula gives M_n = kappa_(n-1) V_1(K), and V_1 is that of K in
    its own k-flat: 0 for a point, the length of a segment, half the
    perimeter of a polygon and sum |e| beta_e / (2 pi) over the edges of a
    polytope.  Raises GeometryError for k >= 4 (use mean_width_quadrature).
    """
    x = _flat_coordinates(points)
    if x.shape[1] > 3:
        raise GeometryError(f"the hull spans a {x.shape[1]}-flat; exact mean "
                            "widths need rank <= 3, use mean_width_quadrature")
    value = unit_ball_volume(points.dimension - 1) * _intrinsic_volume_1(x)
    return MeanWidthResult(value=value, method="exact",
                           stderr=_STDERR_FLOOR * (1 + value), nodes_used=0)


def reference_mean_width(p: PointConfiguration, nodes: int = QUADRATURE_NODES,
                         seed: int = QUADRATURE_SEED) -> MeanWidthResult:
    """Best available mean width with its error bound.

    Exact for hulls of rank <= 3 in any dimension; sphere quadrature with
    nodes and seed above, where nodes_used is the number of directions taken.
    """
    if _flat_coordinates(p).shape[1] <= 3:
        return mean_width_exact(p)
    return mean_width_quadrature(p, nodes=nodes, seed=seed)


# Not called here (nor mean_width_edge_sum_3d): reference_mean_width goes
# through mean_width_exact, and bench/tracer.py rebinds both names.
def mean_width_exact_2d(points: PointConfiguration) -> MeanWidthResult:
    """Exact planar mean width: the hull perimeter (a segment counts twice)."""
    if points.dimension != 2:
        raise InputError("mean_width_exact_2d requires a 2-dimensional configuration")
    return mean_width_exact(points)


def mean_width_edge_sum_3d(points: PointConfiguration) -> MeanWidthResult:
    """Exact 3-d mean width: half the edge sum sum(beta * d) of the hull."""
    if points.dimension != 3:
        raise InputError("mean_width_edge_sum_3d requires a 3-dimensional configuration")
    return mean_width_exact(points)


# Not called here: bench/run.py's setup calls calibrate and bench/tracer.py
# rebinds it, so it stays importable from src.
def calibrate(n0: int, n: int) -> float:
    """The dimensional constant of the n0-dimensional reference formula.

    The multiplier turning a lower-dimensional reference functional into M_n,
    exact for 2 <= n0 <= n <= 4.  (2, n) lifts a planar perimeter into E^n
    and is kappa_(n-1) / 2; (3, n) scales the 3-d edge sum
    sum(beta_ij * d_ij) and is kappa_(n-1) / (2 pi).  (2, 2) and (4, 4),
    where the reference functional is M_n itself, are 1.
    """
    if not (2 <= n0 <= n <= 4):
        raise InputError(f"unsupported calibration pair (n0={n0}, n={n})")
    if n0 == n and n0 in (2, 4):
        return 1.0
    if n0 == 2:
        return unit_ball_volume(n - 1) / 2.0
    return unit_ball_volume(n - 1) / (2.0 * math.pi)     # n0 == 3, n in (3, 4)
