"""Halfspaces, polyhedral sets, membership and facet extraction.

A polyhedral set is an intersection of finitely many closed halfspaces (an
empty list means all of E^n).  Facet extraction reports, for a base point,
the distance, sign, and foot point of every hyperplane that carries a genuine
(n-1)-dimensional face, together with that face expressed as a polyhedral set
in the hyperplane's intrinsic coordinates.

Feasibility and facet-dimension questions are decided by a small max-margin
problem solved by exhaustive vertex enumeration, which is exact at desk scale
(dimension <= 4, a dozen constraints) and avoids a general LP dependency.
Its cost grows combinatorially with the number of halfspaces.  BallSystem
reads the faces of its regions off the sites' Delaunay triangulation and
extracts no facets; it comes here only through the solid-angle fraction of
a face's cone with three or more normals in three or more dimensions
(truncated_volume._solid_angle_fraction), which runs the max-margin solve
and the cone's own profile.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, InputError

# Chord tolerance for deciding that two unit normals describe the same
# hyperplane direction.
HYPERPLANE_ANGLE_TOL = 1e-10
# Slack allowed when testing point membership.
CONTAINS_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Closed halfspace {x : <x, normal> <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        v = np.asarray(self.normal, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InputError("halfspace normal must be a 1d vector")
        norm = float(np.linalg.norm(v))
        if not np.isfinite(norm) or norm < 1e-300:
            raise InputError("halfspace normal must be a non-zero finite vector")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "normal", v)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dimension(self) -> int:
        return self.normal.size

    def flipped(self) -> "Halfspace":
        """The complementary closed halfspace (shared boundary hyperplane)."""
        return Halfspace(normal=-self.normal, offset=-self.offset)

    def slack(self, x: np.ndarray) -> float:
        """offset - <x, normal>; non-negative inside the halfspace."""
        return self.offset - float(np.dot(np.asarray(x, dtype=float), self.normal))


@dataclass(eq=False)
class PolyhedralSet:
    """Intersection of closed halfspaces in E^n; an empty list is all of E^n."""

    dimension: int
    halfspaces: tuple = ()
    _margin_cache: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.dimension = int(self.dimension)
        if self.dimension < 1:
            raise InputError("dimension must be >= 1")
        hs = tuple(self.halfspaces)
        for h in hs:
            if not isinstance(h, Halfspace):
                raise InputError("halfspaces must be Halfspace instances")
            if h.dimension != self.dimension:
                raise InputError(
                    f"halfspace dimension {h.dimension} != set dimension {self.dimension}")
        self.halfspaces = hs

    @property
    def n_halfspaces(self) -> int:
        return len(self.halfspaces)

    def constraint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with rows <a_k, x> <= b_k; empty arrays when unconstrained."""
        if not self.halfspaces:
            return np.zeros((0, self.dimension)), np.zeros(0)
        A = np.array([h.normal for h in self.halfspaces])
        b = np.array([h.offset for h in self.halfspaces])
        return A, b

    def scale(self) -> float:
        """Characteristic length used to set absolute tolerances."""
        if not self.halfspaces:
            return 1.0
        return max(1.0, float(np.max(np.abs([h.offset for h in self.halfspaces]))))

    def feasibility_margin(self) -> float:
        """Radius of the largest ball that fits inside the set (capped).

        Positive: full-dimensional interior.  Near zero: degenerate (the set
        lies in a lower-dimensional flat).  Negative: empty.
        """
        if self._margin_cache is None:
            A, b = self.constraint_arrays()
            self._margin_cache = _max_margin_two_phase(A, b, self.scale())
        return self._margin_cache


@dataclass(frozen=True, eq=False)
class FaceData:
    """A genuine (n-1)-face: distance, sign, foot point, and the induced set.

    epsilon is +1 when the base point lies in the face's halfspace (including
    on its hyperplane), -1 otherwise.  induced_face lives in the hyperplane's
    intrinsic coordinates with the origin at the foot point.
    """

    face_index: int
    h: float
    epsilon: int
    foot: np.ndarray
    induced_face: PolyhedralSet


# ---------------------------------------------------------------------------
# max-margin solver (exhaustive vertex enumeration, desk scale)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n), one per row, in lexicographic order."""
    return np.array(list(itertools.combinations(range(n), k)))


def _solve_max_margin(A: np.ndarray, b: np.ndarray,
                      box: float) -> tuple[float, np.ndarray | None]:
    """Maximize t subject to A y + t <= b, |y_i| <= box, t <= box.

    Returns the best margin found over all vertices of the (y, t) polytope
    and the y of that vertex; (-inf, None) when the system is infeasible
    within roundoff tolerance.
    """
    m, d = A.shape
    if m == 0:
        return box, np.zeros(d)
    rows = np.zeros((m + 2 * d + 1, d + 1))
    rhs = np.zeros(m + 2 * d + 1)
    rows[:m, :d] = A
    rows[:m, d] = 1.0
    rhs[:m] = b
    for i in range(d):
        rows[m + 2 * i, i] = 1.0
        rhs[m + 2 * i] = box
        rows[m + 2 * i + 1, i] = -1.0
        rhs[m + 2 * i + 1] = box
    rows[-1, d] = 1.0
    rhs[-1] = box

    combos = _subsets(rows.shape[0], d + 1)
    mats = rows[combos]                      # (K, d+1, d+1)
    vecs = rhs[combos]                       # (K, d+1)
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-12
    if not np.any(good):
        return -np.inf, None
    sols = np.linalg.solve(mats[good], vecs[good][..., None])[..., 0]
    # reject vertices violating any constraint beyond roundoff at their scale;
    # the scale is that of the terms, since <row, vertex> may cancel (a vertex
    # on the far box of a region 1e6 from the origin)
    vals = rows @ sols.T
    denom = 1.0 + np.abs(rows) @ np.abs(sols.T) + np.abs(rhs[:, None])
    with np.errstate(invalid="ignore"):
        feasible = np.all(vals - rhs[:, None] <= 1e-9 * denom, axis=0)
    if not np.any(feasible):
        return -np.inf, None
    best = sols[feasible][np.argmax(sols[feasible, d])]
    return float(best[d]), best[:d]


def _max_margin_two_phase(A: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Margin solve with a near box first, then a far box for remote regions."""
    t = _solve_max_margin(A, b, box=100.0 * scale)[0]
    if t > 1e-6 * scale:
        return t
    t_far = _solve_max_margin(A, b, box=1e5 * scale)[0]
    return max(t, t_far)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

# Not called here: the tests use it as the membership oracle for Voronoi regions.
def contains(P: PolyhedralSet, x) -> bool:
    """Membership test with a small absolute slack."""
    x = np.asarray(x, dtype=float)
    if x.shape != (P.dimension,):
        raise InputError(f"point shape {x.shape} does not match dimension {P.dimension}")
    A, b = P.constraint_arrays()
    if A.shape[0] == 0:
        return True
    return bool(np.all(A @ x <= b + CONTAINS_SLACK * max(1.0, P.scale())))


def hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to normal.

    Returns an (n, n-1) matrix whose columns span normal^perp; built from a
    Householder reflection so nearby normals give nearby bases.
    """
    normal = np.asarray(normal, dtype=float)
    n = normal.size
    e = np.zeros(n)
    k = int(np.argmax(np.abs(normal)))
    e[k] = 1.0 if normal[k] >= 0 else -1.0
    v = normal + np.linalg.norm(normal) * e
    v /= np.linalg.norm(v)
    H = np.eye(n) - 2.0 * np.outer(v, v)   # H @ normal = -|normal| e_k
    cols = [i for i in range(n) if i != k]
    return H[:, cols]


def _deduplicate(P: PolyhedralSet) -> list[tuple[int, Halfspace]]:
    """Keep one representative per normal direction (tightest offset wins)."""
    normals = np.array([h.normal for h in P.halfspaces]).reshape(-1, P.dimension)
    close = np.linalg.norm(normals[:, None] - normals[None], axis=2) <= HYPERPLANE_ANGLE_TOL
    kept: list[tuple[int, Halfspace]] = []
    for idx, h in enumerate(P.halfspaces):
        pos = next((pos for pos, (kidx, _) in enumerate(kept) if close[idx, kidx]), None)
        if pos is None:
            kept.append((idx, h))
        elif h.offset < kept[pos][1].offset:
            kept[pos] = (idx, h)
    return kept


def face_data(P: PolyhedralSet, p0) -> list[FaceData]:
    """Genuine (n-1)-faces of P with distances and signs relative to p0.

    A halfspace contributes a face only when a relatively-open patch of its
    boundary hyperplane survives inside all other halfspaces; redundant
    halfspaces are dropped.  Raises GeometryError when a facet's dimension is
    numerically ambiguous.
    """
    if P.dimension < 2:
        raise InputError("face_data requires dimension >= 2")
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (P.dimension,):
        raise InputError(f"base point shape {p0.shape} does not match E^{P.dimension}")
    unique = _deduplicate(P)
    scale = max(P.scale(), 1.0 + float(np.linalg.norm(p0)))
    faces: list[FaceData] = []
    normals = np.array([h.normal for _, h in unique])
    offsets = np.array([h.offset for _, h in unique])
    for k, (idx, h) in enumerate(unique):
        others = np.arange(len(unique)) != k
        basis = hyperplane_basis(h.normal)
        sigma = h.slack(p0)
        foot = p0 + sigma * h.normal
        a = normals[others] @ basis
        beta = offsets[others] - normals[others] @ foot
        na = np.linalg.norm(a, axis=1)
        # constraint hyperplanes parallel to this one
        parallel = na <= 1e-12
        if np.any(parallel & (beta < -1e-12 * scale)):
            continue
        A, bvec = a[~parallel] / na[~parallel, None], beta[~parallel] / na[~parallel]
        t = _max_margin_two_phase(A, bvec, scale)
        if t <= 1e-12 * scale:
            continue
        if t <= 1e-7 * scale:
            raise GeometryError(
                f"facet dimension numerically ambiguous for halfspace {idx} "
                f"(margin {t:.3e} at scale {scale:.3e})")
        induced = PolyhedralSet(
            dimension=P.dimension - 1,
            halfspaces=tuple(Halfspace(A[k], bvec[k]) for k in range(A.shape[0])))
        faces.append(FaceData(
            face_index=idx,
            h=abs(sigma),
            epsilon=1 if sigma >= 0 else -1,
            foot=foot,
            induced_face=induced))
    return faces
