"""Point configurations, their distance structure, and rearrangement predicates.

A configuration is an ordered tuple of N points in Euclidean n-space.  Its
pairwise distance matrix is computed once, on first read, and kept read-only
(PointConfiguration.distances): the diameter, the duplicate-site check of a
ball system and the predicates here all read that one array.  The predicates
compare configurations index by index: a rearrangement is an expansion when
no pairwise distance shrinks, and two configurations are congruent when their
(indexed) distance matrices agree.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, InputError

# Absolute tolerance for distance comparisons on unit-scale configurations.
DEFAULT_TOL = 1e-9
# random_expansion's budget: noise draws, and relaxation sweeps per draw
MAX_ATTEMPTS = 25
MAX_SWEEPS = 500


def _is_coordinate(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _as_point_array(points, dimension: int | None = None) -> np.ndarray:
    """points as a float array of N >= 1 rows of finite coordinates (InputError otherwise).

    Strings, booleans and ragged rows are refused, not coerced.
    """
    # a ragged row stays a list inside an object array, and fails as a coordinate
    arr = points if isinstance(points, np.ndarray) else np.asarray(points, dtype=object)
    if arr.dtype.kind not in "iufO" or (arr.dtype.kind == "O"
                                        and not all(map(_is_coordinate, arr.ravel()))):
        raise InputError("point coordinates must all be real numbers, in rows of equal length")
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError as exc:
        raise InputError(f"point coordinates must all be finite: {exc}") from exc
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"points must form a non-empty 2d array, got shape {arr.shape}")
    if dimension is not None and arr.shape[1] != dimension:
        raise InputError(f"points have {arr.shape[1]} coordinates, expected {dimension}")
    if not np.all(np.isfinite(arr)):
        raise InputError("point coordinates must all be finite")
    return arr


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Ordered list of N points in E^n.

    Immutable: the coordinates, and the distance matrix computed on its
    first read (distances), are stored read-only, so instances can be
    shared freely between threads (two threads reading distances first at
    once may each compute the same matrix).
    """

    dimension: int
    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        arr = _as_point_array(self.points, int(self.dimension)).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def from_points(cls, points, label: str | None = None) -> "PointConfiguration":
        arr = _as_point_array(points)
        return cls(dimension=arr.shape[1], points=arr, label=label)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """The pairwise distance matrix (read-only), computed on first read."""
        return distance_matrix(self)

    @property
    def diameter(self) -> float:
        return float(np.max(self.distances))

    def to_dict(self) -> dict:
        d = {"dimension": self.dimension, "points": self.points.tolist()}
        if self.label is not None:
            d["label"] = self.label
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PointConfiguration":
        try:
            dimension = d["dimension"]
            points = d["points"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"configuration record missing field: {exc}") from exc
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
            raise InputError(f"dimension must be a positive integer, got {dimension!r}")
        return cls(dimension=dimension, points=points, label=d.get("label"))


def distance_matrix(config: PointConfiguration) -> np.ndarray:
    """Pairwise Euclidean distances of a configuration, as a read-only array.

    A configuration keeps the one it reads as PointConfiguration.distances.
    """
    pts = config.points
    diff = pts[:, None, :] - pts[None, :, :]
    m = np.sqrt(np.sum(diff * diff, axis=2))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    m.setflags(write=False)
    return m


def _require_same_count(p: PointConfiguration, q: PointConfiguration):
    if p.n_points != q.n_points:
        raise InputError(
            f"configurations are not comparable: {p.n_points} vs {q.n_points} points")


def is_expansion(p: PointConfiguration, q: PointConfiguration,
                 tol: float = DEFAULT_TOL) -> bool:
    """True when no indexed pairwise distance of q falls below the one of p.

    The configurations may live in different dimensions; only the distance
    matrices are compared.
    """
    _require_same_count(p, q)
    return bool(np.all(q.distances >= p.distances - tol))


def are_congruent(p: PointConfiguration, q: PointConfiguration,
                  tol: float = DEFAULT_TOL) -> bool:
    """True when the indexed distance matrices agree entrywise within tol.

    This is labelled congruence: point i of p corresponds to point i of q.
    Equal distance matrices determine the configurations up to a Euclidean
    isometry.
    """
    _require_same_count(p, q)
    return bool(np.all(np.abs(p.distances - q.distances) <= tol))


def embed(config: PointConfiguration, target_dim: int) -> PointConfiguration:
    """Pad every point with zero coordinates up to target_dim.

    Zero padding is an isometric embedding, so the distance matrix is
    preserved exactly.
    """
    if target_dim < config.dimension:
        raise InputError(
            f"cannot embed {config.dimension}-dimensional points into E^{target_dim}")
    if target_dim == config.dimension:
        return config
    padded = np.zeros((config.n_points, target_dim))
    padded[:, :config.dimension] = config.points
    return PointConfiguration(dimension=target_dim, points=padded, label=config.label)


def random_expansion(p: PointConfiguration, seed: int, magnitude: float) -> PointConfiguration:
    """Generate a random expansion of p in the same dimension.

    The points are perturbed by Gaussian noise of the given magnitude and
    then relaxed: every pair that got closer than its original distance is
    pushed apart along its connecting line until a full sweep finds no
    violation.  Deterministic for a fixed seed.  Raises GeometryError when no
    expansion is found in MAX_ATTEMPTS draws of MAX_SWEEPS sweeps each
    (retry with another seed).
    """
    if not 0 <= magnitude < math.inf:
        raise InputError(f"magnitude must be finite and non-negative, got {magnitude!r}")
    if magnitude == 0:
        return PointConfiguration(p.dimension, p.points, label=p.label)
    rng = np.random.default_rng(seed)
    targets = p.distances
    n, dim = p.n_points, p.dimension
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(MAX_ATTEMPTS):
        q = p.points + magnitude * rng.standard_normal((n, dim))
        ok = n == 1
        for _ in range(MAX_SWEEPS):
            violated = False
            for i, j in pairs:
                d = float(np.linalg.norm(q[i] - q[j]))
                target = targets[i, j]
                if d >= target:
                    continue
                violated = True
                # push the pair apart symmetrically, slightly past the target
                want = target * (1.0 + 1e-9) if target > 0 else magnitude * 1e-6
                if d > 1e-300:
                    u = (q[i] - q[j]) / d
                else:
                    u = np.zeros(dim)
                    u[(i + j) % dim] = 1.0
                shift = 0.5 * (want - d) * u
                q[i] += shift
                q[j] -= shift
            if not violated:
                ok = True
                break
        if ok:
            out = PointConfiguration(p.dimension, q, label=p.label)
            if is_expansion(p, out, tol=0.0):
                return out
    raise GeometryError(
        f"no expansion found for seed={seed}, magnitude={magnitude}; retry with a new seed")


def load_configuration(path) -> PointConfiguration:
    """Read a configuration from its JSON file format."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read configuration from {path}: {exc}") from exc
    return PointConfiguration.from_dict(data)


def save_configuration(config: PointConfiguration, path, metadata: dict | None = None):
    """Write a configuration as JSON; extra metadata keys are preserved."""
    record = config.to_dict()
    if metadata:
        record["metadata"] = metadata
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
