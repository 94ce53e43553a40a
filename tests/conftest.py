"""Shared oracles and generators for the test suite.

Expected values tagged as derived in the tests come from the closed forms
implemented here (two-circle lens, circular segment, ball volumes), computed
independently of the code paths they check.
"""

import math

import numpy as np
import pytest

from kpv.configurations import PointConfiguration


def lens_area(d: float, r: float) -> float:
    """Area of the intersection of two disks of radius r at center distance d."""
    if d >= 2.0 * r:
        return 0.0
    return 2.0 * r * r * math.acos(d / (2.0 * r)) - 0.5 * d * math.sqrt(
        4.0 * r * r - d * d)


def two_disk_union(d: float, r: float) -> float:
    return 2.0 * math.pi * r * r - lens_area(d, r)


def halfplane_truncated_area(h: float, r: float) -> float:
    """Area of {x1 <= h} cut with a disk of radius r about the origin (h > 0)."""
    if r <= h:
        return math.pi * r * r
    return math.pi * r * r - (r * r * math.acos(h / r) - h * math.sqrt(r * r - h * h))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def placed(rng: np.random.Generator, pts, n: int) -> PointConfiguration:
    """pts (N x k) placed in E^n, n >= k, by a random isometry."""
    pts = np.asarray(pts, dtype=float)
    padded = np.hstack([pts, np.zeros((len(pts), n - pts.shape[1]))])
    return PointConfiguration.from_points(
        padded @ random_orthogonal(rng, n).T + rng.uniform(-2, 2, n))


def random_config(rng: np.random.Generator, dim: int, n_pts: int,
                  span: float = 1.0) -> PointConfiguration:
    return PointConfiguration.from_points(rng.uniform(-span, span, size=(n_pts, dim)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240211)
