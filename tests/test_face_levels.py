"""The face pass (_levels) against a brute-force enumeration of the faces.

Both family builders read a triangulation's faces off _levels, one level at
a time from the ridges down to the sites.  The reference here lists every
m-subset of every full simplex with itertools.combinations and finds the
stars, cofaces and hull rays by dictionary lookups.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from kpv import ball_volumes


def _grid(*sides):
    return np.array(list(itertools.product(*(range(k) for k in sides))), dtype=float)


def _in_e3(pts):
    """Sites of the plane placed in a tilted plane of E^3."""
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    return np.column_stack((pts, np.zeros(len(pts)))) @ q.T + [0.3, -1.2, 2.0]


SETS = {
    "random-2d": np.random.default_rng(1).uniform(-1, 1, (14, 2)),
    "random-3d": np.random.default_rng(2).uniform(-1, 1, (12, 3)),
    "random-4d": np.random.default_rng(3).uniform(-1, 1, (9, 4)),
    # cospherical cells, pulled into simplices
    "lattice-3x3": _grid(3, 3),
    "lattice-2x2x2x2": _grid(2, 2, 2, 2),
    "planar-in-e3": _in_e3(np.random.default_rng(4).uniform(-1, 1, (9, 2))),
    "collinear-in-e3": np.outer([0.0, 0.4, 1.0, 1.7, 3.0], [1.0, -2.0, 0.5]),
}


def _full(points, kind):
    centred = points - points.mean(axis=0)
    rank, basis = ball_volumes._affine_rank(centred)
    return np.sort(ball_volumes._triangulation(centred, rank, basis, kind), axis=1)


def _brute_levels(full):
    """(faces, star, cofaces, rays) per level m = k, ..., 1, from all subsets."""
    simplices = [tuple(s) for s in full.tolist()]
    k = len(simplices[0]) - 1
    ridges = sorted({r for s in simplices for r in itertools.combinations(s, k)})
    count = Counter(r for s in simplices for r in itertools.combinations(s, k))
    hull = [i for i, r in enumerate(ridges) if count[r] == 1]
    above = simplices
    for m in range(k, 0, -1):
        faces = sorted({f for s in simplices for f in itertools.combinations(s, m)})
        row, row_above = ({f: i for i, f in enumerate(level)} for level in (faces, above))
        star = [[row[f] for f in itertools.combinations(s, m)] for s in simplices]
        cofaces = sorted(((row[tuple(v for v in tau if v != j)], row_above[tau], j)
                          for tau in above for j in tau), key=lambda c: (c[0], c[2]))
        rays = sorted((row[f], i) for i in hull for f in itertools.combinations(ridges[i], m))
        yield faces, star, cofaces, rays
        above = faces


@pytest.mark.parametrize("kind", ["nearest", "farthest"])
@pytest.mark.parametrize("name", list(SETS))
def test_levels_are_the_subsets_of_the_full_simplices(name, kind):
    points = SETS[name]
    full = _full(points, kind)
    got = list(ball_volumes._levels(full, len(points)))
    want = list(_brute_levels(full))
    assert len(got) == len(want) == full.shape[1] - 1
    for (faces, star, cofaces, rays), (faces0, star0, cofaces0, rays0) in zip(got, want):
        assert faces.tolist() == [list(f) for f in faces0]
        assert star.tolist() == star0
        assert list(zip(*(c.tolist() for c in cofaces))) == cofaces0
        assert list(zip(*(r.tolist() for r in rays))) == rays0
