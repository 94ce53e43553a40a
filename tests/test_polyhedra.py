import math

import numpy as np
import pytest

from kpv.configurations import PointConfiguration
from kpv.errors import GeometryError, InputError
from kpv.polyhedra import (Halfspace, PolyhedralSet, complement_set, contains,
                           face_data, support_value)

from conftest import random_config


def halfplane(nx, ny, offset):
    return Halfspace(np.array([nx, ny], dtype=float), offset)


def test_contains_empty_family_is_everything():
    P = PolyhedralSet(2, ())
    assert contains(P, [1e6, -1e6])


def test_contains_halfplane():
    P = PolyhedralSet(2, (halfplane(1, 0, 0),))
    assert not contains(P, [1.0, 0.0])
    assert contains(P, [-0.5, 2.0])


def test_contains_two_halfplanes():
    P = PolyhedralSet(2, (halfplane(1, 0, 1), halfplane(0, 1, 1)))
    assert contains(P, [0.0, 0.0])


def test_halfspace_normalizes():
    h = Halfspace(np.array([3.0, 4.0]), 10.0)
    assert np.linalg.norm(h.normal) == pytest.approx(1.0, abs=1e-12)
    assert h.offset == pytest.approx(2.0)


def test_complement_single_halfplane():
    P = PolyhedralSet(2, (halfplane(1, 0, 0),))
    C = complement_set(P)
    assert contains(C, [1.0, 0.0])
    assert not contains(C, [-1.0, 0.0])


def test_complement_is_involution():
    P = PolyhedralSet(2, (halfplane(1, 0, 2), halfplane(0, -1, 3)))
    back = complement_set(complement_set(P))
    for h0, h1 in zip(P.halfspaces, back.halfspaces):
        assert np.allclose(h0.normal, h1.normal)
        assert h0.offset == pytest.approx(h1.offset)


def test_complement_quadrant():
    P = PolyhedralSet(2, (halfplane(1, 0, 0), halfplane(0, 1, 0)))
    C = complement_set(P)
    assert contains(C, [1.0, 1.0])
    assert not contains(C, [1.0, -1.0])


def test_complement_of_triangle_is_empty():
    tri = PolyhedralSet(2, (halfplane(0, -1, 0), halfplane(1, 1, 1),
                            halfplane(-1, 1, 1)))
    with pytest.raises(GeometryError):
        complement_set(tri)


def test_contains_xor_complement_single_halfspace(rng):
    # for one halfspace the flipped set is the true closed complement
    P = PolyhedralSet(2, (halfplane(1, 0, 0.3),))
    C = complement_set(P)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        if abs(x[0] - 0.3) < 1e-6:
            continue
        assert contains(P, x) != contains(C, x)


def test_contains_never_both_off_hyperplanes(rng):
    # with several halfspaces the flipped set is not a set complement, but
    # the two can only meet on the boundary hyperplanes
    P = PolyhedralSet(2, (halfplane(1, 0, 0.3), halfplane(0, 1, 0.8)))
    C = complement_set(P)
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        if min(abs(x[0] - 0.3), abs(x[1] - 0.8)) < 1e-6:
            continue
        assert not (contains(P, x) and contains(C, x))


def test_face_data_halfplane_inside():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    (f,) = face_data(P, np.zeros(2))
    assert f.h == pytest.approx(1.0, abs=1e-12)
    assert f.epsilon == 1
    assert np.allclose(f.foot, [1.0, 0.0], atol=1e-12)
    assert f.induced_face.n_halfspaces == 0


def test_face_data_halfplane_outside():
    P = PolyhedralSet(2, (halfplane(1, 0, 1),))
    (f,) = face_data(P, np.array([2.0, 0.0]))
    assert f.h == pytest.approx(1.0, abs=1e-12)
    assert f.epsilon == -1


def test_face_data_strip():
    P = PolyhedralSet(2, (halfplane(1, 0, 1), halfplane(-1, 0, 1)))
    faces = face_data(P, np.zeros(2))
    assert len(faces) == 2
    for f in faces:
        assert f.h == pytest.approx(1.0, abs=1e-12)
        assert f.epsilon == 1
        # induced faces are full lines: the parallel constraint drops out
        assert f.induced_face.n_halfspaces == 0


def test_face_data_drops_redundant_halfspace():
    P = PolyhedralSet(2, (halfplane(1, 0, 1), halfplane(0, 1, 1),
                          halfplane(-1, 0, 1), halfplane(0, -1, 1),
                          halfplane(1, 0, 10)))
    faces = face_data(P, np.zeros(2))
    assert sorted(f.face_index for f in faces) == [0, 1, 2, 3]


def test_face_data_on_boundary_sign_positive():
    P = PolyhedralSet(2, (halfplane(1, 0, 0),))
    (f,) = face_data(P, np.zeros(2))
    assert f.h == pytest.approx(0.0, abs=1e-12)
    assert f.epsilon == 1


def test_face_data_unbounded_faces_far_from_origin():
    """Box vertices 1e8 out cancel in <row, vertex>: roundoff must not drop faces."""
    sites = np.array([[0.0, 0.0], [10.0, 1.0], [4.0, 9.0], [-6.0, 7.0], [-8.0, -3.0],
                      [1.0, -9.0], [9.0, -7.0], [2.0, 3.0], [-3.0, -1.0]])

    def faces(offset):
        pts = sites + offset
        hs = tuple(Halfspace(pj - pts[4], 0.5 * float(pj @ pj - pts[4] @ pts[4]))
                   for j, pj in enumerate(pts) if j != 4)
        return face_data(PolyhedralSet(2, hs), pts[4])

    near, far = faces(0.0), faces(1e6)
    assert [f.face_index for f in far] == [f.face_index for f in near] == [3, 4, 7]
    assert [f.h for f in far] == pytest.approx([f.h for f in near], rel=1e-9)


def test_face_data_requires_matching_dimension():
    P = PolyhedralSet(3, (Halfspace(np.array([1.0, 0, 0]), 1.0),))
    with pytest.raises(InputError):
        face_data(P, np.zeros(2))


def test_support_value_single_point():
    cfg = PointConfiguration.from_points([[0.5, -2.0]])
    u = np.array([0.6, 0.8])
    assert support_value(cfg, u) == pytest.approx(0.5 * 0.6 - 2.0 * 0.8)


def test_support_value_square_axis():
    cfg = PointConfiguration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert support_value(cfg, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_support_value_segment_at_angle():
    cfg = PointConfiguration.from_points([[0.0, 0.0], [3.0, 0.0]])
    u = np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
    assert support_value(cfg, u) == pytest.approx(1.5)


def test_support_value_positively_homogeneous(rng):
    cfg = random_config(rng, 3, 6)
    lam = 2.75
    scaled = PointConfiguration.from_points(lam * cfg.points)
    for _ in range(10):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        assert support_value(scaled, u) == pytest.approx(
            lam * support_value(cfg, u), rel=1e-12)


def test_support_value_rejects_non_unit():
    cfg = PointConfiguration.from_points([[0.0, 0.0]])
    with pytest.raises(InputError):
        support_value(cfg, np.array([1.0, 1.0]))


def test_polyhedral_set_json_round_trip():
    P = PolyhedralSet(2, (halfplane(1, 0, 0.5), halfplane(0, 1, 0.25)))
    Q = PolyhedralSet.from_dict(P.to_dict())
    assert Q.n_halfspaces == 2
    assert Q.halfspaces[1].offset == pytest.approx(0.25)


def test_infeasible_json_rejected():
    record = {"dimension": 1, "halfspaces": [
        {"normal": [1.0], "offset": -1.0}, {"normal": [-1.0], "offset": -1.0}]}
    with pytest.raises(GeometryError):
        PolyhedralSet.from_dict(record)


def test_load_polyhedral_set_from_file(tmp_path):
    import json
    from kpv.polyhedra import load_polyhedral_set
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.5},
                       {"normal": [0.0, 1.0], "offset": 1.5}]}))
    P = load_polyhedral_set(path)
    assert P.dimension == 2 and P.n_halfspaces == 2
    with pytest.raises(InputError):
        load_polyhedral_set(tmp_path / "missing.json")
