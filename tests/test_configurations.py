import json
import math

import numpy as np
import pytest

from kpv.configurations import (PointConfiguration, are_congruent, distance_matrix,
                                embed, is_expansion, load_configuration,
                                random_expansion, save_configuration)
from kpv.errors import InputError

from conftest import random_config, random_orthogonal


def test_distance_matrix_single_point():
    cfg = PointConfiguration.from_points([[1.0, 2.0]])
    dm = distance_matrix(cfg)
    assert dm.shape == (1, 1)
    assert dm[0, 0] == 0.0
    assert cfg.diameter == 0.0


def test_distances_are_computed_once_and_read_only(rng):
    cfg = random_config(rng, 3, 6)
    d = cfg.distances
    assert cfg.distances is d
    assert np.array_equal(d, distance_matrix(cfg))
    assert cfg.diameter == np.max(d)
    with pytest.raises(ValueError):
        d[0, 1] = 0.0


def test_distance_matrix_345_triangle():
    cfg = PointConfiguration.from_points([[0.0, 0.0], [3.0, 4.0]])
    assert distance_matrix(cfg)[0, 1] == pytest.approx(5.0, abs=1e-15)


def test_distance_matrix_right_triangle():
    cfg = PointConfiguration.from_points([[0, 0], [1, 0], [0, 1]])
    d = distance_matrix(cfg)
    assert d[0, 1] == pytest.approx(1.0)
    assert d[0, 2] == pytest.approx(1.0)
    assert d[1, 2] == pytest.approx(math.sqrt(2.0))


def test_distance_matrix_triangle_inequality(rng):
    for _ in range(5):
        cfg = random_config(rng, 3, 8)
        m = distance_matrix(cfg)
        # d(i,k) <= d(i,j) + d(j,k) for all j
        assert np.all(m <= np.min(m[:, None, :] + m[None, :, :], axis=2) + 1e-9)


def test_distance_matrix_invariance_under_isometries(rng):
    cfg = random_config(rng, 3, 6)
    base = distance_matrix(cfg)
    shifted = PointConfiguration.from_points(cfg.points + rng.uniform(-5, 5, 3))
    rotated = PointConfiguration.from_points(cfg.points @ random_orthogonal(rng, 3).T)
    padded = embed(cfg, 5)
    for other in (shifted, rotated, padded):
        scale = np.max(base) or 1.0
        assert np.max(np.abs(distance_matrix(other) - base)) <= 1e-12 * scale


def test_is_expansion_reflexive(rng):
    cfg = random_config(rng, 2, 5)
    assert is_expansion(cfg, cfg, tol=0.0)


def test_is_expansion_scaled_square():
    square = PointConfiguration.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    doubled = PointConfiguration.from_points(2.0 * square.points)
    assert is_expansion(square, doubled, tol=0.0)
    assert not is_expansion(doubled, square, tol=0.0)


def test_is_expansion_shrunk_pair():
    p = PointConfiguration.from_points([[0.0, 0.0], [2.0, 0.0]])
    q = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
    assert not is_expansion(p, q, tol=1e-9)


def test_is_expansion_mismatched_counts():
    p = PointConfiguration.from_points([[0.0, 0.0]])
    q = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InputError):
        is_expansion(p, q, tol=0.0)


def test_congruence_under_translation_and_reflection(rng):
    cfg = random_config(rng, 2, 6)
    translated = PointConfiguration.from_points(cfg.points + np.array([3.7, -1.2]))
    reflected = PointConfiguration.from_points(cfg.points * np.array([-1.0, 1.0]))
    assert are_congruent(cfg, translated)
    assert are_congruent(cfg, reflected)


def test_congruence_detects_difference():
    p = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0]])
    q = PointConfiguration.from_points([[0.0, 0.0], [1.5, 0.0]])
    assert not are_congruent(p, q)


def test_congruence_is_two_way_expansion(rng):
    cfg = random_config(rng, 3, 5)
    moved = PointConfiguration.from_points(
        cfg.points @ random_orthogonal(rng, 3).T + 2.0)
    assert is_expansion(cfg, moved, tol=1e-12) and is_expansion(moved, cfg, tol=1e-12)
    # and conversely, two-way expansion within zero tolerance is congruence
    assert are_congruent(cfg, moved, tol=1e-9)


def test_embed_identity_and_padding():
    cfg = PointConfiguration.from_points([[1.0, 2.0]])
    assert embed(cfg, 2) is cfg
    lifted = embed(cfg, 3)
    assert lifted.points.tolist() == [[1.0, 2.0, 0.0]]
    with pytest.raises(InputError):
        embed(cfg, 1)


def test_random_expansion_zero_magnitude(rng):
    cfg = random_config(rng, 2, 4)
    out = random_expansion(cfg, seed=3, magnitude=0.0)
    assert np.array_equal(out.points, cfg.points)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_random_expansion_postcondition(seed, rng):
    cfg = random_config(rng, 2, 6)
    out = random_expansion(cfg, seed=seed, magnitude=0.3)
    assert is_expansion(cfg, out, tol=0.0)
    # never a contraction in any pair
    assert np.all(distance_matrix(out) >= distance_matrix(cfg))


def test_random_expansion_deterministic(rng):
    cfg = random_config(rng, 3, 5)
    a = random_expansion(cfg, seed=11, magnitude=0.2)
    b = random_expansion(cfg, seed=11, magnitude=0.2)
    assert np.array_equal(a.points, b.points)


def test_point_configuration_validation():
    with pytest.raises(InputError):
        PointConfiguration(dimension=2, points=np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError):
        PointConfiguration(dimension=3, points=np.array([[1.0, 2.0]]))
    with pytest.raises(InputError):
        PointConfiguration.from_points(np.zeros((0, 2)))


def test_json_round_trip(tmp_path):
    cfg = PointConfiguration.from_points([[0.25, -1.5], [3.0, 4.0]], label="pair")
    path = tmp_path / "cfg.json"
    save_configuration(cfg, path, metadata={"seed": 4})
    back = load_configuration(path)
    assert back.label == "pair"
    assert np.array_equal(back.points, cfg.points)
    raw = json.loads(path.read_text())
    assert raw["metadata"]["seed"] == 4


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    # ragged rows, strings and booleans are refused, not coerced
    for record in ({"dimension": 2}, {"dimension": 0, "points": [[1.0]]},
                   {"dimension": True, "points": [[1.0]]},
                   {"dimension": 2, "points": [[0.0, 0.0], [1.0]]},
                   {"dimension": 2, "points": [[0.0, 0.0], [1.0, [2.0]]]},
                   {"dimension": 2, "points": [["0", "a"], [1.0, 0.0]]},
                   {"dimension": 2, "points": [[0.0, "1"], [1.0, 0.0]]},
                   {"dimension": 2, "points": [[0.0, True], [1.0, 0.0]]},
                   {"dimension": 1, "points": [[10 ** 400]]}):
        path.write_text(json.dumps(record))
        with pytest.raises(InputError):
            load_configuration(path)
    path.write_text("[" * 100_000)      # nested too deep for the JSON parser
    with pytest.raises(InputError):
        load_configuration(path)
