"""The one-pass JSON report encoder against the two-pass writer it replaced.

The oracle below is the former report path verbatim: round every float to 12
significant digits, then ``json.dumps(indent=2, sort_keys=True)``.  The
encoder must reproduce its bytes on every input the oracle accepts.
"""

import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpv import cli


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def oracle(report) -> str:
    return json.dumps(_round12(report), indent=2, sort_keys=True) + "\n"


def encoded(report) -> str:
    return cli._encode(report, "") + "\n"


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 2.0 ** 40, 1e11, 1e12 - 1, 1e12, 1.5e13,
    9.99999999999e15, 9.999999999995e15, 1e16, 1.5e16, 123456789012.6,
    999999999999.5, 0.1, 1 / 3, -2 / 3, math.pi * 1e-3, 1e-4, 1.00000000000049e-4,
    9.99999999999e-5, 1e-5, 1.5e-5, 1.23456789012345e-7,
    5e-324, -5e-324, 1.5e-320, sys.float_info.min, sys.float_info.min / 3,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_floats_match_oracle(x):
    for report in (x, [x], {"v": x}, [x, 0.5], [{"r": 0.5, "v": x}] * 2):
        assert encoded(report) == oracle(report)


@pytest.mark.parametrize("report", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}], {"t": (1.5, 2, "x")},
    {"s": "café → \U0001d11e", "q": 'say "hi"\\\n\t'},
    {"é": 1, "z": 2, "Z": 3, "a\"b": 4, "%s": 5, "": 6},
    [True, False, None, 0, -7, 10 ** 30, 2.0],
    [1.5, 2, 3.5],                                   # ints leave the float path
    [1.5, True],
    [{"r": 1.0, "u": 2.0}, {"r": 1.0, "v": 2.0}],    # key sets differ
    [{"r": 1.0, "u": 2.0}, {"r": 1.0}],
    [{"r": 1.0, "u": 2.0}, {"r": 1.0, "u": 2}],      # value types differ
    [{"r": 1.0, "u": None}],
    [{"r": 1.0, "u": [1.0]}],
    [{"b": 1.0, "a": 2.0}, {"a": 3.0, "b": 4.0}],    # same keys, other order
    [{"%d": 1.0, "a%%": 2.0}] * 3,                   # format markers in keys
    [{}, {}],
    [{"r": 1.0}, 2.0],
    [0.5, [0.5]],
], ids=repr)
def test_containers_match_oracle(report):
    assert encoded(report) == oracle(report)


def test_fast_paths_taken_only_for_uniform_rows():
    assert cli._rows_text([0.5, 1e-5, 3.0], "") == "0.5,\n1e-05,\n3.0"
    assert cli._rows_text([0.5, 1], "") is None
    assert cli._rows_text([{"a": 1.0}, {"b": 1.0}], "") is None
    assert cli._rows_text([{"a": 1.0}, {"a": np.float64(1.0)}], "") is None
    assert cli._rows_text([{"a": 1.0}, {"a": 2.0}], "") is not None


def test_numpy_scalars_and_arrays():
    report = {"flag": np.bool_(True), "off": np.bool_(False), "n": np.int64(-3),
              "x": np.float32(0.1), "y": np.float64(2.0), "z": np.array(1.25),
              "arr": np.array([[1.0, 2.5], [np.inf, -0.0]]),
              "mask": np.array([True, False]), "ints": np.arange(3)}
    plain = {"flag": True, "off": False, "n": -3, "x": float(np.float32(0.1)),
             "y": 2.0, "z": 1.25, "arr": [[1.0, 2.5], [math.inf, -0.0]],
             "mask": [True, False], "ints": [0, 1, 2]}
    assert encoded(report) == oracle(plain)
    with pytest.raises(TypeError, match="not JSON serializable"):
        oracle(report)
    loaded = json.loads(encoded(report))
    assert loaded["flag"] is True and loaded["off"] is False
    assert loaded["x"] == 0.100000001490


def test_unsupported_values_raise():
    with pytest.raises(TypeError, match="not JSON serializable"):
        encoded({"a": object()})
    with pytest.raises(TypeError, match="keys must be str"):
        encoded({1: 2.0})


_edge = st.sampled_from(EDGE_FLOATS)
_leaf = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), _edge,
    st.integers(), st.booleans(), st.none(), st.text(max_size=6))
_keys = st.text(max_size=4)


@st.composite
def _float_rows(draw):
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(min_value=1, max_value=6))
    return [{k: draw(st.one_of(st.floats(), _edge)) for k in keys} for _ in range(count)]


_trees = st.recursive(
    st.one_of(_leaf, _float_rows(), st.lists(st.one_of(st.floats(), _edge), max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(_keys, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_trees)
def test_random_trees_match_oracle(tree):
    assert encoded(tree) == oracle(tree)


@pytest.fixture
def two_disks(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(
        {"dimension": 2, "points": [[0.0, 0.0], [1.0, 0.0]], "label": "pair"}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["volume", "--r-grid", "0.3:40:50"],
    ["volume", "--r", "0.75", "--r", "2.0", "--method", "monte_carlo",
     "--samples", "20000", "--seed", "3"],
    ["boundary", "--r-grid", "0.6:30:40"],
    ["verify", "all", "--samples", "20000", "--seed", "3"],
    ["threshold", "--r-grid", "1.0:300.0:8"],
    ["asymptotics"],
    ["meanwidth", "--method", "auto"],
    ["meanwidth", "--method", "quadrature", "--nodes", "512"],
], ids=lambda argv: "-".join(argv[:2]))
def test_command_reports_match_oracle(argv, two_disks, tmp_path, monkeypatch):
    seen = []
    write = cli._write_report

    def spy(report, path, fmt):
        seen.append(copy.deepcopy(report))
        write(report, path, fmt)

    monkeypatch.setattr(cli, "_write_report", spy)
    out = tmp_path / "report.json"
    config = ["--config", two_disks]
    if argv[0] == "threshold":
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"dimension": 2, "points": [[0.0, 0.0], [1.3, 0.0]]}))
        config += ["--config", str(wide)]
    assert cli.main(argv + config + ["--out", str(out)]) == cli.EXIT_OK
    assert out.read_text() == oracle(seen[0])
