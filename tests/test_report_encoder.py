"""The one-pass JSON report encoder against the two-pass writer it replaced.

The oracle below is the former report path verbatim: round every float to 12
significant digits, then ``json.dumps(indent=2, sort_keys=True)``.  The
encoder must reproduce its bytes on every input the oracle accepts; a report
table (``cli._Rows``) is given to the oracle as its list of row dicts.
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
    if isinstance(obj, cli._Rows):      # a table is its list of row dicts
        names = list(obj.columns)
        rows = zip(*[column.tolist() for column in obj.columns.values()])
        return _round12([dict(zip(names, row)) for row in rows])
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
    1234567890.125, -98765432.5625, 12345678901.5,  # ties at the 12th digit
    3.0000000000001, 1e6 - 1e-7, 2e-4, 1.9999999999e-4, 99999999999.99,
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


def test_cells_sent_to_the_fixed_format_are_their_json_text():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=400_000, dtype=np.uint64)
    # half the patterns get exponents from about 1e-5 to 1e12, around the
    # mask's range, where whole-range bits land one time in a hundred
    exponents = rng.integers(1006, 1064, size=bits.size // 2).astype(np.uint64)
    bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
    values = np.concatenate((bits.view(np.float64), [0.0, -0.0, 5e-324, 2e-4, 1e11]))
    codes, cells = cli._cells(values)
    fixed = np.flatnonzero(codes == 0)
    assert fixed.size > 50_000
    for i in fixed.tolist():
        text = "%.12g" % values[i]
        assert "." in text and "e" not in text and text == cli._float_text(values[i])
    assert set(values[codes == 1].tolist()) == {0.0}
    assert all(cells[i] == cli._float_text(values[i])
               for i in np.flatnonzero(codes == 2).tolist())


def test_table_columns_must_have_one_length():
    with pytest.raises(ValueError, match="differ in length"):
        cli._Rows(r=[1.0, 2.0], union=[3.0])


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


_ties = st.builds(lambda whole, part: whole + part, st.integers(10 ** 9, 10 ** 10 - 1),
                  st.sampled_from([0.125, 0.375, 0.625, 0.875]))
_near_integers = st.builds(lambda whole, step: whole + step * math.ulp(whole),
                           st.integers(1, 10 ** 12).map(float), st.integers(-4, 4))
_cell = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                  _edge, _ties, _near_integers,
                  st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                   -1.5e-320, sys.float_info.min / 2]))


@st.composite
def _tables(draw):
    names = draw(st.lists(st.one_of(_keys, st.sampled_from(["%", "%s", "%%d", "r"])),
                          max_size=4, unique=True))
    count = draw(st.sampled_from([0, 1, 1, 2, 5, 12]))
    return cli._Rows(**{k: [draw(_cell) for _ in range(count)] for k in names})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_tables(), st.lists(_cell, max_size=12))
def test_random_tables_match_oracle(table, floats):
    for report in (table, {"t": table, "floats": floats}, [table, table]):
        assert encoded(report) == oracle(report)
    want = [(f"t[{i}].{name}", cli._float_text(column[i]))
            for i in range(len(next(iter(table.columns.values()), [])))
            for name, column in table.columns.items()]
    got: list = []
    cli._flatten("", {"t": table}, got)
    assert got == want


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
    # the oracle writes each table as its list of row dicts
    assert out.read_text() == oracle(seen[0])
