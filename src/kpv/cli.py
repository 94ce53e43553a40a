"""Batch experiment runner.

Ingests JSON configuration files, dispatches the computational modules, and
emits reproducible JSON or CSV reports.  Every report embeds the parameters
its command read, defaults resolved, and the tool version so any run can be
replayed; outputs are written atomically (temp file + rename) and each float
is written as the same text in both formats, its 12-digit rounding (see
``_float_text``), so a JSON and a CSV report of the same run carry identical
values.

JSON reports are written in one pass by ``_encode``: keys sorted, 2-space
indent, each float as the repr of its 12-digit rounding, non-finite floats as
``NaN``/``Infinity``/``-Infinity``, numpy arrays and scalars as their Python
values.  The bytes are those of ``json.dumps(..., indent=2, sort_keys=True)``
on the rounded report, and equal inputs give equal bytes.  The per-radius
results of ``volume`` and ``boundary`` are tables (``_Rows``): float columns
written as a list of row objects.  A table, like any list of plain floats, is
written by one %-format pass over all its cells; a numpy mask picks ``%.12g``
for each cell whose ``%.12g`` text already is its JSON text, ``%r`` for
zeros, and ``_float_text`` for the rest.

Exit codes: 0 success, 1 a theorem check exceeded its tolerance, 2 input
error, 3 numerical/geometric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .asymptotics import (RadiusGrid, kp_threshold, verify_capoyleas_pach,
                          verify_csikos, verify_lift_identity,
                          verify_ww_proposition, ww_inapplicable)
from .ball_volumes import BallSystem, mc_ball_volume
from .configurations import (PointConfiguration, load_configuration,
                             random_expansion, save_configuration)
from .errors import GeometryError, InputError, KpvError, NumericalError
from .meanwidth import (QUADRATURE_NODES, QUADRATURE_SEED, mean_width_quadrature,
                        reference_mean_width)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


@dataclass
class ExperimentSpec:
    """One resolved experiment: command, input files, scalar parameters."""

    command: str
    inputs: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"


class _Parameters:
    """A spec's parameters as one command reads them; its report lists those read."""

    def __init__(self, given: dict):
        self._given = given
        self.read: dict = {}

    def get(self, key: str, default=None):
        """The given value of key, or default when none was given (None)."""
        value = self._given.get(key)
        if value is None:
            value = default
        self.read[key] = value
        return value


def _float_text(x: float) -> str:
    """JSON text of x rounded to 12 significant digits: the repr of the rounded float."""
    s = f"{x:.12g}"
    # fixed notation with a fraction: at most 12 significant digits round-trip,
    # so repr prints the same digits.  Integral values ("3" vs "3.0"), exponent
    # forms ("1.5e+13" vs "15000000000000.0"; subnormals, whose shortest repr
    # has fewer digits) and non-finite values take the repr of float(s).
    if "." in s and "e" not in s:
        return s
    y = float(s)
    if y != y:
        return "NaN"
    if y == math.inf:
        return "Infinity"
    if y == -math.inf:
        return "-Infinity"
    return float.__repr__(y)


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


class _Rows:
    """A report table: named float columns of equal length, one row per index.

    JSON writes it as a list of row objects, keys sorted; CSV as one key per
    cell, ``prefix[i].name``, in column order.
    """

    def __init__(self, **columns):
        self.columns = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
        if len({c.shape for c in self.columns.values()}) > 1:
            raise ValueError("table columns differ in length")


# a cell's placeholder, chosen by _cells
_PLACEHOLDERS = ("%.12g", "%r", "%s")


def _cells(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Each value's placeholder (index into _PLACEHOLDERS) and the value it fills.

    %.12g where that already is the JSON text: |x| >= 2e-4 and farther than
    1e-10 |x| from an integer.  Rounding to 12 digits moves x by at most
    5e-12 |x|, so a fraction is left; the distance, at most 1/2, also bounds
    |x| below 5e9, in fixed notation, and is NaN (no match) for non-finite x.
    %r for +-0.0.  Every other value fills %s with its _float_text.
    """
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        fixed = (size >= 2e-4) & (np.abs(values - np.rint(values)) > 1e-10 * size)
    codes = np.where(fixed, 0, np.where(values == 0.0, 1, 2)).astype(np.uint8)
    cells = values.tolist()
    for i in np.flatnonzero(codes == 2).tolist():
        cells[i] = _float_text(cells[i])
    return codes, cells


def _table_text(values: np.ndarray, keys, indent: str) -> str:
    """Body of a list of floats (keys None) or of float rows under sorted keys.

    values is (rows, columns).  Rows with one pattern of placeholders share a
    template, and one % pass over all cells writes the body.
    """
    codes, cells = _cells(values.ravel())
    width = values.shape[1]
    # each row's placeholders as one bytes value, a dict key
    patterns = codes.reshape(values.shape).view(f"V{width}").ravel().tolist()
    inner = indent + "  "
    names = [inner + _key_text(k).replace("%", "%%") + ": " for k in keys or ()]

    def template(pattern: bytes) -> str:
        fields = [_PLACEHOLDERS[code] for code in pattern]
        if keys is None:
            return fields[0]
        return ("{\n" + ",\n".join([n + f for n, f in zip(names, fields)])
                + "\n" + indent + "}")

    templates = {p: template(p) for p in set(patterns)}
    return (",\n" + indent).join([templates[p] for p in patterns]) % tuple(cells)


def _encode(obj, indent: str) -> str:
    """JSON text of obj: sorted keys, 2-space indent, floats at 12 digits.

    numpy arrays and scalars are written as their Python values.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            f"{_key_text(k)}: {_encode(obj[k], inner)}" for k in sorted(obj))
            + "\n" + indent + "}")
    if isinstance(obj, _Rows):
        keys = sorted(obj.columns)
        if not keys or not obj.columns[keys[0]].size:
            return "[]"
        inner = indent + "  "
        body = _table_text(np.column_stack([obj.columns[k] for k in keys]), keys, inner)
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if all(type(v) is float for v in obj):
            body = _table_text(np.array(obj)[:, None], None, inner)
        else:
            body = (",\n" + inner).join([_encode(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), indent)
    if isinstance(obj, np.floating):
        return _float_text(float(obj))
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _flatten(prefix: str, obj, rows: list):
    """(key, CSV text) rows of obj's leaves; floats take the JSON text."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, _Rows):
        # every cell's text in one % pass, its placeholder chosen as _encode chooses it
        names = list(obj.columns)
        count = obj.columns[names[0]].size if names else 0
        if count:
            codes, cells = _cells(np.column_stack(list(obj.columns.values())).ravel())
            texts = ("\0".join([_PLACEHOLDERS[c] for c in codes.tolist()]) % tuple(cells))
            heads = [f"{prefix}[{i}]." for i in range(count)]
            rows.extend(zip([head + name for head in heads for name in names],
                            texts.split("\0")))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(obj, str):
        rows.append((prefix, json.dumps(obj)))
    elif isinstance(obj, (float, np.floating)):
        rows.append((prefix, _float_text(float(obj))))
    else:
        rows.append((prefix, str(obj)))


def _write_report(report: dict, path: str | None, fmt: str):
    if fmt == "json":
        text = _encode(report, "") + "\n"
    else:
        rows: list = []
        _flatten("", report, rows)
        text = "\n".join(["key,value"] + [f"{key},{val}" for key, val in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kpv-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_configs(spec: ExperimentSpec, expected: int) -> list[PointConfiguration]:
    if len(spec.inputs) != expected:
        raise InputError(
            f"command {spec.command!r} needs {expected} --config file(s), "
            f"got {len(spec.inputs)}")
    return [load_configuration(path) for path in spec.inputs]


def _checked_radii(values) -> list[float]:
    """values as a list of floats, each finite and positive (InputError otherwise)."""
    radii = [float(v) for v in np.atleast_1d(values)]
    bad = [v for v in radii if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise InputError(f"radius must be finite and positive, got {bad[0]!r}")
    return radii


def _radius_grid(params: _Parameters) -> RadiusGrid | None:
    """The --r-grid MIN:MAX:COUNT as a RadiusGrid, None when none was given."""
    r_grid = params.get("r_grid")
    if r_grid is None:
        return None
    lo, hi, count = r_grid
    return RadiusGrid(lo, hi, int(count))


def _radii(params: _Parameters, default_scale: float) -> list[float]:
    r = params.get("r")
    if r is not None:
        return _checked_radii(r)
    grid = _radius_grid(params)
    if grid is not None:
        return grid.radii().tolist()
    return [default_scale]


def _seed(params: _Parameters, default: int) -> int:
    seed = int(params.get("seed", default))
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError as exc:
        raise InputError(f"bad grid spec {text!r}, expected MIN:MAX:COUNT") from exc


# ---------------------------------------------------------------------------
# command implementations (each returns (results dict, exit code))
# ---------------------------------------------------------------------------

def _cmd_meanwidth(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    method = params.get("method", "auto")
    if method not in ("auto", "quadrature"):
        raise InputError(f"unknown mean-width method {method!r}")
    nodes = int(params.get("nodes", QUADRATURE_NODES))
    if nodes < 1:
        raise InputError(f"nodes must be >= 1, got {nodes}")
    seed = _seed(params, QUADRATURE_SEED)
    rule = reference_mean_width if method == "auto" else mean_width_quadrature
    r = rule(config, nodes=nodes, seed=seed)
    # report only the parameters the rule that ran has read
    if r.method != "quadrature":
        del params.read["nodes"]
    if not r.seeded:
        del params.read["seed"]
    return {"value": r.value, "stderr": r.stderr, "method": r.method,
            "nodes_used": r.nodes_used}, EXIT_OK


def _cmd_volume(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    method = params.get("method", "voronoi_ode")
    radii = _radii(params, max(1.0, config.diameter))
    if method == "voronoi_ode":
        system = BallSystem(config, r_max=max(radii) * (1 + 1e-9))
        volumes = _Rows(r=radii, union=system.union_volume(np.asarray(radii)),
                        intersection=system.intersection_volume(np.asarray(radii)))
    elif method == "monte_carlo":
        samples = int(params.get("samples", 1_000_000))
        seed = _seed(params, 0)
        both = [mc_ball_volume(config, r, "both", samples, seed + k)
                for k, r in enumerate(radii)]
        # (value, stderr) per radius
        union, inter = (np.array([b[which] for b in both]).reshape(-1, 2)
                        for which in ("union", "intersection"))
        volumes = _Rows(r=radii, union=union[:, 0], union_stderr=union[:, 1],
                        intersection=inter[:, 0], intersection_stderr=inter[:, 1])
    else:
        raise InputError(f"unknown volume method {method!r}")
    return {"method": method, "radii": radii, "volumes": volumes}, EXIT_OK


def _cmd_boundary(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    radii = _radii(params, max(1.0, config.diameter))
    system = BallSystem(config, r_max=max(radii) * (1 + 1e-9))
    rows = _Rows(r=radii, union_boundary=system.union_boundary(np.asarray(radii)),
                 intersection_boundary=system.intersection_boundary(np.asarray(radii)))
    return {"boundaries": rows}, EXIT_OK


def _cmd_asymptotics(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    n = config.dimension
    terms = int(params.get("terms", min(4, n + 1)))
    system = BallSystem(config, r_max=np.inf)
    res = {"terms": terms}
    for which in ("union", "intersection"):
        res[which] = {"powers": list(range(n, n - terms, -1)),
                      "coefficients": list(system.laurent_coefficients(which, terms))}
    return res, EXIT_OK


def _cmd_verify(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    claim = params.get("claim", "all")
    reports = []
    if claim in ("capoyleas-pach", "all"):
        reports.append(verify_capoyleas_pach(config))
    if claim in ("csikos", "all"):
        reports.extend(verify_csikos(config))
    # under "all", ww runs only where it applies
    skip = ww_inapplicable(config) if claim == "all" else None
    if claim in ("ww", "all") and not skip:
        reports.append(verify_ww_proposition(config))
    if claim in ("lift", "all"):
        scale = max(1.0, config.diameter)
        r = params.get("r")
        radii = _checked_radii(r) if r else [2.0 * scale, 5.0 * scale]
        reports.extend(verify_lift_identity(config, radii))
    if not reports:
        raise InputError(f"unknown claim {claim!r}")
    all_pass = all(rep.passed for rep in reports)
    results = {"checks": [rep.to_dict() for rep in reports], "all_pass": all_pass}
    if skip:
        results["skipped"] = {"ww": skip}
    return results, EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def _cmd_threshold(spec: ExperimentSpec, params: _Parameters):
    p, q = _load_configs(spec, 2)
    diam = max(p.diameter, q.diameter) or 1.0
    grid = _radius_grid(params) or RadiusGrid(diam, 1000.0 * diam, 24)
    result = kp_threshold(p, q, grid)
    return result.to_dict(), EXIT_OK


def _cmd_generate(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    seed = _seed(params, 0)
    magnitude = float(params.get("magnitude", 0.1))
    out = spec.output
    if out is None:
        raise InputError("generate needs --out PREFIX for the pair files")
    expanded = random_expansion(config, seed=seed, magnitude=magnitude)
    meta = {"seed": seed, "magnitude": magnitude, "tool": f"kpv {__version__}"}
    p_path, q_path = f"{out}_p.json", f"{out}_q.json"
    save_configuration(config, p_path, metadata={**meta, "role": "base"})
    save_configuration(expanded, q_path, metadata={**meta, "role": "expansion"})
    return {"p_file": p_path, "q_file": q_path, "seed": seed,
            "magnitude": magnitude}, EXIT_OK


_COMMANDS = {
    "meanwidth": _cmd_meanwidth,
    "volume": _cmd_volume,
    "boundary": _cmd_boundary,
    "asymptotics": _cmd_asymptotics,
    "verify": _cmd_verify,
    "threshold": _cmd_threshold,
    "generate": _cmd_generate,
}


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment spec and write its report.

    Reports are only written when the computation itself succeeds (a failed
    theorem check still writes a report and returns 1).
    """
    if spec.command not in _COMMANDS:
        raise InputError(f"unknown command {spec.command!r}")
    params = _Parameters(spec.parameters)
    results, code = _COMMANDS[spec.command](spec, params)
    report = {
        "tool": "kpv",
        "version": __version__,
        "command": spec.command,
        "parameters": {"inputs": list(spec.inputs), **{
            k: v for k, v in params.read.items() if v is not None}},
        "results": results,
    }
    _write_report(report, spec.output if spec.command != "generate" else None,
                  spec.fmt)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpv",
        description="Ball-volume laboratory: volumes, mean widths, asymptotics, "
                    "and large-radius rearrangement inequalities.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("claim", nargs="?", default=None,
                        help="verify sub-claim: capoyleas-pach | csikos | ww | lift | all")
    parser.add_argument("--config", action="append", default=[],
                        help="input configuration file (repeatable)")
    parser.add_argument("--r", action="append", type=float, default=None)
    parser.add_argument("--r-grid", dest="r_grid", type=_parse_grid, default=None,
                        metavar="MIN:MAX:COUNT")
    parser.add_argument("--method", default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--magnitude", type=float, default=None)
    parser.add_argument("--terms", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    return parser


# built once per process: parsing leaves it as it was (append actions copy
# their default list before appending)
_PARSER = _build_parser()


def spec_from_argv(argv) -> ExperimentSpec:
    args = _PARSER.parse_args(argv)
    parameters = {
        "claim": args.claim, "r": args.r, "r_grid": args.r_grid,
        "method": args.method, "samples": args.samples, "nodes": args.nodes,
        "seed": args.seed, "magnitude": args.magnitude, "terms": args.terms,
    }
    return ExperimentSpec(command=args.command, inputs=list(args.config),
                          parameters=parameters, output=args.out, fmt=args.fmt)


def main(argv=None) -> int:
    try:
        spec = spec_from_argv(sys.argv[1:] if argv is None else argv)
        return run(spec)
    except InputError as exc:
        print(f"kpv: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GeometryError, NumericalError) as exc:
        print(f"kpv: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KpvError as exc:
        print(f"kpv: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
