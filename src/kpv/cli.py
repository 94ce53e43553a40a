"""Batch experiment runner.

Ingests JSON configuration files, dispatches the computational modules, and
emits reproducible JSON or CSV reports.  Every report embeds the parameters
its command read, defaults resolved, and the tool version so any run can be
replayed; outputs are written atomically (temp file + rename) and floats are
rounded to 12 significant digits in both formats, so a JSON and a CSV report
of the same run carry identical values.

JSON reports are written in one pass by ``_encode``: keys sorted, 2-space
indent, each float as the repr of its 12-digit rounding, non-finite floats as
``NaN``/``Infinity``/``-Infinity``, numpy arrays and scalars as their Python
values.  The bytes are those of ``json.dumps(..., indent=2, sort_keys=True)``
on the rounded report, and equal inputs give equal bytes.

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
from .asymptotics import (RadiusGrid, kp_threshold, reference_mean_width,
                          verify_capoyleas_pach, verify_csikos,
                          verify_lift_identity, verify_ww_proposition)
from .ball_volumes import BallSystem, mc_ball_volume
from .configurations import (PointConfiguration, load_configuration,
                             random_expansion, save_configuration)
from .errors import GeometryError, InputError, KpvError, NumericalError
from .meanwidth import mean_width_edge_sum_3d, mean_width_exact_2d, mean_width_quadrature

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


def _round12(obj):
    """Copy of a report with floats rounded to 12 significant digits (CSV path)."""
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


def _floats_text(values: list) -> list[str]:
    """_float_text of every value of a list of floats, formatted in one pass."""
    texts = (("%.12g\0" * len(values)) % tuple(values)).split("\0")
    return [s if "." in s and "e" not in s else _float_text(x)
            for s, x in zip(texts, values)]


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _rows_text(items: list, indent: str) -> str | None:
    """Body of a list of plain floats or of float-only dicts sharing one key set.

    None when items are of any other shape; the caller then encodes them one
    by one.  Dict rows go through one template string for the whole list.
    """
    first = items[0]
    sep = ",\n" + indent
    if type(first) is float:
        if all(type(v) is float for v in items):
            return sep.join(_floats_text(items))
        return None
    if type(first) is not dict or not first:
        return None
    names = first.keys()
    if not all(type(row) is dict and row.keys() == names for row in items):
        return None
    keys = sorted(first)
    values = [row[k] for row in items for k in keys]
    if not all(type(v) is float for v in values):
        return None
    inner = indent + "  "
    row = ("{\n" + inner + (",\n" + inner).join(
        _key_text(k).replace("%", "%%") + ": %s" for k in keys)
        + "\n" + indent + "}")
    return sep.join([row] * len(items)) % tuple(_floats_text(values))


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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        body = _rows_text(obj, inner)
        if body is None:
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
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _write_report(report: dict, path: str | None, fmt: str):
    if fmt == "json":
        text = _encode(report, "") + "\n"
    else:
        rows: list = []
        _flatten("", _round12(report), rows)
        lines = ["key,value"]
        for key, val in rows:
            sval = json.dumps(val) if isinstance(val, str) else str(val)
            lines.append(f"{key},{sval}")
        text = "\n".join(lines) + "\n"
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


def _radii(params: _Parameters, default_scale: float) -> list[float]:
    r = params.get("r")
    if r is not None:
        return _checked_radii(r)
    r_grid = params.get("r_grid")
    if r_grid is not None:
        lo, hi, count = r_grid
        return RadiusGrid(lo, hi, int(count)).radii().tolist()
    return [default_scale]


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
    if method in ("auto", "quadrature"):
        nodes, seed = int(params.get("nodes", 100_000)), int(params.get("seed", 0))
    if method == "auto":
        value, err, used, nodes_used = reference_mean_width(config, nodes=nodes, seed=seed)
        if used != "quadrature":       # an exact path: no node was used
            del params.read["nodes"], params.read["seed"]
    else:
        if method == "exact2d":
            r = mean_width_exact_2d(config)
        elif method == "quadrature":
            r = mean_width_quadrature(config, nodes=nodes, seed=seed)
        elif method in ("edge_sum", "edge_sum_3d"):
            r = mean_width_edge_sum_3d(config)
        else:
            raise InputError(f"unknown mean-width method {method!r}")
        value, err, used, nodes_used = r.value, r.stderr, r.method, r.nodes_used
    return {"value": value, "stderr": err, "method": used,
            "nodes_used": nodes_used}, EXIT_OK


def _cmd_volume(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    method = params.get("method", "voronoi_ode")
    radii = _radii(params, max(1.0, config.diameter))
    out = {"method": method, "radii": radii, "volumes": []}
    if method == "voronoi_ode":
        system = BallSystem(config, r_max=max(radii) * (1 + 1e-9))
        union = system.union_volume(np.asarray(radii)).tolist()
        inter = system.intersection_volume(np.asarray(radii)).tolist()
        out["volumes"] = [{"r": r, "union": u, "intersection": i}
                          for r, u, i in zip(radii, union, inter)]
    elif method == "monte_carlo":
        samples = int(params.get("samples", 1_000_000))
        seed = int(params.get("seed", 0))
        for k, r in enumerate(radii):
            both = mc_ball_volume(config, r, "both", samples, seed + k)
            (u, su), (i, si) = both["union"], both["intersection"]
            out["volumes"].append({
                "r": r, "union": u, "union_stderr": su,
                "intersection": i, "intersection_stderr": si})
    else:
        raise InputError(f"unknown volume method {method!r}")
    return out, EXIT_OK


def _cmd_boundary(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    radii = _radii(params, max(1.0, config.diameter))
    system = BallSystem(config, r_max=max(radii) * (1 + 1e-9))
    union = system.union_boundary(np.asarray(radii)).tolist()
    inter = system.intersection_boundary(np.asarray(radii)).tolist()
    rows = [{"r": r, "union_boundary": u, "intersection_boundary": i}
            for r, u, i in zip(radii, union, inter)]
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
    if claim in ("ww", "all"):
        reports.append(verify_ww_proposition(config))
    if claim in ("lift", "all"):
        scale = max(1.0, config.diameter)
        r = params.get("r")
        radii = _checked_radii(r) if r else [2.0 * scale, 5.0 * scale]
        reports.extend(verify_lift_identity(config, radii))
    if not reports:
        raise InputError(f"unknown claim {claim!r}")
    tol_override = params.get("tol")
    records = []
    all_pass = True
    for rep in reports:
        rec = rep.to_dict()
        if tol_override is not None:
            rec["tolerance"] = float(tol_override)
            rec["pass"] = rec["gap"] <= float(tol_override)
        records.append(rec)
        all_pass &= bool(rec["pass"])
    return {"checks": records, "all_pass": all_pass}, (
        EXIT_OK if all_pass else EXIT_VERIFY_FAILED)


def _cmd_threshold(spec: ExperimentSpec, params: _Parameters):
    p, q = _load_configs(spec, 2)
    diam = max(p.diameter, q.diameter, 1e-2)
    r_grid = params.get("r_grid")
    if r_grid is not None:
        lo, hi, count = r_grid
        grid = RadiusGrid(lo, hi, int(count))
    else:
        grid = RadiusGrid(diam, 1000.0 * diam, 24)
    result = kp_threshold(p, q, grid)
    return result.to_dict(), EXIT_OK


def _cmd_generate(spec: ExperimentSpec, params: _Parameters):
    (config,) = _load_configs(spec, 1)
    seed = int(params.get("seed", 0))
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
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    return parser


def spec_from_argv(argv) -> ExperimentSpec:
    args = _build_parser().parse_args(argv)
    parameters = {
        "claim": args.claim, "r": args.r, "r_grid": args.r_grid,
        "method": args.method, "samples": args.samples, "nodes": args.nodes,
        "seed": args.seed, "magnitude": args.magnitude, "terms": args.terms,
        "tol": args.tol,
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
