"""Independent references and per-task output checks.

Nothing here calls kpv.  Exact references:

* two disks: the closed-form union and lens areas and boundary lengths;
* any planar configuration: the union and intersection of disks by Green's
  theorem over their boundary arcs (the two-disk closed form generalised);
* the planar mean width: the hull perimeter (scipy's 2-d hull "area").

Everything else is checked against bounds, monotonicity in r, the 3-d hull's
exact mean width (Cauchy's formula over hull edges) at a 2% tolerance, or a
seeded hit-or-miss sample of our own.

A check returns (problems, rel_errors): problems is a list of short strings
(empty when the output is correct) and rel_errors the relative errors of the
outputs that have an exact reference, which feed ``accuracy_digits``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

TWO_PI = 2.0 * math.pi
ODE_REL_TOL = 1e-6          # ODE outputs against an exact reference
FIT_REL_TOL = 1e-2          # Laurent coefficients against the mean width
MC_SIGMAS = 3.0             # Monte Carlo spot checks (two-stage, see mc_spot_check)
MC_OUTPUT_SIGMAS = 5.0      # kpv's own Monte Carlo outputs, many per run
ACCURACY_FLOOR = 1e-2       # exact refs smaller than this share of one ball are skipped


def ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------------------
# exact planar references
# ---------------------------------------------------------------------------

def two_disk(d: float, r: np.ndarray) -> dict:
    """Union/intersection area and boundary length of two disks, vectorised in r."""
    r = np.asarray(r, dtype=float)
    over = d < 2.0 * r
    half = np.where(over, np.arccos(np.minimum(d / (2.0 * r), 1.0)), 0.0)
    lens = np.where(over, 2.0 * r * r * half - 0.5 * d * np.sqrt(np.maximum(4 * r * r - d * d, 0.0)), 0.0)
    return {"union": 2.0 * math.pi * r * r - lens, "intersection": lens,
            "union_boundary": 4.0 * math.pi * r - 4.0 * r * half,
            "intersection_boundary": 4.0 * r * half}


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _inside_arcs(ci, cj, r):
    """Angular intervals (in [0, 2pi)) of circle i that lie inside disk j."""
    v = cj - ci
    d = float(np.hypot(v[0], v[1]))
    if d >= 2.0 * r:
        return []
    phi = math.atan2(v[1], v[0]) % TWO_PI
    half = math.acos(d / (2.0 * r))
    a, b = phi - half, phi + half
    if a < 0:
        return [[a + TWO_PI, TWO_PI], [0.0, b]]
    if b > TWO_PI:
        return [[a, TWO_PI], [0.0, b - TWO_PI]]
    return [[a, b]]


def _arc_terms(c, r, arcs):
    area = length = 0.0
    for a, b in arcs:
        area += 0.5 * (r * r * (b - a) + r * (c[0] * (math.sin(b) - math.sin(a))
                                             - c[1] * (math.cos(b) - math.cos(a))))
        length += r * (b - a)
    return area, length


def disk_arcs(points: np.ndarray, r: float) -> dict:
    """Exact union/intersection area and boundary length of equal disks."""
    N = len(points)
    u_area = u_len = i_area = i_len = 0.0
    for i in range(N):
        inside = [_inside_arcs(points[i], points[j], r) for j in range(N) if j != i]
        covered = _merge([iv for arcs in inside for iv in arcs])
        free, pos = [], 0.0
        for a, b in covered:
            if a > pos:
                free.append((pos, a))
            pos = max(pos, b)
        if pos < TWO_PI:
            free.append((pos, TWO_PI))
        da, dl = _arc_terms(points[i], r, free)
        u_area += da
        u_len += dl
        common = [[0.0, TWO_PI]]
        for arcs in inside:
            merged = _merge(arcs)
            common = [[max(a, c), min(b, e)] for a, b in common for c, e in merged
                      if min(b, e) > max(a, c)]
        da, dl = _arc_terms(points[i], r, common)
        i_area += da
        i_len += dl
    return {"union": u_area, "intersection": i_area,
            "union_boundary": u_len, "intersection_boundary": i_len}


def hull_mean_width(points: np.ndarray) -> float:
    """kpv's mean width: the sphere integral of the support function.

    Plane: the hull perimeter.  Space: half the sum over hull edges of length
    times exterior dihedral angle (Cauchy's formula; kpv's ``calibrate(3, 3)``
    estimates the 1/2 by sampling).
    """
    hull = ConvexHull(points)
    if points.shape[1] == 2:
        return float(hull.area)
    normals = hull.equations[:, :3]
    total = 0.0
    for s, nbrs in enumerate(hull.neighbors):
        for k, t in enumerate(nbrs):
            if t <= s:
                continue
            c = float(np.clip(np.dot(normals[s], normals[t]), -1.0, 1.0))
            verts = [v for j, v in enumerate(hull.simplices[s]) if j != k]
            total += math.acos(c) * float(np.linalg.norm(points[verts[0]] - points[verts[1]]))
    return 0.5 * total


# ---------------------------------------------------------------------------
# Monte Carlo spot check (independent sampler)
# ---------------------------------------------------------------------------

def _mc(points, r, samples, rng):
    lo = points.min(axis=0) - r
    hi = points.max(axis=0) + r
    box = float(np.prod(hi - lo))
    x = rng.uniform(lo, hi, size=(samples, points.shape[1]))
    d2 = ((x[:, None, :] - points[None, :, :]) ** 2).sum(axis=2) <= r * r
    out = {}
    for name, hit in (("union", d2.any(axis=1)), ("intersection", d2.all(axis=1))):
        p = float(np.count_nonzero(hit)) / samples
        out[name] = (box * p, box * math.sqrt(max(p * (1 - p), 0.0) / samples))
    return out


def mc_spot_check(points, r, values: dict, seed: int, samples: int = 100_000) -> list:
    """Compare volumes with an independent sample at MC_SIGMAS standard errors.

    Two-stage, so a correct output almost never fails by chance: a deviation
    beyond MC_SIGMAS is re-tested on a fresh sample four times larger, and only
    a second deviation counts.
    """
    problems = []
    rng = np.random.default_rng([seed, 1])
    first = _mc(points, r, samples, rng)
    for name, value in values.items():
        est, se = first[name]
        if abs(value - est) <= MC_SIGMAS * se + 1e-12:
            continue
        est, se = _mc(points, r, 4 * samples, np.random.default_rng([seed, 2]))[name]
        if abs(value - est) > MC_SIGMAS * se + 1e-12:
            problems.append(f"{name} at r={r:.6g} is {value:.6g}, sampled {est:.6g}+-{se:.2g}")
    return problems


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def _exact_2d(points, radii):
    if len(points) == 2:
        d = float(np.linalg.norm(points[0] - points[1]))
        return two_disk(d, radii)
    rows = [disk_arcs(points, float(r)) for r in radii]
    return {k: np.array([row[k] for row in rows]) for k in rows[0]}


def check_volume_rows(points, radii, cols: dict, subsample: int = 0):
    """Bounds, monotonicity and (2-d) exact references for volume/boundary scans.

    cols maps union / intersection / union_boundary / intersection_boundary to
    arrays over radii.  subsample > 0 limits the general planar reference to
    that many evenly spaced radii (the two-disk closed form always runs on all).
    """
    problems, rel = [], []
    radii = np.asarray(radii, dtype=float)
    N, n = points.shape
    delta = ball_volume(n)
    slack = 1e-9
    ball = delta * radii ** n
    sphere = n * delta * radii ** (n - 1)
    if "union" in cols:
        u = cols["union"]
        if np.any(u < ball * (1 - slack)) or np.any(u > N * ball * (1 + slack)):
            problems.append("union outside [delta r^n, N delta r^n]")
        if np.any(np.diff(u) < -slack * u[1:]):
            problems.append("union volume decreases in r")
    if "intersection" in cols:
        v = cols["intersection"]
        if np.any(v < -slack * ball) or np.any(v > ball * (1 + slack)):
            problems.append("intersection outside [0, delta r^n]")
        if np.any(np.diff(v) < -slack * ball[1:]):
            problems.append("intersection volume decreases in r")
    if "union_boundary" in cols:
        b = cols["union_boundary"]
        if np.any(b < -slack * sphere) or np.any(b > N * sphere * (1 + slack)):
            problems.append("union boundary outside [0, N n delta r^(n-1)]")
    if "intersection_boundary" in cols:
        b = cols["intersection_boundary"]
        if np.any(b < -slack * sphere) or np.any(b > sphere * (1 + slack)):
            problems.append("intersection boundary outside [0, n delta r^(n-1)]")
    if n == 2:
        idx = np.arange(radii.size)
        if len(points) > 2 and subsample and radii.size > subsample:
            idx = np.unique(np.linspace(0, radii.size - 1, subsample).round().astype(int))
        ref = _exact_2d(points, radii[idx])
        for name, vals in cols.items():
            scale = ball[idx] if "boundary" not in name else sphere[idx]
            got, want = np.asarray(vals)[idx], ref[name]
            err = np.abs(got - want)
            bad = err > ODE_REL_TOL * np.maximum(np.abs(want), scale)
            if np.any(bad):
                k = int(np.argmax(bad))
                problems.append(f"{name} at r={radii[idx][k]:.6g}: {got[k]:.12g} vs exact {want[k]:.12g}")
            big = np.abs(want) >= ACCURACY_FLOOR * scale
            rel.extend((err[big] / np.abs(want[big])).tolist())
    return problems, rel


def check_mc_volume(points, report, seed):
    """kpv's Monte Carlo outputs against the exact planar reference or our own sample.

    The tolerance uses the standard error implied by the reference itself, so
    a small volume that a sample happened to miss entirely (reported stderr 0)
    is still judged fairly.  Sampling error is not accuracy: no relative
    errors are returned.
    """
    problems = []
    n = points.shape[1]
    rows = report["results"]["volumes"]
    samples = report["parameters"]["samples"]
    radii = np.array([row["r"] for row in rows])
    if n == 2:
        ref = _exact_2d(points, radii)
    for k, row in enumerate(rows):
        r = row["r"]
        box = float(np.prod(points.max(axis=0) - points.min(axis=0) + 2 * r))
        for name in ("union", "intersection"):
            value, se = row[name], row[f"{name}_stderr"]
            if n == 2:
                want = float(ref[name][k])
                p = min(max(want / box, 0.0), 1.0)
                se = max(se, box * math.sqrt(p * (1 - p) / samples))
            else:
                want, se_ref = _mc(points, r, 100_000, np.random.default_rng([seed, k]))[name]
                se = math.hypot(se, se_ref)
            if abs(value - want) > MC_OUTPUT_SIGMAS * se + 1e-12:
                problems.append(f"{name} at r={r:.6g}: {value:.6g} vs {want:.6g} (se {se:.2g})")
    return problems, []


def check_verify(points, claim, report):
    problems, rel = [], []
    checks = report["results"]["checks"]
    if not report["results"]["all_pass"]:
        problems.append("report says a check failed")
    if claim == "lift":          # Monte Carlo derivative against the ODE volume
        for rec in checks:
            if abs(rec["lhs"] - rec["rhs"]) > MC_OUTPUT_SIGMAS * rec["extras"]["stderr"]:
                problems.append(f"{rec['claim']}: {rec['lhs']:.6g} vs {rec['rhs']:.6g}")
        return problems, rel
    n = points.shape[1]
    m = hull_mean_width(points)
    tol = FIT_REL_TOL if n == 2 else 2 * FIT_REL_TOL
    if claim == "capoyleas-pach":
        lhs = [checks[0]["lhs"]]
    elif claim == "csikos":
        lhs = [-checks[0]["lhs"]]
        if abs(checks[2]["lhs"]) > tol * m:
            problems.append(f"union+intersection second coefficient {checks[2]['lhs']:.6g}")
    else:                        # ww: union coefficient is M, intersection -M
        lhs = [checks[0]["lhs"], checks[0]["rhs"]]
    for x in lhs:
        if abs(x - m) > tol * m:
            problems.append(f"second coefficient {x:.9g} vs mean width {m:.9g}")
        if n == 2:
            rel.append(_rel(x, m))
    return problems, rel


def check_threshold(p, q, report):
    """r0 on the grid; top-of-grid volume margins tend to M(q) - M(p)."""
    problems = []
    res = report["results"]
    grid = np.asarray(res["checked_grid"])
    margins = np.asarray(res["margins"])
    if not np.isfinite(margins).all():
        problems.append("non-finite margins")
    if not np.any(np.isclose(grid, res["r0"], rtol=1e-9)):
        problems.append("r0 is not a grid radius")
    diam = max(float(np.max(np.linalg.norm(p[:, None] - p[None], axis=2))), 1e-2)
    dm = hull_mean_width(q) - hull_mean_width(p)
    tol = 1e-2 * diam + (2 * FIT_REL_TOL) * abs(dm)
    for col in (0, 1):
        if abs(margins[-1, col] - dm) > tol:
            problems.append(f"top margin {margins[-1, col]:.6g} vs mean-width gap {dm:.6g}")
    return problems, []
