"""Large-radius asymptotics of ball-system volume functions.

Union and intersection volumes of N equal balls grow like delta_n r^n with a
second coefficient equal to +/- the mean width of the hull of the centers.
This module extracts those Laurent coefficients by least squares on
large-radius windows, verifies the asymptotic identities against the
mean-width module, checks the union/intersection cancellation of the second
coefficients, witnesses the dimension-lifting derivative identity with a
paired-sample Monte Carlo in two extra dimensions, and locates the radius
threshold beyond which all four large-radius rearrangement inequalities hold
for an expansion pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ball_volumes import BallSystem
from .configurations import (PointConfiguration, are_congruent, embed,
                             is_expansion)
from .errors import GeometryError, InputError, NumericalError
from .meanwidth import (calibrate, mean_width_edge_sum_3d, mean_width_exact_2d,
                        mean_width_quadrature)
from .truncated_volume import FitWindow, StepControl, fit_radial_powers, unit_ball_volume

DEFAULT_WINDOW_FACTOR = 10.0
DEFAULT_WINDOW_SPAN = 100.0
DEFAULT_WINDOW_COUNT = 32


@dataclass(frozen=True)
class LaurentFit:
    """Fitted leading coefficients a_n, a_{n-1}, ... of a volume function."""

    coefficients: np.ndarray
    powers: tuple
    window: FitWindow
    residual_norm: float
    condition_estimate: float

    def coefficient(self, power: int) -> float:
        try:
            return float(self.coefficients[self.powers.index(power)])
        except ValueError:
            raise InputError(f"power {power} not in fitted model {self.powers}") from None


@dataclass(frozen=True)
class CheckReport:
    """One verified claim: both sides, their gap, and the pass verdict."""

    claim: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # comparisons of numpy floats give np.bool_, which JSON cannot encode
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        d = {"claim": self.claim, "lhs": self.lhs, "rhs": self.rhs,
             "gap": self.gap, "tolerance": self.tolerance, "pass": self.passed}
        if self.extras:
            d["extras"] = self.extras
        return d


@dataclass(frozen=True)
class RadiusGrid:
    """Geometric radius grid for threshold scans."""

    r_min: float
    r_max: float
    count: int = 24

    def radii(self) -> np.ndarray:
        if not (0 < self.r_min < self.r_max) or self.count < 2:
            raise InputError("radius grid needs 0 < r_min < r_max and count >= 2")
        return np.geomspace(self.r_min, self.r_max, self.count)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the large-radius inequality scan for an expansion pair.

    margins holds the four normalized gaps (union volume, intersection
    volume, union boundary, intersection boundary) at every checked radius;
    negative entries mark radii where an inequality fails, which is expected
    at small radii (boundary inequalities genuinely can fail there).
    """

    r0: float
    checked_grid: np.ndarray
    all_hold: bool
    strictness_margin: float
    margins: np.ndarray
    congruent: bool = False

    def to_dict(self) -> dict:
        return {"r0": self.r0, "checked_grid": self.checked_grid.tolist(),
                "all_hold": self.all_hold,
                "strictness_margin": self.strictness_margin,
                "margins": self.margins.tolist(), "congruent": self.congruent}


# ---------------------------------------------------------------------------
# Laurent fitting
# ---------------------------------------------------------------------------

def laurent_fit(evaluate, n: int, terms: int, window: FitWindow) -> LaurentFit:
    """Least squares of V(r) against sum a_j r^j, j = n .. n-terms+1.

    evaluate maps an array of radii to the array of volumes (a radial volume
    profile, a BallSystem volume method, or any vectorised callable).  terms
    is capped at n+1 so the model stays inside the Laurent orders the volume
    function can carry against a meaningful constant term.
    """
    if terms < 1:
        raise InputError("terms must be >= 1")
    if terms > n + 1:
        raise InputError(f"terms must be <= n+1 = {n + 1} (powers r^n .. r^0)")
    coeffs, resid, cond = fit_radial_powers(evaluate, n, terms, window)
    return LaurentFit(coefficients=np.asarray(coeffs),
                      powers=tuple(n - k for k in range(terms)),
                      window=window, residual_norm=resid, condition_estimate=cond)


def _config_scale(p: PointConfiguration) -> float:
    return max(p.diameter, 1e-2)


def system_and_window(p: PointConfiguration, window: FitWindow | None,
                      step_control: StepControl | None = None,
                      factor: float = DEFAULT_WINDOW_FACTOR,
                      span: float = DEFAULT_WINDOW_SPAN):
    """The ball system and its Laurent fit window.

    An explicit window bounds the build.  Otherwise the system is built once
    for every radius and the window [R, span R] is taken from its
    breakpoints, with R = factor * max(last breakpoint, configuration scale).
    """
    if window is not None:
        system = BallSystem(p, r_max=window.r_max * (1 + 1e-6), step_control=step_control)
        return system, window
    system = BallSystem(p, r_max=np.inf, step_control=step_control)
    bp_max = float(system.breakpoints[-1]) if system.breakpoints.size else 0.0
    R = factor * max(bp_max, _config_scale(p))
    return system, FitWindow(r_min=R, r_max=span * R, count=DEFAULT_WINDOW_COUNT)


def reference_mean_width(p: PointConfiguration, nodes: int = 200_000,
                         seed: int = 433494437) -> tuple[float, float, str]:
    """Best available mean width with an error bound: (value, err, method).

    Exact in the plane; calibrated edge sums for full-dimensional 3-d hulls;
    planar 3-d configurations are rotated into their spanning plane and
    lifted with the calibrated ratio; quadrature elsewhere.
    """
    n = p.dimension
    if n == 2:
        res = mean_width_exact_2d(p)
        return res.value, 1e-12 * (1.0 + res.value), res.method
    if n == 3:
        centered = p.points - np.mean(p.points, axis=0)
        svals = np.linalg.svd(centered, compute_uv=False) if p.n_points > 1 else np.zeros(1)
        rank = int(np.sum(svals > 1e-9 * max(1.0, float(svals[0]))))
        if rank == 3:
            res = mean_width_edge_sum_3d(p, calibrate(3, 3))
            return res.value, res.stderr, res.method
        # flat configuration: measure in its own plane, lift by c_{2,3}
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        planar = PointConfiguration(2, centered @ vt[:2].T)
        c = calibrate(2, 3)
        perim = mean_width_exact_2d(planar).value
        return c.value * perim, c.stderr * perim + 1e-12 * (1 + perim), "exact2d+lift"
    res = mean_width_quadrature(p, nodes=nodes, seed=seed)
    return res.value, res.stderr, res.method


def mean_width_difference(p: PointConfiguration, q: PointConfiguration,
                          nodes: int = 200_000, seed: int = 433494437
                          ) -> tuple[float, float]:
    """M(q) - M(p) with a sound error bound for the difference.

    When both sides are measured by the same formula, the shared dimensional
    constant cancels in the comparison: the difference inherits only the
    constant's relative error (times the difference itself) plus roundoff.
    Mixed-method comparisons fall back to the sum of absolute error bounds.
    """
    vp, ep, meth_p = reference_mean_width(p, nodes=nodes, seed=seed)
    vq, eq, meth_q = reference_mean_width(q, nodes=nodes, seed=seed)
    diff = vq - vp
    floor = 1e-12 * (abs(vp) + abs(vq) + 1.0)
    if meth_p == meth_q and meth_p != "quadrature":
        if meth_p == "edge_sum_3d":
            c = calibrate(3, 3)
            rel = c.stderr / c.value
        elif meth_p == "exact2d+lift":
            c = calibrate(2, 3)
            rel = c.stderr / c.value
        else:                      # exact2d: no calibration constant at all
            rel = 0.0
        return diff, rel * abs(diff) + floor
    return diff, ep + eq + floor


def _verifier_tolerance(m_value: float, m_err: float, n: int) -> float:
    # 1% of the mean-width scale with an absolute floor of 1e-6 * delta_n
    return max(0.01 * abs(m_value), 1e-6 * unit_ball_volume(n), 3.0 * m_err)


def verify_capoyleas_pach(p: PointConfiguration, window: FitWindow | None = None,
                          step_control: StepControl | None = None) -> CheckReport:
    """Union volume second coefficient against the hull mean width."""
    n = p.dimension
    if n not in (2, 3):
        raise InputError("verification needs n in {2, 3} for an exact mean-width reference")
    system, win = system_and_window(p, window, step_control)
    terms = min(4, n + 1)
    fit = laurent_fit(system.union_volume, n, terms, win)
    a = fit.coefficient(n - 1)
    m, m_err, method = reference_mean_width(p)
    tol = _verifier_tolerance(m, m_err, n)
    gap = abs(a - m)
    return CheckReport(
        claim="union second coefficient equals hull mean width",
        lhs=a, rhs=m, gap=gap, tolerance=tol, passed=gap <= tol,
        extras={"leading_coefficient": fit.coefficient(n),
                "mean_width_method": method,
                "residual_norm": fit.residual_norm,
                "window": (win.r_min, win.r_max, win.count)})


def verify_csikos(p: PointConfiguration, window: FitWindow | None = None,
                  step_control: StepControl | None = None) -> list[CheckReport]:
    """Intersection second coefficient is -M, and the pair sum cancels it."""
    n = p.dimension
    if n not in (2, 3):
        raise InputError("verification needs n in {2, 3} for an exact mean-width reference")
    system, win = system_and_window(p, window, step_control)
    terms = min(4, n + 1)
    fit_i = laurent_fit(system.intersection_volume, n, terms, win)
    fit_u = laurent_fit(system.union_volume, n, terms, win)
    fit_s = laurent_fit(lambda r: system.union_volume(r) + system.intersection_volume(r),
                        n, terms, win)
    m, m_err, method = reference_mean_width(p)
    tol = _verifier_tolerance(m, m_err, n)
    delta = unit_ball_volume(n)
    ai, au = fit_i.coefficient(n - 1), fit_u.coefficient(n - 1)
    sn, sn1 = fit_s.coefficient(n), fit_s.coefficient(n - 1)
    reports = [
        CheckReport(
            claim="intersection second coefficient equals minus the mean width",
            lhs=ai, rhs=-m, gap=abs(ai + m), tolerance=tol,
            passed=abs(ai + m) <= tol,
            extras={"mean_width_method": method}),
        CheckReport(
            claim="union+intersection leading coefficient equals 2 delta_n",
            lhs=sn, rhs=2.0 * delta, gap=abs(sn - 2.0 * delta),
            tolerance=0.01 * 2.0 * delta, passed=abs(sn - 2.0 * delta) <= 0.02 * delta),
        CheckReport(
            claim="union+intersection second coefficient vanishes",
            lhs=sn1, rhs=0.0, gap=abs(sn1), tolerance=tol, passed=abs(sn1) <= tol,
            extras={"union_coefficient": au, "intersection_coefficient": ai}),
    ]
    return reports


def verify_ww_proposition(p: PointConfiguration, window: FitWindow | None = None,
                          step_control: StepControl | None = None) -> CheckReport:
    """d/ds (W_n + W^n)(0) = 0 for N <= n+1 points in general position."""
    n = p.dimension
    N = p.n_points
    if N > n + 1:
        raise GeometryError(f"proposition needs N <= n+1, got N={N} in E^{n}")
    if N >= 2:
        centered = p.points - p.points[0]
        if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, p.diameter)) < N - 1:
            raise GeometryError("points are not in general position (affinely dependent)")
    if N == 1:
        return CheckReport(claim="W-sum derivative vanishes at s=0",
                           lhs=0.0, rhs=0.0, gap=0.0,
                           tolerance=1e-6 * unit_ball_volume(n), passed=True,
                           extras={"note": "single ball: both profiles are delta_n r^n"})
    system, win = system_and_window(p, window, step_control)
    terms = min(4, n + 1)
    fit_u = laurent_fit(system.union_volume, n, terms, win)
    fit_i = laurent_fit(system.intersection_volume, n, terms, win)
    au, ai = fit_u.coefficient(n - 1), fit_i.coefficient(n - 1)
    defect = abs(au + ai)
    tol = max(1e-3 * p.diameter, 0.01 * abs(au), 1e-6 * unit_ball_volume(n))
    return CheckReport(claim="W-sum derivative vanishes at s=0",
                       lhs=au, rhs=-ai, gap=defect, tolerance=tol,
                       passed=defect <= tol,
                       extras={"union_coefficient": au, "intersection_coefficient": ai})


def verify_lift_identity(p: PointConfiguration, r_samples,
                         samples: int = 10_000_000, seed: int = 0,
                         delta_frac: float = 0.01,
                         step_control: StepControl | None = None) -> list[CheckReport]:
    """V_n(r) = (1/2 pi r) dV_{n+2}/dr, checked by paired-sample Monte Carlo.

    The (n+2)-volume derivative is a central difference at r*(1 +/- delta_frac)
    evaluated on one common sample set, so only points in the thin shell
    between the two radii contribute variance.  Raises NumericalError when
    the Monte Carlo error cannot resolve the derivative.
    """
    r_samples = [float(r) for r in np.atleast_1d(np.asarray(r_samples, dtype=float))]
    if not r_samples:
        raise InputError("need at least one radius")
    n = p.dimension
    lifted = embed(p, n + 2)
    system = BallSystem(p, r_max=max(r_samples) * (1 + 1e-6), step_control=step_control)
    reports = []
    for k, r in enumerate(r_samples):
        dr = delta_frac * r
        reports.extend(_lift_reports_at(system, lifted, r, dr, samples,
                                        seed + 7919 * k))
    return reports


def _lift_reports_at(system: BallSystem, lifted: PointConfiguration, r: float,
                     dr: float, samples: int, seed: int) -> list[CheckReport]:
    pts = lifted.points
    dim = lifted.dimension
    lo = np.min(pts, axis=0) - (r + dr)
    hi = np.max(pts, axis=0) + (r + dr)
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    counts = {"union": [0, 0], "intersection": [0, 0]}
    done = 0
    chunk = 1_000_000
    while done < samples:
        m = min(chunk, samples - done)
        x = rng.uniform(lo, hi, size=(m, dim))
        d2 = [np.sum((x - site) ** 2, axis=1) for site in pts]
        for radius, slot in ((r - dr, 0), (r + dr, 1)):
            r2 = radius * radius
            any_mask = np.zeros(m, dtype=bool)
            all_mask = np.ones(m, dtype=bool)
            for dd in d2:
                np.logical_or(any_mask, dd <= r2, out=any_mask)
                np.logical_and(all_mask, dd <= r2, out=all_mask)
            counts["union"][slot] += int(np.count_nonzero(any_mask))
            counts["intersection"][slot] += int(np.count_nonzero(all_mask))
        done += m
    out = []
    for which in ("union", "intersection"):
        k_low, k_high = counts[which]
        shell = (k_high - k_low) / samples
        diff = box * shell
        se_diff = box * math.sqrt(max(shell * (1 - shell), 0.0) / samples)
        lhs = diff / (2.0 * dr) / (2.0 * math.pi * r)
        se = se_diff / (2.0 * dr) / (2.0 * math.pi * r)
        rhs = (system.union_volume(r) if which == "union"
               else system.intersection_volume(r))
        if se > 0.25 * max(abs(rhs), 1e-12):
            need = samples * (se / (0.25 * max(abs(rhs), 1e-12))) ** 2
            raise NumericalError(
                f"Monte Carlo too noisy to resolve the lifted derivative at r={r:g}: "
                f"stderr {se:.3g} vs value {rhs:.3g}; need ~{need:.3g} samples")
        gap = abs(lhs - rhs)
        out.append(CheckReport(
            claim=f"{which} volume matches lifted derivative at r={r:g}",
            lhs=lhs, rhs=rhs, gap=gap, tolerance=3.0 * se, passed=gap <= 3.0 * se,
            extras={"stderr": se, "samples": samples, "delta": dr}))
    return out


# ---------------------------------------------------------------------------
# threshold finder
# ---------------------------------------------------------------------------

def kp_threshold(p: PointConfiguration, q: PointConfiguration, grid: RadiusGrid,
                 step_control: StepControl | None = None) -> ThresholdResult:
    """Scan a radius grid for the four large-radius rearrangement inequalities.

    Requires q to be an expansion of p in the same dimension.  Congruent
    pairs short-circuit: congruence implies equal volumes at every radius, so
    every margin is exactly zero.  Otherwise r0 is the smallest grid radius
    from which all four inequalities hold at every larger grid point, and
    strictness_margin is the smallest normalized gap beyond r0.
    """
    if p.dimension != q.dimension:
        raise InputError("threshold scan needs configurations in the same dimension")
    scale = max(_config_scale(p), _config_scale(q))
    if not is_expansion(p, q, tol=1e-9 * scale):
        raise GeometryError("q is not an expansion of p")
    radii = grid.radii()
    n = p.dimension
    if are_congruent(p, q, tol=1e-9 * scale):
        return ThresholdResult(r0=float(radii[0]), checked_grid=radii,
                               all_hold=True, strictness_margin=0.0,
                               margins=np.zeros((radii.size, 4)), congruent=True)

    sys_p = BallSystem(p, r_max=grid.r_max * (1 + 1e-6), step_control=step_control)
    sys_q = BallSystem(q, r_max=grid.r_max * (1 + 1e-6), step_control=step_control)

    used = sys_p.off_breakpoint(sys_q.off_breakpoint(sys_p.off_breakpoint(radii)))
    norm = used ** (n - 1)
    margins = np.column_stack((
        sys_q.union_volume(used) - sys_p.union_volume(used),
        sys_p.intersection_volume(used) - sys_q.intersection_volume(used),
        sys_q.union_boundary(used) - sys_p.union_boundary(used),
        sys_p.intersection_boundary(used) - sys_q.intersection_boundary(used))) / norm[:, None]

    hold_tol = 1e-9 * unit_ball_volume(n)
    holds = np.all(margins >= -hold_tol, axis=1)
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(holds)))
    if not suffix_ok.any():
        raise NumericalError(
            "inequalities still failing at the top of the grid; extend r_max "
            "or tighten tolerances")
    i0 = int(np.argmax(suffix_ok))
    all_hold = bool(np.all(margins[:, :2] >= -hold_tol))
    return ThresholdResult(r0=float(used[i0]), checked_grid=used,
                           all_hold=all_hold,
                           strictness_margin=float(np.min(margins[i0:])),
                           margins=margins)
