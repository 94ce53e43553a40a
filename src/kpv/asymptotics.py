"""Large-radius asymptotics of ball-system volume functions.

Union and intersection volumes of N equal balls grow like delta_n r^n with a
second coefficient equal to +/- the mean width of the hull of the centers.
This module verifies those asymptotic identities against the mean-width
module, using the exact Laurent coefficients that every ball system built to
infinity carries (`kpv asymptotics` reports them to any order), checks the
union/intersection cancellation of the second coefficients, checks the
dimension-lifting derivative identity against the same configuration
embedded two dimensions up, and locates the radius threshold beyond which
all four large-radius rearrangement inequalities hold for an expansion pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ball_volumes import BallSystem
from .configurations import (PointConfiguration, are_congruent, embed,
                             is_expansion)
from .errors import GeometryError, InputError, NumericalError
from .meanwidth import reference_mean_width
from .truncated_volume import RadiusGrid, fit_radial_powers, unit_ball_volume

@dataclass(frozen=True)
class LaurentFit:
    """Fitted leading coefficients a_n, a_{n-1}, ... of a volume function."""

    coefficients: np.ndarray
    powers: tuple
    window: RadiusGrid
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
class ThresholdResult:
    """Outcome of the large-radius inequality scan for an expansion pair.

    margins holds the four normalized gaps (union volume, intersection
    volume, union boundary, intersection boundary) at every checked radius,
    each a length: the volume gaps over r^(n-1) and the boundary gaps over
    r^(n-2), which tend to multiples of the mean-width gap.  Negative
    entries mark radii where an inequality fails, which is expected at
    small radii (boundary inequalities genuinely can fail there).  r0 needs all
    four to hold from it on; all_hold covers only the two volume inequalities
    (margins[:, :2]), over the whole grid checked_grid, exactly as requested.
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

# Not called here: the exact coefficients come from BallSystem.  The tests use
# this fit as an independent oracle, and bench/tracer.py rebinds it (and
# truncated_volume.fit_radial_powers), so both stay importable from src.
def laurent_fit(evaluate, n: int, terms: int, window: RadiusGrid) -> LaurentFit:
    """Least squares of V(r) against sum a_j r^j, j = n .. n-terms+1.

    evaluate maps an array of radii to the array of volumes (a BallSystem
    volume method, RadialVolumeProfile.value, or any vectorised callable).  terms
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


def mean_width_difference(p: PointConfiguration, q: PointConfiguration
                          ) -> tuple[float, float]:
    """M(q) - M(p) with an error bound: the sum of both sides' bounds."""
    mp = reference_mean_width(p)
    mq = reference_mean_width(q)
    return mq.value - mp.value, mp.stderr + mq.stderr + 1e-12 * (
        abs(mp.value) + abs(mq.value) + 1.0)


def _verifier_tolerance(m_value: float, m_err: float, n: int) -> float:
    # 1% of the mean-width scale with an absolute floor of 1e-6 * delta_n
    return max(0.01 * abs(m_value), 1e-6 * unit_ball_volume(n), 3.0 * m_err)


def verify_capoyleas_pach(p: PointConfiguration) -> CheckReport:
    """Union volume second coefficient against the hull mean width."""
    system = BallSystem(p, r_max=np.inf)
    lead, a = system.laurent_coefficients("union")
    ref = reference_mean_width(p)
    m = ref.value
    tol = _verifier_tolerance(m, ref.stderr, p.dimension)
    gap = abs(a - m)
    return CheckReport(
        claim="union second coefficient equals hull mean width",
        lhs=a, rhs=m, gap=gap, tolerance=tol, passed=gap <= tol,
        extras={"leading_coefficient": lead, "mean_width_method": ref.method})


def verify_csikos(p: PointConfiguration) -> list[CheckReport]:
    """Intersection second coefficient is -M, and the pair sum cancels it."""
    n = p.dimension
    system = BallSystem(p, r_max=np.inf)
    lead_i, ai = system.laurent_coefficients("intersection")
    lead_u, au = system.laurent_coefficients("union")
    sn, sn1 = lead_u + lead_i, au + ai
    ref = reference_mean_width(p)
    m = ref.value
    tol = _verifier_tolerance(m, ref.stderr, n)
    delta = unit_ball_volume(n)
    reports = [
        CheckReport(
            claim="intersection second coefficient equals minus the mean width",
            lhs=ai, rhs=-m, gap=abs(ai + m), tolerance=tol,
            passed=abs(ai + m) <= tol,
            extras={"mean_width_method": ref.method}),
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


def ww_inapplicable(p: PointConfiguration) -> str | None:
    """Why the W-sum proposition does not apply to p, or None where it does.

    It needs N <= n+1 points in general position: affinely independent, by a
    rank test at 1e-9 times the diameter.
    """
    n, N = p.dimension, p.n_points
    if N > n + 1:
        return f"proposition needs N <= n+1, got N={N} in E^{n}"
    if N >= 2 and np.linalg.matrix_rank(p.points - p.points[0],
                                        tol=1e-9 * p.diameter) < N - 1:
        return "points are not in general position (affinely dependent)"
    return None


def verify_ww_proposition(p: PointConfiguration) -> CheckReport:
    """d/ds (W_n + W^n)(0) = 0 for N <= n+1 points in general position."""
    n = p.dimension
    N = p.n_points
    reason = ww_inapplicable(p)
    if reason:
        raise GeometryError(reason)
    if N == 1:
        return CheckReport(claim="W-sum derivative vanishes at s=0",
                           lhs=0.0, rhs=0.0, gap=0.0,
                           tolerance=1e-6 * unit_ball_volume(n), passed=True,
                           extras={"note": "single ball: both profiles are delta_n r^n"})
    system = BallSystem(p, r_max=np.inf)
    au = system.laurent_coefficients("union")[1]
    ai = system.laurent_coefficients("intersection")[1]
    defect = abs(au + ai)
    tol = max(1e-3 * p.diameter, 0.01 * abs(au), 1e-6 * unit_ball_volume(n))
    return CheckReport(claim="W-sum derivative vanishes at s=0",
                       lhs=au, rhs=-ai, gap=defect, tolerance=tol,
                       passed=defect <= tol,
                       extras={"union_coefficient": au, "intersection_coefficient": ai})


def verify_lift_identity(p: PointConfiguration, r_samples) -> list[CheckReport]:
    """V_n(r) = (1/2 pi r) dV_{n+2}/dr for the union and the intersection.

    The right side is the boundary measure of the configuration embedded in
    E^(n+2), read off its ODE, against the n-volume of the configuration
    itself; both systems are built once, to the largest radius.  The
    tolerance, 1e-9 delta_n r^n, is reported as the check's "stderr".
    """
    r_samples = [float(r) for r in np.atleast_1d(np.asarray(r_samples, dtype=float))]
    if not r_samples:
        raise InputError("need at least one radius")
    n = p.dimension
    r_max = max(r_samples) * (1 + 1e-6)
    system = BallSystem(p, r_max=r_max)
    lifted = BallSystem(embed(p, n + 2), r_max=r_max)
    delta = unit_ball_volume(n)
    reports = []
    for r in r_samples:
        tol = 1e-9 * delta * r ** n
        for which, boundary, volume in (
                ("union", lifted.union_boundary, system.union_volume),
                ("intersection", lifted.intersection_boundary, system.intersection_volume)):
            lhs = boundary(r) / (2.0 * math.pi * r)
            rhs = volume(r)
            gap = abs(lhs - rhs)
            reports.append(CheckReport(
                claim=f"{which} volume matches lifted derivative at r={r:g}",
                lhs=lhs, rhs=rhs, gap=gap, tolerance=tol, passed=gap <= tol,
                extras={"stderr": tol}))
    return reports


# ---------------------------------------------------------------------------
# threshold finder
# ---------------------------------------------------------------------------

def kp_threshold(p: PointConfiguration, q: PointConfiguration,
                 grid: RadiusGrid) -> ThresholdResult:
    """Scan a radius grid for the four large-radius rearrangement inequalities.

    Requires q to be an expansion of p in the same dimension.  Congruent
    pairs short-circuit: congruence implies equal volumes at every radius, so
    every margin is exactly zero.  Otherwise r0 is the smallest grid radius
    from which all four inequalities hold at every larger grid point, and
    strictness_margin is the smallest normalized gap beyond r0.  The gaps
    are lengths (see ThresholdResult), so margins scale with the pair, and
    an inequality holds where its gap is at least -1e-9 delta_n diam, diam
    the larger of the two diameters.
    """
    if p.dimension != q.dimension:
        raise InputError("threshold scan needs configurations in the same dimension")
    # a pair of single sites (diameter 0) keeps absolute tolerances
    scale = max(p.diameter, q.diameter) or 1.0
    if not is_expansion(p, q, tol=1e-9 * scale):
        raise GeometryError("q is not an expansion of p")
    radii = grid.radii()
    n = p.dimension
    if are_congruent(p, q, tol=1e-9 * scale):
        return ThresholdResult(r0=float(radii[0]), checked_grid=radii,
                               all_hold=True, strictness_margin=0.0,
                               margins=np.zeros((radii.size, 4)), congruent=True)

    sys_p = BallSystem(p, r_max=grid.r_max * (1 + 1e-6))
    sys_q = BallSystem(q, r_max=grid.r_max * (1 + 1e-6))

    # volume gaps tend to c dM r^(n-1) and boundary gaps to (n-1) c dM r^(n-2),
    # dM the mean-width gap: both normalized to lengths
    margins = np.column_stack((
        sys_q.union_volume(radii) - sys_p.union_volume(radii),
        sys_p.intersection_volume(radii) - sys_q.intersection_volume(radii),
        sys_q.union_boundary(radii) - sys_p.union_boundary(radii),
        sys_p.intersection_boundary(radii) - sys_q.intersection_boundary(radii))
    ) / radii[:, None] ** np.array([n - 1, n - 1, n - 2, n - 2])

    hold_tol = 1e-9 * unit_ball_volume(n) * scale
    holds = np.all(margins >= -hold_tol, axis=1)
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(holds)))
    if not suffix_ok.any():
        raise NumericalError(
            "inequalities still failing at the top of the grid; extend r_max "
            "or tighten tolerances")
    i0 = int(np.argmax(suffix_ok))
    all_hold = bool(np.all(margins[:, :2] >= -hold_tol))
    return ThresholdResult(r0=float(radii[i0]), checked_grid=radii,
                           all_hold=all_hold,
                           strictness_margin=float(np.min(margins[i0:])),
                           margins=margins)
