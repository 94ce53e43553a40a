"""Radial volume profiles of polyhedral sets truncated by a growing ball.

The central object is V(r), the n-volume of P intersected with the ball of
radius r about a base point.  Its source term collects the same profiles one
dimension down, evaluated on the face hyperplanes,

    S(r) = sum_i eps_i h_i V_i(sqrt(r^2 - h_i^2))   (face i off below h_i),

and V solves the linear ODE r V'(r) = n V(r) - S(r).  With the integrating
factor r^-n this is a quadrature:

    V(r) / r^n = omega * delta_n - int_0^r S(t) t^(-n-1) dt,

where omega is the solid-angle fraction of P at the base point.  S vanishes
below the first positive face distance, so there V is the exact cone volume
omega * delta_n * r^n.  Beyond it the integral comes from already-built
lower-dimensional profiles.

The recursion bottoms out in dimension two.  The faces of a planar set are
intervals, whose lengths in the window are linear in rho_i = sqrt(t^2 - h_i^2)
between at most two kinks, so the integral is elementary (Green's theorem,
_PlanarPieces) and exact at every radius, infinity included.  Intervals,
dimension one, keep their exact overlap lengths.

In dimension three and up the integral is an adaptive Chebyshev quadrature
up to twice the last breakpoint b_last.  Between two knots b_k < b_{k+1}
(the face distances and their recursively propagated images, at most a
factor 2 apart) the substitution t = b_k + u^2 makes the onsets
(t - b_k)^(1/2) and (t - b_k)^(3/2) of new face terms smooth, and the
integrand 2u S(t) t^(-n-1) is interpolated at Chebyshev points in u and
integrated as a Chebyshev series, halved until its trailing coefficients
fall below RTOL relative to its largest one.

Past 2 b_last, V is read off the Taylor series of W(s) = s^n V(1/s) at
s = 0, which converges for s < 1/b_last.  The ODE gives W'(s) =
sum_i eps_i h_i (1 - h_i^2 s^2)^((n-1)/2) W_i(s / sqrt(1 - h_i^2 s^2)), so
each coefficient past W(0) is a finite sum over the face profiles' own, and
W(0) makes the series meet the quadrature at 2 b_last (in the plane it is
the closed form's limit).  Each profile stores its first _SERIES_TERMS
coefficients, V's Laurent coefficients at infinity.  dV/dr is the ODE's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev
# Not called here: bench/tracer.py rebinds this module attribute to count
# integrator calls, so it stays importable from this module.
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.special import gammaln

from .errors import GeometryError, InputError, NumericalError
from .polyhedra import Halfspace, PolyhedralSet, _solve_max_margin, face_data

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# A quadrature piece is accepted once its trailing Chebyshev coefficients fall
# below RTOL times its largest one
RTOL = 1e-10

# Chebyshev points of the first kind per quadrature piece (degree 24 series)
_CHEB_POINTS = 25
_CHEB_THETA = np.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS
_CHEB_NODES = np.cos(_CHEB_THETA)
# values at _CHEB_NODES -> Chebyshev coefficients (a discrete cosine transform)
_CHEB_COEFFS = (2.0 / _CHEB_POINTS) * np.cos(
    np.outer(np.arange(_CHEB_POINTS), _CHEB_THETA))
_CHEB_COEFFS[0] *= 0.5
# Chebyshev coefficients -> those of the antiderivative that is 0 at -1, for the
# quadrature of sets of dimension >= 3 (planar sets have a closed form)
_CHEB_INTEGRAL = chebyshev.chebint(np.eye(_CHEB_POINTS), lbnd=-1, axis=1)
# a piece halved this often is accepted as it stands (its width is ~1e-15 of
# its segment, so its error cannot matter)
_MAX_HALVINGS = 50
# more pieces than this pending at once means noise is being chased: give up
_MAX_PENDING = 4096
# In the quadrature (dimension >= 3), the segment on which V rises from zero
# (base point outside P) starts graded toward its left end, 2^-8 of its width
# first: V ~ (r - reach)^p there, and a uniform error across a wide first piece
# would swamp V just past the onset.  Planar onsets use _onset_share instead.
_ONSET_GRADING = 8


# Taylor coefficients of W at s = 0 that a profile stores: in x = b_last s
# they converge for x < 1, and from x = 1/2 on 60 terms reach 2^-60 = 8.7e-19
_SERIES_TERMS = 60
_POWERS = np.arange(_SERIES_TERMS)


@functools.lru_cache(maxsize=None)
def _series_recursion(n: int, width: int):
    """The face recursion of W's coefficients in dimension n: (k + 1, m, j, binom / (k+1)).

    (k+1) w_(k+1) = sum_i eps_i h_i sum_m binom((n-1-j)/2, m) (-h_i^2)^m w_(i,j),
    one entry per (k, m) with j = k - 2m < width; binom is the generalised one.
    """
    k, m = np.nonzero(2 * _POWERS[:_SERIES_TERMS // 2] <= _POWERS[:-1, None])
    k, m = k[k - 2 * m < width], m[k - 2 * m < width]
    i = _POWERS[:_SERIES_TERMS // 2]
    factors = (0.5 * (n - 1 - k + 2 * m)[:, None] - i) / (i + 1)
    return k + 1, m, k - 2 * m, np.prod(np.where(i < m[:, None], factors, 1.0), axis=1) / (k + 1)


def unit_ball_volume(n: int) -> float:
    """delta_n, the volume of the unit ball in E^n."""
    if n < 0:
        raise InputError("dimension must be non-negative")
    return math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0))


# ---------------------------------------------------------------------------
# evaluation pieces
# ---------------------------------------------------------------------------

def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise Chebyshev series: sum_j coeffs[i, j] T_j(x[i])."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for j in range(coeffs.shape[1] - 1, 0, -1):
        b1, b2 = coeffs[:, j] + 2.0 * x * b1 - b2, b1
    return coeffs[:, 0] + x * b1 - b2


def _source(faces, base, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(t) and an estimate of its error, at radii t = base + dt.

    The error estimate adds up the face profiles' own error estimates, the
    rounding of the sum and that of rho = sqrt(t^2 - h^2), which just past
    an onset (where V_i is still tiny) dominates.  Keeping base (a
    breakpoint) apart from dt keeps t - h exact when t sits just past a face
    distance h.
    """
    t = base + dt
    s, err = np.zeros_like(t), np.zeros_like(t)
    for h, eps, sub in faces:
        gap = (base - h) + dt
        on = gap > 0.0
        if not on.any():
            continue
        rho = np.sqrt(gap[on] * (t[on] + h))
        v, v_err = sub._volume(rho)
        s[on] += eps * h * v
        # rho off by eps * rho moves V_i by eps * rho * V_i' <= eps * m delta_m rho^m
        slope = sub.dimension * sub.delta * rho ** sub.dimension
        err[on] += h * (v_err + 8.0 * _EPS * (np.abs(v) + slope))
    return s, err


class _ChebyshevPieces:
    """Piecewise Chebyshev form of I(t) = int_0^t S(x) x^(-n-1) dx up to t = end.

    Piece k covers t in [t_lo[k], t_lo[k+1]) (the last one up to end), where
    v = sqrt(t - base[k]) mapped from [lo[k], hi[k]] onto [-1, 1] gives
    I(t) = offset[k] + sum_j coeffs[k, j] T_j(x); I vanishes below t_lo[0].
    error[k] estimates the error of I on piece k: the quadrature error of the
    pieces up to k plus the rounding of the series.  end_value and end_error
    are I and its error estimate at end.
    """

    def __init__(self, end, base, lo, hi, coeffs, err):
        # by segment and then by u: halvings chasing a kink can leave pieces
        # narrower than the spacing of doubles in t
        order = np.lexsort((lo, base))
        base, lo, hi, coeffs, err = base[order], lo[order], hi[order], coeffs[order], err[order]
        half = 0.5 * (hi - lo)
        # antiderivative from the low end of each piece's variable
        self.coeffs = (coeffs @ _CHEB_INTEGRAL) * half[:, None]
        total = np.cumsum(self.coeffs.sum(axis=1))      # I at the end of each piece
        self.offset = np.concatenate(([0.0], total[:-1]))
        self.error = np.cumsum(err * half) + 16.0 * _EPS * (
            np.abs(self.offset) + np.sum(np.abs(self.coeffs), axis=1))
        self.t_lo = base + lo * lo
        self.base, self.lo, self.hi = base, lo, hi
        self.end, self.end_value, self.end_error = end, float(total[-1]), float(self.error[-1])

    def integral(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I at radii r <= end, and its error estimate."""
        k = np.searchsorted(self.t_lo, r, side="right") - 1
        out, err = np.zeros_like(r), np.zeros_like(r)
        inside = k >= 0
        k, rr = k[inside], r[inside]
        v = np.sqrt(np.maximum(rr - self.base[k], 0.0))
        lo, hi = self.lo[k], self.hi[k]
        # a radius between two such pieces maps just outside [-1, 1]
        x = np.clip((2.0 * v - lo - hi) / (hi - lo), -1.0, 1.0)
        out[inside] = self.offset[k] + _clenshaw(self.coeffs[k], x)
        err[inside] = self.error[k]
        return out, err


# 2d - sin(2d) = (2d)^3 sum_m (-1)^m (2d)^(2m) / (2m+3)!, highest power first:
# eight terms reach full precision for 2d <= 2 _SHIFTED_TURN
_SHIFTED_SERIES = np.array([(-1) ** m / math.factorial(2 * m + 3) for m in range(8)])[::-1]
# the shifted form serves a facet's window end until it has turned by this
# angle; past it Green's form loses no more than about 1e-14 of the share
_SHIFTED_TURN = 0.25


def _onset_share(rho, r, h, beta, k) -> np.ndarray:
    """The integral of k (rho - beta) t^-3 dt from where rho = beta, without cancellation.

    The share (k/h) [(2d - sin 2d)/4 + (beta/h) sin^2(d)/2], where
    d = atan2((rho - beta) h, h^2 + rho beta) <= _SHIFTED_TURN is the angle the
    facet's window end has turned through since it passed beta, and
    sin d = (rho - beta) h / (r sqrt(h^2 + beta^2)).  It is of third
    (beta = 0) or second order in rho - beta, where Green's form subtracts
    first-order terms.
    """
    gap = (rho - beta) * h
    x = 2.0 * np.arctan2(gap, h * h + rho * beta)
    x2 = x * x
    return (k / h) * (0.25 * x2 * x * np.polyval(_SHIFTED_SERIES, x2)
                      + (0.5 * beta / h) * gap * gap / (r * r * (h * h + beta * beta)))


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis, added one term at a time in order.

    Unlike np.sum (pairwise along a contiguous axis), the order, and so the
    bits, of each entry's sum do not depend on the other axes' sizes.
    """
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


class _PlanarPieces:
    """Closed form of I(t) = int_0^t S(x) x^-3 dx for a planar set, by Green's theorem.

    Facet i at distance h with sign eps has as its own profile an interval
    [a, b] about its foot point.  Its ends lie at e = -a and e = b from the
    foot point (infinite for a whole line; at most one negative, and then no
    farther than the other), so its length in the window of
    half-width rho is V_i(rho) = sum over its ends of sign(e) min(rho, |e|).
    With theta = atan2(rho, h), d/dt [theta / (2h) - rho / (2t^2)] = rho t^-3
    and d/dt [-|e| / (2t^2)] = |e| t^-3, so the facet's share of I is

        F = sum over ends of sign(e) [min(theta, theta_e) / (2h) - min(rho, |e|) / (2 r^2)],

    theta_e = atan2(|e|, h), and I = sum_i eps_i h_i F_i.  As r -> inf, F
    tends to sum sign(e) theta_e / (2h), so I(inf), end_value with
    end = inf, is exact.  Where the base point lies outside the set (onset),
    V = -r^2 I rises from zero, and where a facet's length first rises, as
    k (rho - beta), Green's form cancels: _onset_share evaluates those radii
    instead, until theta has grown by _SHIFTED_TURN.

    The facets come as columns, one row per facet: h, eps and the ends a <= b
    (a = -inf, b = inf for a whole line); onset says whether the base point
    lies outside the set.  Their data stay columns, so that each operation
    covers every (facet, radius) pair.
    """

    def __init__(self, h, eps, a, b, onset: bool):
        h, eps = np.asarray(h, dtype=float), np.asarray(eps, dtype=float)
        low, high = np.minimum(-a, b), np.maximum(-a, b)
        s_low, s_high = np.sign(low), np.sign(high)
        # where the length first rises: from beta with slope k, up to rise_end
        behind = low < 0.0
        beta = np.where(behind, -low, 0.0)
        k = np.where(behind, 1.0 * (high > -low), 1.0 * (low > 0.0) + (high > 0.0))
        rise_end = np.where(low > 0.0, low, high)
        rise = np.full(h.shape, np.inf)
        if onset:
            rising = k > 0.0
            rise[rising] = np.maximum(beta[rising], _TINY)
            turn = np.arctan2(beta, h) + _SHIFTED_TURN
            capped = rising & (turn < 0.5 * math.pi)
            rise_end = np.where(capped, np.minimum(rise_end, h * np.tan(turn)), rise_end)
        # facets down the first axis, radii along the second
        (self.h, self.eh, self.w_low, self.w_high, self.theta_low, self.theta_high,
         self.u_low, self.u_high, self.len_low, self.len_high, self.rise,
         self.rise_end) = np.array([
             h, eps * h, 0.5 * eps * s_low, 0.5 * eps * s_high, np.arctan2(np.abs(low), h),
             np.arctan2(np.abs(high), h), 0.5 * eps * h * s_low, 0.5 * eps * h * s_high,
             np.abs(low), np.abs(high), rise, rise_end])[:, :, None]
        self.beta, self.k = beta, k
        # each facet's share of I at infinity, and their sum in facet order
        self.infinite_shares = (self.w_low * self.theta_low + self.w_high * self.theta_high)[:, 0]
        self.end, self.end_value = math.inf, float(_running_sum(self.infinite_shares))
        # each facet's terms add up to at most pi/2 + 1/2 in size: the rounding
        # error of I grows by 8 eps that much per facet reached
        self.h_sorted = np.sort(h)

    def shares(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every facet's share of I at radii r, and its rho there.

        Two (facets, radii) arrays, computed elementwise.  A facet not yet
        reached has rho = 0 and share 0.
        """
        h = self.h
        rho = np.sqrt(np.maximum((r - h) * (r + h), 0.0))
        theta = np.arctan2(rho, h)
        share = (self.w_low * np.minimum(theta, self.theta_low)
                 + self.w_high * np.minimum(theta, self.theta_high)
                 - (self.u_low * np.minimum(rho, self.len_low)
                    + self.u_high * np.minimum(rho, self.len_high)) * (1.0 / (r * r)))
        near = (rho >= self.rise) & (rho < self.rise_end)
        if near.any():
            i, at = np.nonzero(near)
            share[i, at] = self.eh[i, 0] * _onset_share(rho[i, at], r[at], h[i, 0],
                                                        self.beta[i], self.k[i])
        return share, rho

    def integral(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I at radii r, and its rounding error estimate.

        The facets add up one at a time in facet order, so a batch of radii
        gives the bits each radius gives alone.
        """
        share, _ = self.shares(r)
        reached = np.searchsorted(self.h_sorted, r)
        return _running_sum(share), (8.0 * _EPS * (0.5 * math.pi + 0.5)) * reached


def _check_range(r_max: float, requested: float):
    """InputError unless the largest requested radius lies within r_max."""
    if requested > r_max * (1 + 1e-12):
        raise InputError(f"profile only extends to r_max={r_max:g}, requested {requested:g}")


def _face_series(n: int, faces, scale_exp: int) -> np.ndarray:
    """The stored terms of a profile, scale = 2^scale_exp, from its faces' (w_0 left NaN).

    With eta_i = h_i / scale and rho_i = scale_i / scale, neither above 1, no
    power grows in (k+1) c_(k+1) = sum_i eps_i eta_i sum_m binom (-eta_i^2)^m rho_i^j c_(i,j).
    Units of powers of two keep w_1 and w_2 to the bits of the plain sums over the faces.
    """
    # the faces are all intervals (two terms each) or all of dimension >= 2
    own = np.array([sub.series for _, _, sub in faces])
    shift = np.array([sub.scale_exp for _, _, sub in faces]) - scale_exp
    own = np.ldexp(own, np.multiply.outer(shift, _POWERS[:own.shape[1]]))
    eps_eta = np.ldexp([eps * h for h, eps, _ in faces], -scale_exp)
    weight = np.empty((len(faces), _SERIES_TERMS // 2))      # eps_i eta_i (-eta_i^2)^m
    weight[:, 0], weight[:, 1:] = eps_eta, -(eps_eta * eps_eta)[:, None]
    # g[m, j] = sum_i eps_i eta_i (-eta_i^2)^m rho_i^j c_(i,j), face by face
    g = _running_sum(np.multiply.accumulate(weight, axis=1)[:, :, None] * own[:, None, :])
    k, m, j, share = _series_recursion(n, own.shape[1])
    series = np.bincount(k, share * g[m, j], minlength=_SERIES_TERMS)
    series[0] = math.nan
    return series


class RadialVolumeProfile:
    """Volume of a ball-truncated polyhedral set as a function of the radius.

    Built by volume_profile.  value and derivative evaluate V and dV/dr on
    [0, r_max] (r_max may be infinite), at one radius or a whole array of
    radii in one pass.  series holds the first _SERIES_TERMS Taylor
    coefficients of W(s) = s^n V(1/s) at s = 0 (an interval's two) in units
    of scale = 2^scale_exp, the power of two above the last breakpoint
    b_last: series[k] = w_k / scale^k.  w_0 = w_at_zero is None when the
    quadrature stops short of 2 b_last, which is series_from in dimension
    >= 3: V is read off the series from there on.
    """

    def __init__(self, dimension, breakpoints, omega,
                 pieces: _ChebyshevPieces | _PlanarPieces | None = None, interval=None,
                 faces=(), r_max=np.inf, reach=0.0):
        self.dimension = int(dimension)
        self.delta = unit_ball_volume(self.dimension)
        self.breakpoints = np.sort(np.asarray(breakpoints, dtype=float))
        self.omega = float(omega)
        self.cone_coef = self.omega * self.delta
        self.pieces = pieces
        self.interval = interval            # (a, b, t) for the 1-d base case
        self.faces = list(faces)            # (h_i, eps_i, sub-profile), h_i > 0
        self.r_max = float(r_max)
        self.reach = float(reach)           # distance from the base point to P
        self.scale_exp = math.frexp(self.breakpoints[-1])[1] if self.breakpoints.size else 0
        self.scale = math.ldexp(1.0, self.scale_exp)     # a power of two: scaling is exact
        self.series_from = math.inf         # radii from here on read the series
        if self.interval is not None:
            a, b, t = self.interval
            # W(s) = s V(1/s) is span s, 1 + (t - a) s or 1 + (b - t) s on a
            # half-line, and 2 on the whole line
            span = (b if math.isfinite(b) else t) - (a if math.isfinite(a) else t)
            self.series = np.array([math.isinf(a) + math.isinf(b), span / self.scale])
        elif not self.faces:
            # pure cone: V = omega * delta * r^n for every radius
            self.series = self.cone_coef * (_POWERS == 0)
        else:
            self.series = _face_series(self.dimension, self.faces, self.scale_exp)
            if pieces is not None and pieces.end >= 2.0 * self.breakpoints[-1]:
                self._join(pieces)
        self.w_at_zero = None if math.isnan(self.series[0]) else float(self.series[0])

    def _join(self, pieces):
        """w_0 from W where the pieces end: continuous at 2 b_last (the plane: W(0))."""
        self.series[0] = self.cone_coef - pieces.end_value
        if math.isfinite(pieces.end):
            self.series_from = pieces.end
            terms = self.series * (self.scale / pieces.end) ** _POWERS
            self.series[0] -= np.sum(terms[1:])
            # the terms that matter from there on, where they are largest
            size = np.abs(terms)
            last = np.max(np.flatnonzero(size > 2.0 ** -60 * np.max(size)), initial=0)
            self.far_series = self.series[:last + 1]
            self.far_error = pieces.end_error + 8.0 * _EPS * (self.cone_coef + np.sum(size))

    def taylor(self, order: int) -> np.ndarray:
        """Taylor coefficients w_0 .. w_order of W(s) = s^n V(1/s) at s = 0.

        w_k = series[k] scale^k is the coefficient a_(n-k) of r^(n-k) in V at
        infinity: NaN for k = 0 short of 2 b_last, and infinite past the range
        of a float (w_40 of a region with b_last near 1e10).  order < _SERIES_TERMS.
        """
        if not 0 <= order < _SERIES_TERMS:
            raise InputError(f"taylor order must be in 0..{_SERIES_TERMS - 1}, got {order}")
        w, c = np.zeros(order + 1), self.series[:order + 1]
        with np.errstate(over="ignore"):
            w[:c.size] = np.ldexp(c, self.scale_exp * _POWERS[:c.size])
        return w

    # -- evaluation ---------------------------------------------------------

    def _volume(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """V at radii r > 0 (range already checked), and its error estimate."""
        if self.interval is not None:
            a, b, t = self.interval
            ends = max(abs(e) for e in (a, b, t) if math.isfinite(e))
            v = np.maximum(np.minimum(b, t + r) - np.maximum(a, t - r), 0.0)
            return v, 4.0 * _EPS * (ends + r)
        rn = r ** self.dimension
        if self.pieces is None:
            return self.cone_coef * rn, 4.0 * _EPS * self.cone_coef * rn
        far = r >= self.series_from
        if not far.any():
            i, i_err = self.pieces.integral(r)
            return (self.cone_coef - i) * rn, (i_err + 4.0 * _EPS * self.cone_coef) * rn
        v, err = np.empty_like(r), np.empty_like(r)
        v[~far], err[~far] = self._volume(r[~far])
        x = self.scale / r[far]
        series = np.full_like(x, self.far_series[-1])
        for c in self.far_series[-2::-1]:             # Horner's rule
            series *= x
            series += c
        v[far], err[far] = series * rn[far], self.far_error * rn[far]
        return v, err

    def value(self, r) -> np.ndarray | float:
        """V at a radius (float) or an array of radii (array)."""
        return self._at(r, lambda rr: self._volume(rr)[0])

    def derivative(self, r) -> np.ndarray | float:
        """dV/dr recovered from the ODE right-hand side (not differences)."""
        return self._at(r, self._slope)

    def _at(self, r, f) -> np.ndarray | float:
        """f at the positive radii among r (0 elsewhere), a float for a float."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(arr)
        pos = arr > 0.0
        if pos.any():
            if self.interval is None:
                _check_range(self.r_max, float(np.max(arr[pos])))
            out[pos] = f(arr[pos])
        return float(out[0]) if np.ndim(r) == 0 else out

    def _slope(self, r: np.ndarray) -> np.ndarray:
        if self.interval is not None:
            a, b, t = self.interval
            # the window [t - r, t + r] meets [a, b]: count the ends still inside
            reached = (t + r >= a) & (t - r <= b)
            return np.where(reached, (t - r > a).astype(float) + (t + r < b), 0.0)
        return (self.dimension * self._volume(r)[0] - _source(self.faces, 0.0, r)[0]) / r


# ---------------------------------------------------------------------------
# solid-angle fraction of a polyhedral cone
# ---------------------------------------------------------------------------

def _wedge_fraction(n1: np.ndarray, n2: np.ndarray) -> float:
    """Direction fraction of {u : <u,n1> <= 0, <u,n2> <= 0} in any dimension."""
    c = float(np.clip(np.dot(n1, n2), -1.0, 1.0))
    gamma = math.acos(c)
    return (math.pi - gamma) / (2.0 * math.pi)


def _planar_cone_fraction(normals: np.ndarray) -> float:
    """Exact angular fraction of a 2-d cone {u : N u <= 0}: the widest angle of its edge rays."""
    rays = [r for v in normals for r in (np.array([-v[1], v[0]]), np.array([v[1], -v[0]]))]
    feas = [r for r in rays if np.all(normals @ r <= 1e-12)]
    best = max((math.acos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
                for i, a in enumerate(feas) for b in feas[i + 1:]), default=0.0)
    return best / (2.0 * math.pi)


def _solid_angle_fraction(active_normals: list[np.ndarray], dim: int) -> float:
    """Direction fraction of the cone {u : <u, a> <= 0 for every active normal a}.

    Closed forms cover at most two normals and the plane.  Otherwise the
    fraction is W(0) / delta_n of the cone's own profile, built from the
    point that maximizes the margin to all of its facets, so that the
    recursion drops to lower-dimensional faces.  A cone too thin for that
    point to clear volume_profile's active-halfspace tolerance counts as
    empty, as a set with such a margin does there.
    """
    if not active_normals:
        return 1.0
    if len(active_normals) == 1:
        return 0.5
    if len(active_normals) == 2:
        return _wedge_fraction(active_normals[0], active_normals[1])
    normals = np.array(active_normals)
    if dim == 2:
        return _planar_cone_fraction(normals)
    cone = PolyhedralSet(dim, tuple(Halfspace(a, 0.0) for a in normals))
    _, inside = _solve_max_margin(normals, np.zeros(len(normals)), box=1.0)
    violated, active = _classify_base_point(cone, inside, 1.0 + float(np.linalg.norm(inside)))
    if violated or active:
        return 0.0
    return volume_profile(cone, inside, np.inf).w_at_zero / unit_ball_volume(dim)


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------

def _interval_ends(P: PolyhedralSet) -> tuple[float, float]:
    """[a, b], the 1-d set P (a or b infinite when unbounded)."""
    a, b = -np.inf, np.inf
    for h in P.halfspaces:
        if h.normal[0] > 0:
            b = min(b, h.offset / h.normal[0])
        else:
            a = max(a, -h.offset / (-h.normal[0]))
    if a > b + 1e-12 * max(1.0, abs(a), abs(b)):
        raise GeometryError("1-d polyhedral set is empty")
    return a, b


def _interval_profile(a: float, b: float, t: float) -> RadialVolumeProfile:
    """Exact profile of the interval [a, b] about the base point t."""
    if a > b:
        a = b = 0.5 * (a + b)
    bps = sorted({x for x in (abs(t - a), abs(t - b)) if np.isfinite(x) and x > 0})
    return RadialVolumeProfile(
        dimension=1, breakpoints=np.asarray(bps),
        omega=(1.0 if a < t < b else (0.5 if a == t or b == t else 0.0)),
        interval=(a, b, t), reach=max(a - t, t - b, 0.0))


def _zero_profile(dimension: int) -> RadialVolumeProfile:
    return RadialVolumeProfile(dimension=dimension, breakpoints=np.zeros(0), omega=0.0,
                               reach=np.inf)


def _classify_base_point(P: PolyhedralSet, p0: np.ndarray, scale: float):
    """Slack signs of p0 against the halfspaces: (violated, active_normals)."""
    tol = 1e-9 * scale
    violated, active = False, []
    for h in P.halfspaces:
        s = h.slack(p0)
        if s < -tol:
            violated = True
        elif s <= tol:
            active.append(h.normal)
    return violated, active


def _integrate(faces, n: int, knots: list[float], onset: int | None) -> _ChebyshevPieces:
    """Adaptive Chebyshev quadrature of S(t) t^(-n-1) between the knots.

    Every segment [knots[k], knots[k+1]] starts as one piece in u, with
    t = knots[k] + u^2 (segment onset starts graded, see _ONSET_GRADING).
    All pending pieces are sampled together, so each round costs one
    vectorised sub-profile call per face.  A piece is halved for the next
    round while its last three coefficients exceed both RTOL times its
    largest one and the error its face terms carry in.
    """
    base = np.asarray(knots[:-1], dtype=float)
    lo = np.zeros_like(base)
    hi = np.sqrt(np.diff(knots))
    if onset is not None:
        cuts = hi[onset] * 0.5 ** np.arange(_ONSET_GRADING, -1, -1)
        base = np.insert(base, onset, np.full(_ONSET_GRADING, base[onset]))
        lo = np.insert(lo, onset + 1, cuts[:-1])
        hi = np.insert(hi, onset, cuts[:-1])
    depth = np.zeros(base.size, dtype=int)
    done: list[tuple] = []
    while base.size:
        if base.size > _MAX_PENDING:
            raise NumericalError(
                f"profile quadrature does not converge near r={base[0] + hi[0] ** 2:.6g} "
                f"({base.size} pieces pending)")
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * _CHEB_NODES
        t = base[:, None] + u * u
        s, s_err = _source(faces, np.repeat(base, _CHEB_POINTS), (u * u).ravel())
        weight = 2.0 * u * t ** (-n - 1.0)             # dt = 2u du
        coeffs = (s.reshape(t.shape) * weight) @ _CHEB_COEFFS.T
        trailing = np.max(np.abs(coeffs[:, -3:]), axis=1)
        # no point resolving the integrand below the error of its face terms
        noise = np.max(s_err.reshape(t.shape) * weight, axis=1)
        ok = ((trailing <= np.maximum(RTOL * np.max(np.abs(coeffs), axis=1), noise))
              | (depth >= _MAX_HALVINGS))
        # error estimate per unit half-width: interpolation plus face-term error
        err = 2.0 * (trailing + noise)
        done.append((base[ok], lo[ok], hi[ok], coeffs[ok], err[ok]))
        split = ~ok
        base, depth = np.repeat(base[split], 2), np.repeat(depth[split] + 1, 2)
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
    return _ChebyshevPieces(knots[-1], *(np.concatenate(parts) for parts in zip(*done)))


def _quadrature(terms, n: int, breakpoints, r_max: float, reach: float) -> _ChebyshevPieces:
    """Chebyshev pieces of I for the facets terms (some reached below r_max).

    The knots are the first facet distance, the breakpoints up to r_max and
    twice the last breakpoint, where the stored series takes over, or r_max
    if that comes first.
    """
    h0 = min(h for h, _, _ in terms)
    end = min(r_max, 2.0 * breakpoints[-1])
    knots = np.array([h0] + [b for b in breakpoints if h0 < b < end] + [end])
    # knots at most a factor 2 apart: a piece spanning many scales could pass
    # on the face noise at its far end with its near end unresolved
    for k in np.flatnonzero(knots[1:] > 2.0 * knots[:-1])[::-1]:
        m = math.ceil(math.log2(knots[k + 1] / knots[k]))
        knots = np.insert(knots, k + 1, np.geomspace(knots[k], knots[k + 1], m + 1)[1:-1])
    # the segment on which V rises from zero, if the base point is outside P
    onset = min(int(np.searchsorted(knots, reach * (1 + 1e-12), side="right")) - 1,
                len(knots) - 2)
    return _integrate(terms, n, knots, onset if 0 < reach < end else None)


def _planar_pieces(terms, onset: bool) -> _PlanarPieces:
    """_PlanarPieces of the facets terms, (h, eps, interval profile) each."""
    # a facet profile without an interval is a whole line (a pure cone)
    ends = np.array([sub.interval or (-math.inf, math.inf, 0.0) for _, _, sub in terms])
    h, eps = np.array([(h, eps) for h, eps, _ in terms]).T
    return _PlanarPieces(h, eps, ends[:, 0] - ends[:, 2], ends[:, 1] - ends[:, 2], onset)


def _profile_from_faces(n: int, omega: float, faces, r_max: float, reach: float,
                        scale: float) -> RadialVolumeProfile:
    """Profile of an n-dimensional set from its genuine facets' data.

    faces lists (h, eps, sub) per facet: the distance from the base point to
    the facet's hyperplane, the sign of the base point's side and the facet's
    own profile about the foot point.  Facets closer than 1e-12 * scale enter
    only through their breakpoints and reach.  reach is 0 when the base point
    lies in the set and infinite otherwise; the nearest point of the set then
    lies on a facet.
    """
    breakpoints: list[float] = []
    terms = []
    for h, eps, sub in faces:
        if h > 1e-12 * scale:
            breakpoints.append(h)
            terms.append((h, float(eps), sub))
        breakpoints.extend(math.sqrt(h * h + b * b) for b in sub.breakpoints)
        reach = min(reach, math.hypot(h, sub.reach))

    merged: list[float] = []
    for b in sorted(breakpoints):
        if not merged or b - merged[-1] > 1e-12 * scale:
            merged.append(b)

    pieces = None
    if min((h for h, _, _ in terms), default=np.inf) < r_max:
        pieces = (_planar_pieces(terms, omega == 0.0) if n == 2 else
                  _quadrature(terms, n, merged, r_max, reach))
    return RadialVolumeProfile(dimension=n, breakpoints=np.asarray(merged), omega=omega,
                               pieces=pieces, faces=terms, r_max=r_max, reach=reach)


def volume_profile(P: PolyhedralSet, p0, r_max: float) -> RadialVolumeProfile:
    """Build V(r) for the truncated polytope P intersect B(p0, r) on [0, r_max].

    r_max may be infinite.  Face profiles are built recursively one dimension
    down (exact interval overlap at the base) and cover every radius.  Below
    the first positive face distance V is the exact cone formula; beyond it,
    a planar set has its closed form, and in higher dimensions the
    integrating-factor quadrature runs between breakpoints up to twice the
    last one, and the profile's stored series of W beyond.
    Raises GeometryError for infeasible P.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (P.dimension,):
        raise InputError(f"base point shape {p0.shape} does not match E^{P.dimension}")
    if not r_max > 0:
        raise InputError("r_max must be positive")
    if P.dimension == 1:
        return _interval_profile(*_interval_ends(P), float(p0[0]))

    scale = max(P.scale(), 1.0 + float(np.linalg.norm(p0)))
    violated, active = _classify_base_point(P, p0, scale)
    if violated:
        margin = P.feasibility_margin()
        if margin < -1e-9 * scale:
            raise GeometryError("polyhedral set is empty (infeasible halfspace system)")
        if margin <= 1e-9 * scale:
            return _zero_profile(P.dimension)
        omega = 0.0
    else:
        omega = _solid_angle_fraction(active, P.dimension)
    faces = [(f.h, f.epsilon, volume_profile(f.induced_face, np.zeros(P.dimension - 1), np.inf))
             for f in face_data(P, p0)]
    return _profile_from_faces(P.dimension, omega, faces, r_max,
                               np.inf if violated else 0.0, scale)


# ---------------------------------------------------------------------------
# radius grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusGrid:
    """Geometric radius grid, for threshold scans and `--r-grid` radius scans."""

    r_min: float
    r_max: float
    count: int = 32

    def radii(self) -> np.ndarray:
        if not (0 < self.r_min < self.r_max < math.inf) or self.count < 2:
            raise InputError("radius grid needs finite 0 < r_min < r_max and count >= 2")
        return np.geomspace(self.r_min, self.r_max, self.count)


# Not called here (see asymptotics.laurent_fit): bench/tracer.py rebinds this
# module attribute, so it stays importable from this module.
def fit_radial_powers(evaluate, n: int, terms: int, window: RadiusGrid,
                      cond_bound: float = 1e8):
    """Least squares of V(r) against a_n r^n + ... + a_{n-terms+1} r^{n-terms+1}.

    evaluate maps radii to volumes.  V(r)/r^n is regressed on (r_min/r)^k,
    whose condition depends on the window's span only, and the coefficients
    are rescaled by r_min^k.  Returns (coefficients descending by power, rms
    relative residual, condition estimate of the scaled design matrix).
    """
    radii = window.radii()
    y = np.asarray(evaluate(radii), dtype=float) / radii ** n
    powers = np.arange(terms)
    X = (window.r_min / radii[:, None]) ** powers
    cond = float(np.linalg.cond(X))
    if cond > cond_bound:
        raise NumericalError(
            f"power fit ill-conditioned (cond {cond:.2e}); widen the window")
    scaled, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ scaled - y) ** 2)))
    return scaled * window.r_min ** powers, resid, cond


# ---------------------------------------------------------------------------
# the complementary-halfspace cancellation check
# ---------------------------------------------------------------------------

def check_ww_lemma(halfspaces, p0) -> float:
    """Defect |W'_P(0) + W'_Pbar(0)| for P and its complementary-halfspace set.

    Requires k <= n halfspaces in general position (linearly independent
    normals).  The defect is analytically zero; the returned number is the
    rounding and quadrature error of the two exact W'(0) sums.
    """
    hs = tuple(halfspaces)
    if not hs:
        return 0.0
    p0 = np.asarray(p0, dtype=float)
    n, k = hs[0].dimension, len(hs)
    if k > n:
        raise GeometryError(f"need k <= n halfspaces, got k={k} in E^{n}")
    normals = np.array([h.normal for h in hs])
    if np.linalg.matrix_rank(normals, tol=1e-9) < k:
        raise GeometryError("halfspaces are not in general position "
                            "(normals linearly dependent)")
    P = PolyhedralSet(dimension=n, halfspaces=hs)
    Pbar = PolyhedralSet(dimension=n, halfspaces=tuple(h.flipped() for h in hs))
    return abs(sum(volume_profile(S, p0, np.inf).taylor(1)[1] for S in (P, Pbar)))


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def mc_truncated_volume(P: PolyhedralSet, p0, r: float, samples: int,
                        seed: int) -> tuple[float, float]:
    """Hit-or-miss volume of P intersect B(p0, r): (estimate, stderr)."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    p0 = np.asarray(p0, dtype=float)
    n = P.dimension
    ball = unit_ball_volume(n) * r ** n
    A, b = P.constraint_arrays()            # no rows: every sample hits
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, samples, 500_000):
        m = min(500_000, samples - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True) + 1e-300
        x = p0 + r * (rng.random(m) ** (1.0 / n))[:, None] * g
        hits += int(np.count_nonzero(np.all(x @ A.T <= b, axis=1)))
    p = hits / samples
    return ball * p, ball * math.sqrt(max(p * (1 - p), 0.0) / samples)

