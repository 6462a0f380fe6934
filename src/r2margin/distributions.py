"""Central F distribution built from first principles.

The inference layer evaluates the F CDF at real-valued (fractional)
degrees of freedom, once per p-value and once per step of the confidence
bound's root search, so this module implements the classical chain

    regularized incomplete beta -> F CDF -> F quantile

directly.  The incomplete beta uses the continued-fraction expansion
(modified Lentz recurrence, with the usual series/fraction pivot at
x = (a+1)/(a+b+2)) on top of the platform's ``math.lgamma``; the quantile
inverts the CDF by a root search over log x on the log-odds scale.
``_root`` (Brent's bracketing method) is the one root search of the
package and ``_logit`` its log-odds scale.  ``_seeded_root`` starts it next
to the root of a cheap approximation; the quantile and the confidence bound
in ``inference`` both take that approximation from ``_paulson_logit``,
Paulson's closed-form normal approximation to the F CDF.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, _check_finite, _check_open_unit

__all__ = [
    "f_cdf",
    "f_quantile",
    "reg_inc_beta",
]

# Continued-fraction controls.  The fraction takes the most terms just
# either side of its series switch; there the p-value's I_x(v/2, (N-K-1)/2)
# needs at most 88 terms at N = 1e4, 444 at 1e6, 887 at 1e7 and 4019 at
# 1e9 (K = 1-10, margins 0.01-0.95), and random shapes up to 1e9 under
# 4700.  The cap is hang protection only: reaching it (about 0.1 s of Python
# on a 2-CPU Xeon) raises ConvergenceError.
_BETA_MAX_ITER = 100_000
_BETA_EPS = 1e-14
_LENTZ_TINY = 1e-300

# The quantile's search bracket and the CDF error it accepts at its answer.
_QUANTILE_LO = 1e-300
_QUANTILE_HI = 1e300
_QUANTILE_CDF_TOL = 1e-10

# Bracket width at which the search for the approximation's root stops, and
# the half-width, as a share of the bracket, of the central difference
# that takes the approximation's slope there.
_GUESS_WIDTH = 1e-7
_SLOPE_SHARE = 1e-6


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + coeff / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + coeff / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _BETA_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_BETA_MAX_ITER} terms (a={a!r}, b={b!r}, x={x!r})"
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Shape parameters, both > 0.
    x : float
        Upper integration limit, in [0, 1].

    Returns
    -------
    float
        P(B <= x) for B ~ Beta(a, b); monotone non-decreasing in x, with
        I_0 = 0 and I_1 = 1.
    """
    a = _check_finite("a", a, True)
    b = _check_finite("b", b, True)
    x = _check_finite("x", x)
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    try:
        front = math.exp(ln_front)
    except OverflowError:
        raise ConvergenceError(
            f"the incomplete-beta prefactor is beyond the float range "
            f"(a={a!r}, b={b!r}, x={x!r})"
        ) from None
    # The fraction converges fastest below the pivot; above it, evaluate the
    # mirrored fraction and use I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF at ``x`` of the central F distribution with ``d1`` and ``d2``
    degrees of freedom.

    Both degrees of freedom are real and at least 1e-323, the least double
    whose half, a shape of the incomplete beta, is > 0; fractional values
    are routine here, since the test's numerator degrees of freedom come out
    of a data-dependent approximation.  Zero for x <= 0; elsewhere computed
    through the incomplete beta via the substitution t = d1*x / (d1*x + d2),
    and one where d1*x overflows.
    """
    x = _check_finite("x", x)
    d1 = _check_finite("d1", d1, True)
    d2 = _check_finite("d2", d2, True)
    for name, d in (("d1", d1), ("d2", d2)):
        if 0.5 * d == 0.0:
            raise DomainError(
                f"{name} must be >= 1e-323, as half of it underflows to 0, got {d!r}"
            )
    if x <= 0.0:
        return 0.0
    scaled = d1 * x
    if math.isinf(scaled):
        return 1.0
    t = scaled / (scaled + d2)
    return reg_inc_beta(0.5 * d1, 0.5 * d2, t)


def _logit(p: float) -> float:
    """log(p / (1 - p)), with p <= 0 sent to -745 and p >= 1 to 37.

    Those two values lie just past the logits of the smallest positive
    double (-744.4) and of the largest double below 1 (36.7), so the map
    stays monotone and nearly continuous where a CDF rounds to 0 or 1, and a
    root search can interpolate through it.
    """
    if p <= 0.0:
        return -745.0
    if p >= 1.0:
        return 37.0
    return math.log(p) - math.log1p(-p)


def _paulson_logit(f: float, d1: float, d2: float) -> float:
    """Log-odds of Paulson's closed-form approximation to ``f_cdf(f, d1, d2)``.

    The cube root of an F(d1, d2) variate is close to normal (Paulson, E.
    1942, "An approximate normalization of the analysis of variance
    distribution", Ann. Math. Statist. 13: 233-235): with a1 = 2/(9 d1) and
    a2 = 2/(9 d2), w = [(1 - a2) f^(1/3) - (1 - a1)] / sqrt(a1 + a2 f^(2/3))
    is close to standard normal, and the CDF about erfc(-w/sqrt(2))/2.  It
    costs no incomplete beta but only guides a root search: it is worst at
    few degrees of freedom and in the far tails.
    """
    a1, a2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
    cube = f ** (1.0 / 3.0)
    w = ((1.0 - a2) * cube - (1.0 - a1)) / math.sqrt(a1 + a2 * cube * cube)
    return _logit(0.5 * math.erfc(-w / math.sqrt(2.0)))


def _root(excess, lo, hi, width, excess_lo, excess_hi) -> tuple[float, int]:
    """Brent's bracketing search for the root of an increasing ``excess``.

    ``excess_lo`` < 0 <= ``excess_hi`` are the values (or stand-ins of the
    right sign) at ``lo`` and ``hi``, which are never evaluated.  Each step
    evaluates one point strictly inside the sign-change bracket, chosen by
    inverse quadratic or linear interpolation when that shrinks the bracket
    fast enough and by bisection otherwise (Brent 1973, ch. 4); the first
    step interpolates between the two end values.  Where a stand-in makes
    that interpolation poor, the bracket shrinks too slowly and the steps
    that follow bisect.  A point with ``excess`` > 0 (or NaN) closes the
    bracket from above and one with ``excess`` < 0 from below.  The search
    stops once the bracket is no wider than ``width`` or a step no longer
    lands strictly inside it, and returns the midpoint of that bracket; a
    point with ``excess`` == 0 is returned as it is.  The second value
    returned is the number of ``excess`` calls.
    """
    # b is the best point so far, c the other end of the bracket and a the
    # previous b; d is the step just taken and e the one before it.
    a, fa, b, fb = lo, excess_lo, hi, excess_hi
    c, fc = a, fa
    d = e = hi - lo
    calls = 0
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        # The shortest step: half the width, and never below one float at b.
        tol = max(0.5 * width, math.ulp(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            break
        # a NaN value bisects too: it says nothing about where the root is
        if abs(e) < tol or not abs(fb) < abs(fa):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        x = b + (d if abs(d) > tol else math.copysign(tol, m))
        if not min(b, c) < x < max(b, c):
            break
        a, fa = b, fb
        b, fb = x, excess(x)
        calls += 1
        if fb == 0.0:
            return b, calls
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
    return 0.5 * (b + c), calls


def _guess(approx, lo, hi, excess_lo, excess_hi) -> tuple[float, float]:
    """Root of ``approx`` in [lo, hi] to the width 1e-7, and the slope of
    ``approx`` there by central difference, NaN when the root is too close
    to either end to take it.  The ends are handled as in ``_root``."""
    x, _ = _root(approx, lo, hi, _GUESS_WIDTH, excess_lo, excess_hi)
    step = _SLOPE_SHARE * (hi - lo)
    if not lo < x - step < x + step < hi:
        return x, math.nan
    return x, (approx(x + step) - approx(x - step)) / (2.0 * step)


def _seeded_root(excess, approx, lo, hi, width, excess_lo, excess_hi) -> tuple[float, int]:
    """``_root``'s search and count, started next to the root of ``approx``,
    a cheap approximation to ``excess``.

    ``excess`` is evaluated at that root and then one Newton step further,
    taken with the approximation's slope; each point strictly inside what
    is left of the bracket replaces the end on its side.  ``_root`` then
    searches what is left of the bracket, all of it when the guess is NaN
    or not strictly inside.
    """
    x, slope = _guess(approx, lo, hi, excess_lo, excess_hi)
    calls = 0
    while calls < 2 and lo < x < hi:
        fx = excess(x)
        calls += 1
        if fx == 0.0:
            return x, calls
        if fx < 0.0:
            lo, excess_lo = x, fx
        else:
            hi, excess_hi = x, fx
        if not slope > 0.0:
            break
        x -= fx / slope
    root, more = _root(excess, lo, hi, width, excess_lo, excess_hi)
    return root, calls + more


def f_quantile(prob: float, d1: float, d2: float) -> float:
    """Lower-tail quantile: the x at which ``f_cdf(x, d1, d2) == prob``.

    Solves logit(f_cdf(e^u)) = logit(prob) for u = log x by
    ``_seeded_root`` over the fixed bracket [1e-300, 1e300], down to the
    float resolution of log x, started from the root of Paulson's
    approximation.  Raises ConvergenceError when the root lies outside that
    bracket, or when the CDF at the answer misses ``prob`` by more than
    1e-10 (near 1 the CDF can be too coarse in floats to be inverted).
    """
    prob = _check_open_unit("prob", prob)
    d1 = _check_finite("d1", d1, True)
    d2 = _check_finite("d2", d2, True)
    context = f"(prob={prob!r}, d1={d1!r}, d2={d2!r})"
    cdf_lo, cdf_hi = f_cdf(_QUANTILE_LO, d1, d2), f_cdf(_QUANTILE_HI, d1, d2)
    if not cdf_lo < prob < cdf_hi:
        raise ConvergenceError(f"quantile lies outside [1e-300, 1e300] {context}")

    target = _logit(prob)
    log_x, _ = _seeded_root(
        lambda u: _logit(f_cdf(math.exp(u), d1, d2)) - target,
        lambda u: _paulson_logit(math.exp(u), d1, d2) - target,
        math.log(_QUANTILE_LO), math.log(_QUANTILE_HI), math.ulp(1.0),
        _logit(cdf_lo) - target, _logit(cdf_hi) - target,
    )
    x = math.exp(log_x)
    if abs(f_cdf(x, d1, d2) - prob) > _QUANTILE_CDF_TOL:
        raise ConvergenceError(f"quantile search ended off the root {context}")
    return x
