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
package and ``_logit`` its log-odds scale.  ``_seeded_root`` starts it
from a cheap approximation's root, and again from that root once the
approximation is moved to agree with the search's first value.
``_tail_root`` takes those roots from Paulson's closed-form approximation
to the F CDF (``_paulson_quantile``) to solve a scaled F tail = prob, for
the quantile on u = log x and for the confidence bound in ``inference``
on u = -z.  ``f_cdf`` and ``f_quantile`` are the chain's only public
entries: ``f_cdf`` checks its arguments once and calls the unchecked
``_f_cdf``, which the search loops call directly, and ``_f_cdf`` calls the
incomplete beta, ``_reg_inc_beta``.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, _check_finite, _check_open_unit

__all__ = [
    "f_cdf",
    "f_quantile",
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

# The quantile's search bracket, the width on log x at which its search stops
# (closer in, the CDF's rounding and not the root sets the signs it sees),
# and the CDF error it accepts at its answer, absolute and as a share of the
# nearer tail (which refuses an end of the bracket held by a root past it).
_QUANTILE_LO = 1e-300
_QUANTILE_HI = 1e300
_QUANTILE_WIDTH = 4.0 * math.ulp(1.0)
_QUANTILE_CDF_TOL = 1e-10
_QUANTILE_CDF_SHARE = 1e-8
# Most secant steps toward the fixed point that seeds ``_tail_root``, and the
# gap to it at which they, or the search that takes over from them, stop.
_SEED_STEPS = 8
_SEED_GAP = 1e-9


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


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) = P(B <= x) for
    B ~ Beta(a, b), for shapes a, b > 0 and x in [0, 1] that the caller has
    checked; monotone non-decreasing in x, with I_0 = 0 and I_1 = 1."""
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
    return _f_cdf(x, _check_dof("d1", d1), _check_dof("d2", d2))


def _check_dof(name: str, d) -> float:
    """``d`` as degrees of freedom: a finite float whose half is > 0."""
    d = _check_finite(name, d, True)
    if 0.5 * d == 0.0:
        raise DomainError(f"{name} must be >= 1e-323, as half of it underflows to 0, got {d!r}")
    return d


def _f_cdf(x: float, d1: float, d2: float) -> float:
    """``f_cdf`` for a finite x and degrees of freedom already checked."""
    if x <= 0.0:
        return 0.0
    scaled = d1 * x
    if math.isinf(scaled):
        return 1.0
    t = scaled / (scaled + d2)
    return _reg_inc_beta(0.5 * d1, 0.5 * d2, t)


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


def _paulson_quantile(q: float, d1: float, d2: float) -> float:
    """The f at which Paulson's approximation to the F(d1, d2) CDF puts the
    normal quantile ``q``.

    The cube root of an F(d1, d2) variate is close to normal (Paulson, E.
    1942, "An approximate normalization of the analysis of variance
    distribution", Ann. Math. Statist. 13: 233-235): with a1 = 2/(9 d1) and
    a2 = 2/(9 d2), w = [(1 - a2) f^(1/3) - (1 - a1)] / sqrt(a1 + a2 f^(2/3))
    is close to standard normal.  Setting w = q, the cube root c of f solves
    a quadratic.  NaN where no c > 0 does, and where d1 or d2 is at most 2/9
    (no CDF there).  It costs no incomplete beta but only guides a root
    search: it is worst at few degrees of freedom and in the far tails.
    """
    a1, a2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
    # tested before ``disc``: at 1e-160 degrees of freedom and below,
    # (1 - a) ** 2 overflows, which a float ** raises as OverflowError
    if not (a1 < 1.0 and a2 < 1.0):
        return math.nan
    disc = a2 * (1.0 - a1) ** 2 + a1 * (1.0 - a2) ** 2 - q * q * a1 * a2
    if not disc >= 0.0:
        return math.nan
    half_b, curve = (1.0 - a1) * (1.0 - a2), (1.0 - a2) ** 2 - q * q * a2
    if q < 0.0:
        # the product of the roots over the other root: no 0/0 where the
        # quadratic's leading coefficient ``curve`` passes through 0
        c = ((1.0 - a1) ** 2 - q * q * a1) / (half_b - q * math.sqrt(disc))
    else:
        c = (half_b + q * math.sqrt(disc)) / curve if curve > 0.0 else math.nan
    return c * c * c if c > 0.0 else math.nan


def _normal_quantile(t: float) -> float:
    """Standard normal quantile at log-odds ``t``, the probability
    1 / (1 + e^-t): the rational start of Abramowitz and Stegun (1964)
    26.2.23, off by under 4.5e-4, refined by two Halley steps on
    ``math.erfc``.  For t > 0 it is minus the quantile at -t, so that the
    upper tail keeps its digits; NaN where the probability underflows."""
    if t > 0.0:
        return -_normal_quantile(-t)
    log_p = t - math.log1p(math.exp(t))
    p = math.exp(log_p)
    if p == 0.0:
        return math.nan
    r = math.sqrt(-2.0 * log_p)
    q = (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308))
    ) - r
    for _ in range(2):
        # (Phi(q) - p) / phi(q), with phi's exp(q^2/2) taken on p's log so
        # that it cannot overflow in the far tail
        u = (0.5 * math.erfc(-q / math.sqrt(2.0)) / p - 1.0) * math.exp(
            log_p + 0.5 * q * q + 0.5 * math.log(2.0 * math.pi)
        )
        q -= u / (1.0 + 0.5 * q * u)
    return q


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


def _seeded_root(excess, root_at, lo, hi, width, excess_lo, excess_hi) -> tuple[float, int]:
    """``_root``'s search and count, started from a cheap approximation to
    ``excess``: ``root_at(shift)`` is the root (or NaN) of that approximation
    plus ``shift``.

    ``excess`` is evaluated at ``root_at(0)`` and then at ``root_at(e)``,
    where e is the excess just seen, so that the moved approximation agrees
    with ``excess`` at the first point; each point strictly inside what is
    left of the bracket replaces the end on its side.  ``_root`` then
    searches what is left of the bracket, all of it when the first point is
    NaN or not strictly inside.
    """
    calls, shift = 0, 0.0
    while calls < 2:
        x = root_at(shift)
        if not lo < x < hi:
            break
        shift = excess(x)
        calls += 1
        if shift == 0.0:
            return x, calls
        if shift < 0.0:
            lo, excess_lo = x, shift
        else:
            hi, excess_hi = x, shift
    root, more = _root(excess, lo, hi, width, excess_lo, excess_hi)
    return root, calls + more


def _tail_root(tail, prob, u_of_f, v, d2, lo, hi, width, start) -> tuple[float, int]:
    """Root u over [lo, hi] of a rising tail(u) = F_cdf(F(u); v(u), d2) =
    ``prob``, and the ``tail`` calls spent, by ``_seeded_root`` on the
    log-odds from stand-ins for a tail of 0 and 1 at the ends.

    ``u_of_f`` inverts F.  Paulson's approximation moved by ``shift``
    log-odds has its root at the fixed point u = u_of_f(F_q(v(u))), F_q its
    quantile, which secant steps from ``start`` reach (in one, from any
    start, where v is constant).  Where they meet a u whose v(u) is too
    small for F_q to exist, ``_root`` finds it instead, taking NaN for a
    point above it.
    """
    target = _logit(prob)

    def root_at(shift):
        q = _normal_quantile(target - shift)

        def gap(u):
            return u_of_f(_paulson_quantile(q, v(u), d2)) - u

        u0, g0 = start, gap(start)
        u1 = u0 + g0
        for _ in range(_SEED_STEPS):
            g1 = gap(u1)
            if abs(g1) <= _SEED_GAP:
                return u1 + g1
            if math.isnan(g1) or g1 == g0:  # no secant through NaN or a flat pair
                break
            u0, g0, u1 = u1, g1, u1 - g1 * (u1 - u0) / (g1 - g0)
        return _root(lambda u: -gap(u), lo, hi, _SEED_GAP, -1.0, 1.0)[0]

    return _seeded_root(
        lambda u: _logit(tail(u)) - target, root_at,
        lo, hi, width, _logit(0.0) - target, _logit(1.0) - target,
    )


def f_quantile(prob: float, d1: float, d2: float) -> float:
    """Lower-tail quantile: the x at which ``f_cdf(x, d1, d2) == prob``.

    Solves f_cdf(e^u) = prob for u = log x by ``_tail_root`` over the fixed
    bracket [1e-300, 1e300], to a width of four ulps of 1 on log x.  Raises
    ConvergenceError when the CDF at the answer misses ``prob`` by more than
    1e-10 or 1e-8 of min(prob, 1 - prob), as it does when the root lies
    outside the bracket, and can near 1, where the CDF is too coarse.
    """
    prob = _check_open_unit("prob", prob)
    d1, d2 = _check_dof("d1", d1), _check_dof("d2", d2)
    log_x, _ = _tail_root(
        lambda u: _f_cdf(math.exp(u), d1, d2), prob,
        lambda f: math.log(f) if f > 0.0 else math.nan, lambda u: d1, d2,
        math.log(_QUANTILE_LO), math.log(_QUANTILE_HI), _QUANTILE_WIDTH, 0.0,
    )
    x = math.exp(log_x)
    tol = min(_QUANTILE_CDF_TOL, _QUANTILE_CDF_SHARE * min(prob, 1.0 - prob))
    if abs(_f_cdf(x, d1, d2) - prob) > tol:
        raise ConvergenceError(f"quantile search ended off the root ({prob=}, {d1=}, {d2=})")
    return x
