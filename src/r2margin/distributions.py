"""Central F distribution built from first principles, plus keyed normal streams.

The inference layer evaluates the F CDF at real-valued (fractional)
degrees of freedom, once per p-value and once per step of the confidence
bound's root search, so this module implements the classical chain

    ln_gamma -> regularized incomplete beta -> F CDF -> F quantile

directly.  The incomplete beta uses the continued-fraction expansion
(modified Lentz recurrence, with the usual series/fraction pivot at
x = (a+1)/(a+b+2)); the quantile is found by bracketing plus Newton
refinement that falls back to bisection whenever a step would leave the
bracket.

``RandomStream`` supplies standard normal variates from a counter-based
generator (Philox) keyed by hashing arbitrary labels, so independent,
reproducible substreams can be derived from tuples such as
(master_seed, scenario_id, replicate) without any sequential seeding
discipline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "FParams",
    "RandomStream",
    "f_cdf",
    "f_quantile",
    "ln_gamma",
    "reg_inc_beta",
]

# Continued-fraction controls.  The expansion converges in well under 100
# terms for degrees of freedom up to several thousand; the cap turns a
# pathological call into a diagnosable error instead of a hang.
_BETA_MAX_ITER = 300
_BETA_EPS = 1e-14
_LENTZ_TINY = 1e-300

_BRACKET_LO = 1e-10
_BRACKET_HI = 1e10
_BRACKET_GROWTH = 1e3
_MAX_BRACKET_EXPANSIONS = 80
_QUANTILE_CDF_TOL = 1e-12
_QUANTILE_MAX_REFINE = 200


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class FParams:
    """Degrees of freedom of a central F distribution.

    Both entries are real-valued and strictly positive.  Fractional values
    are routine here: the numerator degrees of freedom come out of a
    data-dependent approximation, not a count of anything.
    """

    d1: float
    d2: float

    def __post_init__(self):
        for name in ("d1", "d2"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0.0:
                raise DomainError(f"{name} must be > 0, got {value!r}")
            object.__setattr__(self, name, value)


def ln_gamma(x: float) -> float:
    """Natural logarithm of the gamma function for x > 0.

    A validating wrapper over the platform C implementation, which is
    accurate to a few ulp over the whole range used here.
    """
    x = _require_finite("x", x)
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


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
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    x = _require_finite("x", x)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be > 0, got a={a!r}, b={b!r}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        ln_gamma(a + b)
        - ln_gamma(a)
        - ln_gamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The fraction converges fastest below the pivot; above it, evaluate the
    # mirrored fraction and use I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


def f_cdf(x: float, params: FParams) -> float:
    """CDF of the central F distribution at ``x``.

    Zero for x <= 0; elsewhere computed through the incomplete beta via the
    substitution t = d1*x / (d1*x + d2).
    """
    x = _require_finite("x", x)
    if x <= 0.0:
        return 0.0
    t = params.d1 * x / (params.d1 * x + params.d2)
    return reg_inc_beta(0.5 * params.d1, 0.5 * params.d2, t)


def _f_log_pdf(x: float, params: FParams) -> float:
    # Density used only to drive Newton steps in the quantile search.
    a = 0.5 * params.d1
    b = 0.5 * params.d2
    ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
    return (
        a * math.log(params.d1 / params.d2)
        + (a - 1.0) * math.log(x)
        - (a + b) * math.log1p(params.d1 * x / params.d2)
        - ln_beta
    )


def f_quantile(prob: float, params: FParams) -> float:
    """Lower-tail quantile: the x at which ``f_cdf(x, params) == prob``.

    Brackets the root (geometrically expanding [1e-10, 1e10] if the initial
    bracket misses), collapses the bracket on a log scale, then polishes
    with Newton steps safeguarded by bisection.  Raises ConvergenceError if
    the refinement budget runs out, which signals pathological degrees of
    freedom rather than a tolerance problem.
    """
    prob = _require_finite("prob", prob)
    if not 0.0 < prob < 1.0:
        raise DomainError(f"prob must lie strictly inside (0, 1), got {prob!r}")

    lo = _BRACKET_LO
    hi = _BRACKET_HI
    expansions = 0
    while f_cdf(lo, params) >= prob:
        lo /= _BRACKET_GROWTH
        expansions += 1
        if expansions > _MAX_BRACKET_EXPANSIONS:
            raise ConvergenceError(
                f"could not bracket quantile below {_BRACKET_LO} "
                f"(prob={prob!r}, d1={params.d1!r}, d2={params.d2!r})"
            )
    while f_cdf(hi, params) <= prob:
        hi *= _BRACKET_GROWTH
        expansions += 1
        if expansions > _MAX_BRACKET_EXPANSIONS:
            raise ConvergenceError(
                f"could not bracket quantile above {_BRACKET_HI} "
                f"(prob={prob!r}, d1={params.d1!r}, d2={params.d2!r})"
            )

    # Collapse the bracket on a log scale first: each step halves the
    # exponent range, so a handful of evaluations leaves hi/lo < 2.
    while hi / lo > 2.0:
        mid = math.sqrt(lo * hi)
        if f_cdf(mid, params) < prob:
            lo = mid
        else:
            hi = mid

    x = 0.5 * (lo + hi)
    for _ in range(_QUANTILE_MAX_REFINE):
        err = f_cdf(x, params) - prob
        if abs(err) <= _QUANTILE_CDF_TOL:
            return x
        if err < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp(_f_log_pdf(x, params))
        if density > 0.0:
            candidate = x - err / density
            if lo < candidate < hi:
                x = candidate
                continue
        x = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(x, 1.0):
            # Bracket exhausted at float resolution; accept if within the
            # documented tolerance, otherwise report failure.
            if abs(f_cdf(x, params) - prob) <= 1e-10:
                return x
            break
    raise ConvergenceError(
        f"quantile refinement did not converge "
        f"(prob={prob!r}, d1={params.d1!r}, d2={params.d2!r})"
    )


class RandomStream:
    """Single-owner stream of standard normal variates.

    A stream is identified by an arbitrary tuple of key parts (integers,
    strings, ...).  The parts are hashed into a 128-bit Philox key, so
    streams built from the same parts replay the same sequence while streams
    with different parts are statistically independent.  No sequential
    seeding protocol is needed, which lets simulation replicates be keyed as
    (master_seed, scenario_id, replicate) and evaluated in any order.

    A stream must not be shared between concurrent workers; derive one
    stream per unit of work instead.
    """

    def __init__(self, *key_parts: object):
        if not key_parts:
            raise DomainError("RandomStream requires at least one key part")
        material = "\x1f".join(repr(part) for part in key_parts)
        digest = hashlib.blake2b(material.encode("utf-8"), digest_size=16).digest()
        key = np.array(
            [
                int.from_bytes(digest[:8], "little"),
                int.from_bytes(digest[8:], "little"),
            ],
            dtype=np.uint64,
        )
        self.key_parts = key_parts
        self._generator = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None):
        """Draw N(0, 1) variates; a plain float when ``size`` is None."""
        draw = self._generator.standard_normal(size)
        return float(draw) if size is None else draw

    def __repr__(self) -> str:
        return f"RandomStream{self.key_parts!r}"
