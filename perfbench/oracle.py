"""Correctness checks, run after the timed region.

The inference oracle is independent of r2margin's numerics: it evaluates the
closed form p(delta) = F_cdf(F(delta); v(delta), N-K-1) with scipy's F CDF and
finds the confidence bound as the root of p(z) = alpha/2 by vectorized
bisection.  The tolerances are looser than the seed's known F CDF error
(about 1e-9 at d2 = 1e7) and tighter than the 1e-6 perturbation the
self-test injects.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

import r2margin

TOL_P = 1e-7
TOL_BOUND = 1e-7
TOL_R2 = 1e-9
_PSQ_CEILING = 1.0 - 1e-12

# Golden values and the half-unit of their last printed digit.
GOLDEN_BOUND = (0.1069415, 5e-8)
GOLDEN_PVALUE = (0.02710537, 5e-9)


def golden() -> list[str]:
    problems = []
    bound = r2margin.upper_ci_p2(r2margin.TestInput(r2=0.085, n=1250, k=6), 0.10).upper
    if not abs(bound - GOLDEN_BOUND[0]) <= GOLDEN_BOUND[1]:
        problems.append(f"golden bound {bound!r} != {GOLDEN_BOUND[0]}")
    p = r2margin.noninferiority_pvalue(r2margin.TestInput(r2=0.075, n=1250, k=6), 0.10).p_value
    if not abs(p - GOLDEN_PVALUE[0]) <= GOLDEN_PVALUE[1]:
        problems.append(f"golden p-value {p!r} != {GOLDEN_PVALUE[0]}")
    return problems


def _dof(psq, n, k):
    psq = np.clip(psq, 0.0, _PSQ_CEILING)
    resid = n - k - 1
    return (resid * psq + k) ** 2 / (n - 1 - resid * (1.0 - psq) ** 2)


def pvalue(r2, n, k, delta):
    """Closed-form non-inferiority p-value, vectorized."""
    resid = n - k - 1
    f_stat = resid * r2 * (1.0 - delta) / ((1.0 - r2) * (delta * resid + k))
    return special.fdtr(_dof(delta, n, k), resid, f_stat)


def bound_root(r2, n, k, prob, steps: int = 80):
    """Raw confidence bound: the root of pvalue(z) = prob, by bisection on
    (-k/(n-k-1), 1), where the margin statistic runs from +inf to 0."""
    shape = np.shape(r2)
    lo = np.broadcast_to(-k / (n - k - 1) * (1.0 - 1e-9), shape).astype(float)
    hi = np.full(shape, _PSQ_CEILING)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = pvalue(r2, n, k, mid) > prob
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def check_inference(r2, n, k, delta, alpha, upper, upper_raw, clamped, p_value) -> dict[int, str]:
    """Check request results given as equal-length arrays, one entry per
    request; returns {request index: problem}."""
    p = p_value
    want_p = pvalue(r2, n, k, delta)
    want_raw = bound_root(r2, n, k, 0.5 * alpha)
    want_upper = np.clip(want_raw, 0.0, _PSQ_CEILING)
    problems = {}
    bad_p = ~(np.abs(p - want_p) <= TOL_P)
    bad_bound = ~(np.abs(upper - want_upper) <= TOL_BOUND) | ~(np.abs(upper_raw - want_raw) <= TOL_BOUND)
    bad_flag = (clamped != 0.0) != (upper != upper_raw)
    for i in np.flatnonzero(bad_p | bad_bound | bad_flag):
        problems[int(i)] = (
            f"r2={r2[i]:.17g} n={n[i]:.0f} k={k[i]:.0f} delta={delta[i]:.17g} alpha={alpha[i]:.17g}: "
            f"p={p[i]:.17g} (oracle {want_p[i]:.17g}), upper={upper[i]:.17g} raw={upper_raw[i]:.17g} "
            f"(oracle {want_raw[i]:.17g}), clamped={bool(clamped[i])}"
        )
    return problems


def grid_counts_problem(deltas, counts, rates, n_sims, skipped) -> str | None:
    """Rejection counts of one scenario must be well formed and never
    decrease as the margin grows (a larger margin is easier to reject)."""
    if list(deltas) != sorted(deltas):
        return "margins out of order"
    if any(not 0 <= c <= n_sims for c in counts) or not 0 <= skipped <= n_sims:
        return f"counts {counts} or skips {skipped} outside [0, {n_sims}]"
    if any(rate != c / n_sims for c, rate in zip(counts, rates)):
        return "rejection rates do not equal counts / n_sims"
    if any(b < a for a, b in zip(counts, counts[1:])):
        return f"counts decrease as the margin grows: {counts}"
    return None


def _parse_fit(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            fields[name] = value.strip()
    return fields


def fit_problem(x, y, delta, alpha, text) -> str | None:
    """Compare one ``fit`` report on covariates ``x`` and outcome ``y`` with
    least squares by SVD (numpy's ``lstsq``) and the inference oracle."""
    n, k = x.shape
    design = np.column_stack([np.ones(n), x])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    centered = y - y.mean()
    want_r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
    try:
        got = _parse_fit(text)
        got_n, got_k = int(got["n"]), int(got["k"])
        r2, upper, p = (float(got[name]) for name in ("r2", "ci_upper", "p_value"))
        decision = got["decision"]
    except (KeyError, ValueError) as exc:
        return f"unreadable fit report ({exc!r}): {text!r}"
    args = (np.array([r2]), n, k)
    want_upper = float(np.clip(bound_root(*args, 0.5 * alpha), 0.0, _PSQ_CEILING)[0])
    want_p = float(pvalue(*args, delta)[0])
    if (got_n, got_k) != (n, k):
        return f"fit reports n={got_n}, k={got_k}; data has n={n}, k={k}"
    if not abs(r2 - want_r2) <= TOL_R2:
        return f"r2 {r2!r} != least squares {want_r2!r}"
    if not abs(upper - want_upper) <= TOL_BOUND:
        return f"ci_upper {upper!r} != oracle {want_upper!r}"
    if not abs(p - want_p) <= TOL_P:
        return f"p_value {p!r} != oracle {want_p!r}"
    if decision.startswith("reject") != (p < alpha) or not math.isfinite(p):
        return f"decision {decision!r} disagrees with p={p!r}"
    return None
