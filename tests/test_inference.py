"""Tests for the confidence bound and the non-inferiority p-value.

The two canonical cases are pinned as golden values to 1e-6.  Randomized
grids check the structural identities the construction must satisfy: the
closed-form p-value equals the original fixed-point construction, the
p-value at the bound recovers the bound's own tail probability (duality),
the bound's search from an approximate root ends where the search over the
whole bracket does, and both quantities are monotone in their arguments.
The critical R2 is checked against scipy's F quantile and against the
p-value's own crossing.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from r2margin import distributions, inference
from r2margin.distributions import _logit
from r2margin.errors import ConvergenceError, DomainError
from r2margin.inference import TestInput, critical_r2, noninferiority_pvalue, upper_ci_p2
from r2margin.montecarlo import default_delta_grid, paper_grid

from oracles import (
    GUESS_CASES,
    ci_upper_bisection,
    critical_r2_scipy,
    guessing,
    pvalue_fixed_point,
    upper_raw_full_bracket,
)

GOLDEN_CI = 0.1069415
GOLDEN_P = 0.02710537


def margin_f_stat(r2, n, k, delta):
    resid = n - k - 1
    return (resid * r2 * (delta - 1.0)) / ((r2 - 1.0) * (delta * resid + k))


def assert_matches_full_bracket(r2, n, k, alpha, halve_alpha):
    """The seeded bound against the full-bracket search, to 1e-11.

    Both searches end on a sign change of logit(prob) - logit(p(z)), so
    they can end further apart only where the package's p(z) is not
    monotone (its F CDF loses digits at large N).  Such a gap must then be
    witnessed by two evaluated points between the two roots, z1 < z2, with
    p(z1) < prob < p(z2).
    """
    observed = TestInput(r2=r2, n=n, k=k)
    prob = 0.5 * alpha if halve_alpha else alpha
    seen = []
    tail_at = inference._tail_at

    def recording(input, z):
        result = tail_at(input, z)
        seen.append((z, result[0]))
        return result

    with mock.patch.object(inference, "_tail_at", recording):
        bound = upper_ci_p2(observed, alpha, halve_alpha=halve_alpha)
        want = upper_raw_full_bracket(observed, prob)
    assert bound.iterations <= 64
    if abs(bound.upper_raw - want) <= 1e-11:
        return
    low = min(bound.upper_raw, want) - 1e-12
    high = max(bound.upper_raw, want) + 1e-12
    target = _logit(prob)
    below_seen = False
    for z, p in sorted(point for point in seen if low <= point[0] <= high):
        if below_seen and _logit(p) > target:
            return
        below_seen = below_seen or _logit(p) < target
    raise AssertionError(f"bound {bound.upper_raw!r} != full bracket {want!r}, p monotone")


@st.composite
def bound_inputs(draw):
    """(r2, n, k, alpha, halve_alpha) over the bound's whole domain up to
    N = 1e9: N log-uniform from K + 2, r2 at its edges or log-uniform on
    [1e-9, 0.999], alpha log-uniform on [1e-300, 0.999] or uniform."""
    k = draw(st.integers(1, 10))
    n = max(k + 2, int(10.0 ** draw(st.floats(math.log10(k + 2), 9.0))))
    r2 = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-300, 1.0 - 1e-12]),
            st.floats(-9.0, math.log10(0.999)).map(lambda e: 10.0**e),
        )
    )
    alpha = draw(
        st.one_of(
            st.floats(-300.0, math.log10(0.999)).map(lambda e: 10.0**e),
            st.floats(1e-4, 0.999),
        )
    )
    return r2, n, k, alpha, draw(st.booleans())


class TestTestInput:
    def test_residual_df(self):
        assert TestInput(r2=0.1, n=100, k=3).residual_df == 96

    @pytest.mark.parametrize(
        "r2,n,k",
        [
            (-0.1, 100, 3),
            (1.0, 100, 3),
            (1.5, 100, 3),
            (math.nan, 100, 3),
            (0.1, 4, 3),  # n < k + 2
            (0.1, 100, 0),
            (0.1, 100.0, 3),  # non-integer n
            (0.1, True, 3),
        ],
    )
    def test_rejects_invalid_inputs(self, r2, n, k):
        with pytest.raises(DomainError):
            TestInput(r2=r2, n=n, k=k)

    def test_accepts_numpy_integers(self):
        observed = TestInput(r2=0.1, n=np.int64(100), k=np.int32(3))
        assert observed.n == 100 and observed.k == 3


class TestUpperCiP2:
    def test_golden_value(self):
        bound = upper_ci_p2(TestInput(r2=0.085, n=1250, k=6), 0.10)
        assert abs(bound.upper - GOLDEN_CI) <= 1e-6
        assert bound.level == pytest.approx(0.90)
        assert bound.v_final > 0.0
        assert not bound.clamped

    @pytest.mark.parametrize("halve_alpha", [True, False])
    @pytest.mark.parametrize("alpha", [1e-300, 0.05, 0.999])
    @pytest.mark.parametrize("n,k", [(4, 1), (100, 3), (10**7, 10)])
    def test_zero_r2_clamps_to_zero(self, n, k, alpha, halve_alpha):
        bound = upper_ci_p2(TestInput(r2=0.0, n=n, k=k), alpha, halve_alpha=halve_alpha)
        # p(z) is 0 above -k / (n - k - 1), so that end is the root, in
        # closed form
        assert bound.upper_raw == -k / (n - k - 1)
        assert bound.iterations == 0
        assert bound.upper == 0.0
        assert bound.clamped
        assert bound.v_final == k

    @pytest.mark.parametrize(
        "r2,n,k",
        [
            (0.3, 50, 2),
            # a plain endpoint iteration falls into a two-point cycle here
            (0.000569773152371722, 1000, 2),
            (0.5, 100_000, 3),
            (0.1, 1_000_000, 5),
        ],
    )
    def test_matches_bisection_oracle(self, r2, n, k):
        bound = upper_ci_p2(TestInput(r2=r2, n=n, k=k), 0.05)
        assert abs(bound.upper - ci_upper_bisection(r2, n, k, 0.05)) <= 1e-7

    def test_tiny_r2_cycling_input_still_satisfies_duality(self):
        # At this input a plain endpoint iteration falls into a two-point
        # cycle; the bound must still come back and invert correctly.
        observed = TestInput(r2=0.000569773152371722, n=1000, k=2)
        bound = upper_ci_p2(observed, 0.05)
        assert 0.0 < bound.upper < 1.0
        p = noninferiority_pvalue(observed, bound.upper).p_value
        assert abs(p - 0.025) <= 1e-6

    def test_full_alpha_flag_equals_doubled_halved_alpha(self):
        observed = TestInput(r2=0.2, n=200, k=4)
        literal = upper_ci_p2(observed, 0.05, halve_alpha=False)
        halved = upper_ci_p2(observed, 0.10)
        assert literal.upper == halved.upper

    def test_bound_always_inside_parameter_space(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(20, 3000))
            k = int(rng.integers(1, 8))
            observed = TestInput(r2=float(rng.uniform(0.0, 0.9)), n=n, k=k)
            bound = upper_ci_p2(observed, float(rng.choice([0.02, 0.05, 0.1, 0.2])))
            assert 0.0 <= bound.upper < 1.0
            assert bound.v_final > 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, math.nan])
    def test_rejects_invalid_alpha(self, alpha):
        with pytest.raises(DomainError):
            upper_ci_p2(TestInput(r2=0.1, n=100, k=2), alpha)

    @pytest.mark.parametrize(
        "r2,n,k",
        [
            (0.085, 1250, 6),
            (0.0, 100, 3),
            (0.000569773152371722, 1000, 2),
            (0.99, 10, 8),  # one residual degree of freedom: widest bracket
            (0.1, 1_000_000, 5),
        ],
    )
    def test_bisection_steps_stay_within_budget(self, r2, n, k):
        assert upper_ci_p2(TestInput(r2=r2, n=n, k=k), 0.05).iterations <= 64

    def test_mean_root_steps_over_inference_like_inputs(self):
        # N log-uniform on [60, 1e7], K on 1..10, R2 below min(0.5, 1e5 / N)
        # and tiny (1e-7..1e-3) a fifth of the time.
        rng = np.random.default_rng(12)
        steps = []
        for _ in range(200):
            n = int(10.0 ** rng.uniform(math.log10(60.0), 7.0))
            k = int(rng.integers(1, 11))
            top = math.log10(min(0.5, 1e5 / n))
            low, high = (-7.0, -3.0) if rng.random() < 0.2 else (-3.0, top)
            observed = TestInput(r2=10.0 ** rng.uniform(low, high), n=n, k=k)
            steps.append(upper_ci_p2(observed, 0.05).iterations)
        assert np.mean(steps) <= 5

    @settings(max_examples=500, deadline=None)
    @given(case=bound_inputs())
    def test_seeded_search_matches_full_bracket(self, case):
        assert_matches_full_bracket(*case)

    @pytest.mark.parametrize("halve_alpha", [True, False])
    @pytest.mark.parametrize(
        "r2,n,k,alpha",
        [
            (0.1, 10**9, 2, 0.05),
            (1e-300, 100, 2, 0.05),
            (0.5, 100, 2, 1e-300),
            (1.0 - 1e-12, 10**6, 3, 0.05),
            (0.3, 4, 2, 0.999),
            (0.99, 10, 8, 0.05),
            (1e-9, 10**7, 10, 0.05),
        ],
    )
    def test_seeded_search_matches_full_bracket_at_edges(self, r2, n, k, alpha, halve_alpha):
        assert_matches_full_bracket(r2, n, k, alpha, halve_alpha)

    @pytest.mark.parametrize("r2,n,k", [(0.085, 1250, 6), (0.3, 4, 2), (1.0 - 1e-12, 10**6, 3)])
    @pytest.mark.parametrize("guess,slope", GUESS_CASES)
    def test_any_guess_falls_back_to_the_same_bound(self, monkeypatch, r2, n, k, guess, slope):
        observed = TestInput(r2=r2, n=n, k=k)
        want = upper_raw_full_bracket(observed, 0.025)
        monkeypatch.setattr(distributions, "_guess", guessing(guess, slope, want))
        bound = upper_ci_p2(observed, 0.05)
        assert bound.iterations <= 64
        if guess == "root":
            assert abs(bound.upper_raw - want) <= 1e-11
        else:
            # a guess not strictly inside the bracket leaves the full search
            assert bound.upper_raw == want


class TestNonInferiorityPvalue:
    def test_golden_value(self):
        result = noninferiority_pvalue(TestInput(r2=0.075, n=1250, k=6), 0.10)
        assert abs(result.p_value - GOLDEN_P) <= 1e-6
        assert result.f_stat == pytest.approx(margin_f_stat(0.075, 1250, 6, 0.10))

    def test_zero_r2_short_circuits(self):
        result = noninferiority_pvalue(TestInput(r2=0.0, n=100, k=2), 0.05)
        assert result.p_value == 0.0
        assert result.f_stat == 0.0
        # the degrees of freedom the test uses, v(delta), not k
        assert result.v_final == pytest.approx((97 * 0.05 + 2) ** 2 / (99 - 97 * 0.95**2))

    def test_matches_fixed_point_construction(self):
        # The margin's F statistic inverts the variance-fraction update, so
        # the fixed point is the margin itself and the closed form must
        # reproduce the iterated p-value.
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(30, 10_001))
            k = int(rng.integers(1, 11))
            r2 = float(rng.uniform(0.005, 0.5))
            delta = float(rng.uniform(0.01, 0.9))
            expected, fixed_point = pvalue_fixed_point(r2, n, k, delta)
            assert abs(fixed_point - delta) <= 1e-12
            result = noninferiority_pvalue(TestInput(r2=r2, n=n, k=k), delta)
            assert abs(result.p_value - expected) <= 1e-9
            assert result.v_final > 0.0

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.2, -0.1, math.nan])
    def test_rejects_out_of_range_margin(self, delta):
        with pytest.raises(DomainError):
            noninferiority_pvalue(TestInput(r2=0.1, n=100, k=2), delta)

    def test_duality_with_confidence_bound(self):
        # The p-value evaluated at the converged upper bound must recover
        # the bound's own tail probability alpha/2.
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 60:
            n = int(rng.integers(25, 5000))
            k = int(rng.integers(1, 9))
            observed = TestInput(r2=float(rng.uniform(0.02, 0.6)), n=n, k=k)
            alpha = float(rng.choice([0.02, 0.05, 0.10, 0.20]))
            bound = upper_ci_p2(observed, alpha)
            if bound.clamped:
                continue
            p = noninferiority_pvalue(observed, bound.upper).p_value
            assert abs(p - alpha / 2.0) <= 1e-6
            checked += 1

    def test_duality_at_rounded_golden_bound(self):
        result = noninferiority_pvalue(TestInput(r2=0.085, n=1250, k=6), GOLDEN_CI)
        assert abs(result.p_value - 0.05) <= 1e-4

    def test_monotone_in_margin(self):
        observed = TestInput(r2=0.07, n=800, k=3)
        deltas = np.linspace(0.02, 0.5, 25)
        p_values = [noninferiority_pvalue(observed, float(d)).p_value for d in deltas]
        assert all(p1 >= p2 for p1, p2 in zip(p_values, p_values[1:]))

    def test_monotone_in_r2(self):
        p_values = [
            noninferiority_pvalue(TestInput(r2=float(r2), n=400, k=2), 0.10).p_value
            for r2 in np.linspace(0.0, 0.6, 20)
        ]
        assert all(p2 >= p1 for p1, p2 in zip(p_values, p_values[1:]))

    def test_outputs_stay_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            observed = TestInput(
                r2=float(rng.uniform(0.0, 0.95)),
                n=int(rng.integers(10, 2000)),
                k=int(rng.integers(1, 7)),
            )
            result = noninferiority_pvalue(observed, float(rng.uniform(0.005, 0.95)))
            assert 0.0 <= result.p_value <= 1.0
            assert result.f_stat >= 0.0
            assert result.v_final > 0.0


# (n, k, delta, alpha) keys of the critical R2: the paper grid's; the large-N
# benchmark grid's plus the N = 1e6 keys of the Monte Carlo tests; and a
# sweep over the corners of the domain.
CRITICAL_R2_KEYS = {
    "paper-grid": sorted(
        {(s.n, s.k, d, 0.05) for s in paper_grid() for d in default_delta_grid()}
    ),
    "large-n-grid": [
        (n, k, d, 0.05)
        for n, k in [(10**5, 2), (3 * 10**5, 2), (3 * 10**5, 4), (10**6, 2), (10**6, 4)]
        for d in (0.005, 0.01, 0.02)
    ]
    + [(10**6, 2, d, 0.05) for d in (0.2, 0.3, 0.31)]
    + [(10**6, 4, 0.1974, 0.05)],
    "sweep": [
        (n, k, d, a)
        for n in (4, 60, 10**4, 10**6)
        for k in (1, 2, 10)
        for d in (0.001, 0.05, 0.5, 0.99)
        for a in (1e-6, 0.01, 0.05, 0.5, 0.99)
        if n >= k + 2
    ],
}


class TestCriticalR2:
    @pytest.mark.parametrize("keys", CRITICAL_R2_KEYS)
    def test_matches_scipy_oracle(self, keys):
        for key in CRITICAL_R2_KEYS[keys]:
            assert abs(critical_r2(*key) - critical_r2_scipy(*key)) <= 1e-11, key

    @pytest.mark.parametrize("keys", CRITICAL_R2_KEYS)
    def test_root_brackets_the_pvalue_crossing(self, keys):
        # The test rejects just below the root and not just above it.
        for n, k, delta, alpha in CRITICAL_R2_KEYS[keys]:
            root = critical_r2(n, k, delta, alpha)
            assert 0.0 < root < 1.0
            above = noninferiority_pvalue(TestInput(root + 1e-12, n, k), delta)
            assert alpha <= above.p_value, (n, k, delta, alpha)
            if root >= 1e-12:
                below = noninferiority_pvalue(TestInput(root - 1e-12, n, k), delta)
                assert below.p_value < alpha, (n, k, delta, alpha)

    def test_quantile_failure_at_n_1e10_names_the_quantile(self):
        # the quantile's range check evaluates the CDF at x = 1e300, where
        # d1 * x overflows; the search itself then ends off the root
        with pytest.raises(ConvergenceError, match="quantile search ended off the root"):
            critical_r2(10**10, 2, 0.05, 0.05)

    @pytest.mark.parametrize(
        "n,k,delta,alpha",
        [
            (100.0, 2, 0.05, 0.05),  # non-integer n
            (100, 2.0, 0.05, 0.05),  # non-integer k
            (100, True, 0.05, 0.05),
            (100, 0, 0.05, 0.05),  # k < 1
            (4, 3, 0.05, 0.05),  # n < k + 2
            (100, 2, 0.0, 0.05),
            (100, 2, 1.0, 0.05),
            (100, 2, math.nan, 0.05),
            (100, 2, 0.05, 0.0),
            (100, 2, 0.05, 1.0),
            (100, 2, 0.05, -0.5),
        ],
    )
    def test_rejects_invalid_inputs(self, n, k, delta, alpha):
        with pytest.raises(DomainError):
            critical_r2(n, k, delta, alpha)
