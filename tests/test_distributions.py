"""Tests for the special-function layer and keyed random streams.

Closed-form cases are asserted exactly; derived expected values were frozen
from the quadrature oracle in oracles.py before being compared against the
continued-fraction implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from r2margin import distributions
from r2margin.distributions import (
    _beta_cont_fraction,
    _logit,
    _normal_quantile,
    _paulson_quantile,
    _root,
    _seeded_root,
    f_cdf,
    f_quantile,
    reg_inc_beta,
)
from r2margin.errors import ConvergenceError, DomainError
from r2margin.inference import _v_from_psq

from oracles import GUESS_CASES, RandomStream, f_cdf_quadrature, guessing, quantile_full_bracket
from test_inference import CRITICAL_R2_KEYS

# Frozen from the quadrature oracle (and cross-checked at 40 digits).
F_CDF_AT_2P5_3_12 = 0.8908452876049937
F_QUANTILE_AT_05_6P3_1243 = 0.2840023371652665


class TestRegIncBeta:
    def test_endpoints_are_exact(self):
        assert reg_inc_beta(1.3, 2.7, 0.0) == 0.0
        assert reg_inc_beta(1.3, 2.7, 1.0) == 1.0

    def test_uniform_case_is_identity(self):
        for x in (0.05, 0.3, 0.5, 0.77, 0.999):
            assert math.isclose(reg_inc_beta(1.0, 1.0, x), x, abs_tol=1e-14)

    def test_beta_2_3_closed_form(self):
        # CDF of Beta(2, 3) is the polynomial 12*(x^2/2 - 2x^3/3 + x^4/4);
        # at x = 1/2 that is exactly 11/16.
        assert math.isclose(reg_inc_beta(2.0, 3.0, 0.5), 0.6875, abs_tol=1e-12)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = float(rng.uniform(0.2, 2500.0))
            b = float(rng.uniform(0.2, 2500.0))
            x = float(rng.uniform(0.0, 1.0))
            total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
            assert abs(total - 1.0) <= 1e-12

    def test_monotone_in_x(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = float(rng.uniform(0.3, 50.0))
            b = float(rng.uniform(0.3, 50.0))
            xs = np.sort(rng.uniform(0.0, 1.0, size=20))
            values = [reg_inc_beta(a, b, float(x)) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_large_n_scan_next_to_the_series_switch(self):
        # The p-value's I_x(v(delta)/2, (N-K-1)/2) where its continued
        # fraction takes the most terms: it must converge within the cap up
        # to N = 1e9.  Against betainc the prefactor's lgamma cancellation
        # grows with N, so 1e-9 is asserted up to N = 1e6.
        for n in (10**4, 10**5, 10**6, 10**7, 10**8, 10**9):
            for k in (1, 2, 4, 10):
                for delta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 0.95):
                    a, b = 0.5 * _v_from_psq(delta, n, k), 0.5 * (n - k - 1)
                    switch = (a + 1.0) / (a + b + 2.0)
                    for factor in (1 - 1e-9, 1 + 1e-9, 1 - 1e-3, 1 + 1e-3):
                        x = switch * factor
                        value = reg_inc_beta(a, b, x)
                        assert 0.0 <= value <= 1.0
                        if n <= 10**6:
                            assert abs(value - betainc(a, b, x)) <= 1e-9, (n, k, delta, x)

    @pytest.mark.parametrize("a,b,x,want", [(1.0, 3.0, 0.5, 0.875), (2.0, 2.0, 0.75, 0.84375)])
    def test_fraction_whose_first_denominator_is_zero(self, a, b, x, want):
        # 1 - (a+b) x / (a+1) is 0 exactly here, so Lentz's start needs its
        # guard; the fraction is called directly, as ``reg_inc_beta`` takes
        # the mirrored one at these x.  I_x(1, 3) = 1 - (1-x)^3 and
        # I_x(2, 2) = 3x^2 - 2x^3.
        front = math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * math.log(x) + b * math.log1p(-x)
        )
        assert abs(front * _beta_cont_fraction(a, b, x) / a - want) <= 1e-14

    def test_prefactor_beyond_the_float_range_raises_convergence_error(self):
        # the shapes of the F CDF at N = 1e18, K = 2, r2 = 0.1
        a, b, x = 2.6315788137926784e16, 5e17, 0.050000000133946745
        with pytest.raises(ConvergenceError, match="prefactor is beyond the float range") as info:
            reg_inc_beta(a, b, x)
        assert f"a={a!r}, b={b!r}, x={x!r}" in str(info.value)

    @pytest.mark.parametrize(
        "a,b,x",
        [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, -0.1), (1.0, 1.0, 1.1)],
    )
    def test_rejects_out_of_domain(self, a, b, x):
        with pytest.raises(DomainError):
            reg_inc_beta(a, b, x)


BAD_DEGREES = [0.0, -1.0, math.nan, math.inf, -math.inf, None, "x"]


class TestDegreesOfFreedom:
    # at x = 2, d1 = inf makes d1 * x infinite, where the CDF returns 1
    @pytest.mark.parametrize(
        "function,first", [(f_cdf, 2.0), (f_quantile, 0.5)], ids=["f_cdf", "f_quantile"]
    )
    @pytest.mark.parametrize(
        "d1,d2", [(bad, 5.0) for bad in BAD_DEGREES] + [(5.0, bad) for bad in BAD_DEGREES]
    )
    def test_rejects_invalid_degrees_of_freedom(self, function, first, d1, d2):
        with pytest.raises(DomainError) as caught:
            function(first, d1, d2)
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize(
        "function,args,name",
        [
            (f_cdf, (1.0, 5e-324, 3.0), "d1"),
            (f_quantile, (0.5, 5e-324, 3.0), "d1"),
            (f_quantile, (0.5, 3.0, 5e-324), "d2"),
        ],
    )
    def test_underflowing_half_names_the_degrees_of_freedom(self, function, args, name):
        # half of 5e-324 rounds to 0, which is the incomplete beta's shape
        with pytest.raises(DomainError, match=f"^{name} must be >= 1e-323"):
            function(*args)

    def test_least_degrees_of_freedom_with_a_positive_half(self):
        assert f_cdf(1.0, 1e-323, 3.0) == 1.0

    def test_accepts_fractional_degrees_of_freedom(self):
        d1, d2, x = 6.3, 1243.5, 1.1
        assert math.isclose(
            f_cdf(x, d1, d2), betainc(0.5 * d1, 0.5 * d2, d1 * x / (d1 * x + d2)), abs_tol=1e-12
        )
        assert math.isclose(f_quantile(f_cdf(x, d1, d2), d1, d2), x, rel_tol=1e-9)


class TestFCdf:
    def test_zero_at_and_below_support(self):
        assert f_cdf(0.0, 3.0, 12.0) == 0.0
        assert f_cdf(-2.5, 3.0, 12.0) == 0.0

    def test_equal_df_median_at_one(self):
        # F and 1/F share a distribution when d1 = d2, so the median is 1.
        assert math.isclose(f_cdf(1.0, 7.0, 7.0), 0.5, abs_tol=1e-12)

    def test_frozen_quadrature_value(self):
        assert math.isclose(f_cdf(2.5, 3.0, 12.0), F_CDF_AT_2P5_3_12, abs_tol=1e-9)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            d1 = float(rng.uniform(0.5, 80.0))
            d2 = float(rng.uniform(1.0, 500.0))
            x = float(rng.uniform(0.05, 6.0))
            assert math.isclose(
                f_cdf(x, d1, d2), f_cdf_quadrature(x, d1, d2), abs_tol=1e-9
            )

    def test_monotone_in_x(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d1, d2 = float(rng.uniform(0.5, 300.0)), float(rng.uniform(0.5, 300.0))
            xs = np.sort(rng.uniform(0.0, 10.0, size=25))
            values = [f_cdf(float(x), d1, d2) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_approaches_one(self):
        assert f_cdf(1e8, 4.0, 40.0) > 1.0 - 1e-9

    def test_one_where_d1_x_overflows(self):
        # 2.6e8 * 1e300 is beyond the float range
        assert f_cdf(1e300, 2.6e8, 1e10) == 1.0

    def test_pure_function(self):
        assert f_cdf(2.5, 6.3, 1243.0) == f_cdf(2.5, 6.3, 1243.0)

    def test_rejects_non_finite_x(self):
        with pytest.raises(DomainError):
            f_cdf(math.nan, 3.0, 12.0)


class TestFQuantile:
    def test_equal_df_median_is_one(self):
        assert math.isclose(f_quantile(0.5, 7.0, 7.0), 1.0, abs_tol=1e-9)

    @pytest.mark.parametrize("prob", [0.01, 0.05, 0.5, 0.95, 0.99])
    def test_round_trip_named_probabilities(self, prob):
        x = f_quantile(prob, 6.3, 1243.0)
        assert math.isclose(f_cdf(x, 6.3, 1243.0), prob, abs_tol=1e-10)

    def test_frozen_oracle_value(self):
        assert math.isclose(
            f_quantile(0.05, 6.3, 1243.0), F_QUANTILE_AT_05_6P3_1243, abs_tol=1e-8
        )

    def test_mutual_inverse_over_df_range(self):
        rng = np.random.default_rng(19)
        for _ in range(120):
            d1, d2 = float(rng.uniform(0.5, 5000.0)), float(rng.uniform(0.5, 5000.0))
            prob = float(rng.uniform(0.001, 0.999))
            x = f_quantile(prob, d1, d2)
            assert abs(f_cdf(x, d1, d2) - prob) <= 1e-8
            again = f_quantile(f_cdf(x, d1, d2), d1, d2)
            assert abs(again - x) <= 1e-8 * max(1.0, x)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_out_of_domain_probability(self, prob):
        with pytest.raises(DomainError):
            f_quantile(prob, 3.0, 12.0)

    def test_small_probability_round_trip_is_relatively_accurate(self):
        # An absolute CDF stop of 1e-12 would leave this 1.8% off.
        x = f_quantile(1e-12, 0.5, 3.0)
        assert math.isclose(f_cdf(x, 0.5, 3.0), 1e-12, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "prob,d1,d2",
        [
            (1e-300, 0.5, 3.0),  # root below the 1e-300 end of the bracket
            (0.999999, 1.0, 0.5),  # the CDF is too coarse in floats near 1
        ],
    )
    def test_uninvertible_probability_raises(self, prob, d1, d2):
        with pytest.raises(ConvergenceError):
            f_quantile(prob, d1, d2)

    @staticmethod
    def cdf_calls(monkeypatch, keys):
        """The F CDFs each critical R2 key's quantile evaluates, with the key."""
        calls = []
        unchecked = distributions._f_cdf

        def counting_cdf(x, d1, d2):
            calls.append(x)
            return unchecked(x, d1, d2)

        monkeypatch.setattr(distributions, "_f_cdf", counting_cdf)
        counts = []
        for n, k, delta, alpha in keys:
            calls.clear()
            f_quantile(alpha, _v_from_psq(delta, n, k), n - k - 1)
            counts.append((len(calls), (n, k, delta, alpha)))
        return counts

    def test_few_cdf_calls_per_paper_grid_key(self, monkeypatch):
        # The probes at Paulson's root, the root search's steps and the final
        # check: 11 at most (30 over the whole bracket).
        counts = self.cdf_calls(monkeypatch, CRITICAL_R2_KEYS["paper-grid"])
        most, key = max(counts)
        assert most <= 14, key
        # 6.81 on average; 7.81 when the second probe's shift has the wrong sign
        assert np.mean([count for count, _ in counts]) <= 7.0

    def test_few_cdf_calls_per_large_n_key(self, monkeypatch):
        # 14 at most (36 over the whole bracket): the CDF loses digits at large N.
        most, key = max(self.cdf_calls(monkeypatch, CRITICAL_R2_KEYS["large-n-grid"]))
        assert most <= 19, key

    @pytest.mark.parametrize(
        "prob,d1,d2",
        [(0.05, 6.3, 1243.0), (1e-12, 0.5, 3.0), (0.05, _v_from_psq(0.01, 10**6, 2), 999_997)],
    )
    @pytest.mark.parametrize("first,second", GUESS_CASES)
    def test_any_guess_falls_back_to_the_same_quantile(
        self, monkeypatch, prob, d1, d2, first, second
    ):
        want = quantile_full_bracket(prob, d1, d2)
        monkeypatch.setattr(distributions, "_seeded_root", guessing(first, second, math.log(want)))
        found = f_quantile(prob, d1, d2)
        if first == "root":
            assert math.isclose(found, want, rel_tol=1e-13)
        else:
            # a guess not strictly inside the bracket leaves the full search
            assert found == want


class TestPaulsonQuantile:
    """The closed-form seed: the F at which Paulson's approximation to the
    F CDF puts a normal quantile q, and the normal quantile itself."""

    probs = st.floats(1e-300, 1.0 - 1e-6)
    dofs = st.floats(1e-3, 1e9)

    @settings(max_examples=2000, deadline=None)
    @given(p=probs, d1=dofs, d2=dofs)
    def test_inverts_paulsons_approximation(self, p, d1, d2):
        q = _normal_quantile(_logit(p))
        f = _paulson_quantile(q, d1, d2)
        if math.isfinite(f) and f > 0.0:
            # Paulson's normal deviate at f
            a1, a2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
            cube = f ** (1.0 / 3.0)
            w = ((1.0 - a2) * cube - (1.0 - a1)) / math.sqrt(a1 + a2 * cube * cube)
            assert abs(w - q) <= 1e-9 * max(1.0, abs(q))

    @settings(max_examples=2000, deadline=None)
    @given(q=st.floats(-40.0, 40.0), d1=dofs, d2=dofs)
    def test_nan_exactly_where_no_positive_root_exists(self, q, d1, d2):
        # Above 2/9 degrees of freedom the approximation's normal deviate
        # rises with f from -(1-a1)/sqrt(a1) at f = 0 to (1-a2)/sqrt(a2) as
        # f grows; at or below, it is no CDF and the seed is always NaN.
        a1, a2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
        f = _paulson_quantile(q, d1, d2)
        if a1 >= 1.0 or a2 >= 1.0:
            assert math.isnan(f)
            return
        low, high = -(1.0 - a1) / math.sqrt(a1), (1.0 - a2) / math.sqrt(a2)
        # the closed form's rounding decides right at either end
        assume(min(abs(q - low), abs(q - high)) > 1e-9 * max(1.0, abs(q)))
        assert math.isnan(f) == (not low < q < high)

    @settings(max_examples=2000, deadline=None)
    @given(p=st.floats(1e-300, 1.0, exclude_max=True))
    def test_normal_quantile_round_trips_through_erfc(self, p):
        q = _normal_quantile(_logit(p))
        assert math.isclose(0.5 * math.erfc(-q / math.sqrt(2.0)), p, rel_tol=1e-12)
        # the upper tail, to its own relative precision, through symmetry
        assert math.isclose(0.5 * math.erfc(q / math.sqrt(2.0)), 1.0 - p, rel_tol=1e-12)

    @pytest.mark.parametrize("d1,d2", [(1.0, 69.0), (0.5, 3.0), (1e-3, 1e9), (1e9, 1e-3)])
    def test_no_root_gives_nan(self, d1, d2):
        # (1, 69) is a K = 1 bound's lower tail at z <= 0, past the
        # approximation's reach; below 2/9 degrees of freedom it is no CDF.
        assert math.isnan(_paulson_quantile(_normal_quantile(_logit(0.025)), d1, d2))


@st.composite
def root_problems(draw):
    """An increasing function with a known root r in a bracket [lo, hi],
    a stop width, and the values handed to ``_root`` for the two ends."""
    lo = draw(st.floats(-100.0, 100.0))
    span = draw(st.floats(1e-3, 200.0))
    hi = lo + span
    root = draw(
        st.one_of(
            st.floats(lo, hi),
            st.floats(0.0, 1e-9).map(lambda off: lo + off),
            st.floats(0.0, 1e-9).map(lambda off: hi - off),
        )
    )
    scale = span * 10.0 ** draw(st.floats(-6.0, 1.0))
    shape = draw(st.sampled_from(["logistic", "capped", "step"]))
    # Each shape has the sign of x - root exactly, so the root is known
    # to the last bit.  "step" is flat on both sides of the root, the way
    # the bound's p(z) is flat at r2 = 0 with its root on the lower end.
    if shape == "logistic":
        def fn(x):
            return math.tanh((x - root) / scale)
    elif shape == "capped":
        def fn(x):
            return min(max((x - root) / scale, -745.0), 37.0)
    else:
        def fn(x):
            return -1.0 if x < root else 1.0
    width = max(span * 10.0 ** -draw(st.floats(1.0, 12.0)), 1e-11)
    excess_lo = fn(lo) if fn(lo) < 0.0 else -1.0
    return fn, lo, hi, root, width, excess_lo, fn(hi)


class TestRoot:
    @settings(max_examples=500, deadline=None)
    @given(problem=root_problems())
    def test_lands_within_half_a_width_without_touching_the_ends(self, problem):
        fn, lo, hi, root, width, excess_lo, excess_hi = problem
        seen = []

        def excess(x):
            seen.append(x)
            return fn(x)

        found, calls = _root(excess, lo, hi, width, excess_lo, excess_hi)
        assert calls == len(seen)
        assert all(lo < x < hi for x in seen)
        slack = math.ulp(max(abs(lo), abs(hi)))
        assert abs(found - root) <= 0.5 * width + slack, (found, root)

    @settings(max_examples=500, deadline=None)
    @given(
        problem=root_problems(),
        offsets=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        points=st.tuples(*[st.sampled_from(
            ["root", "shifted", "nan", "below", "above", "lower-end", "upper-end"]
        )] * 2),
    )
    def test_seeded_search_lands_within_half_a_width_without_touching_the_ends(
        self, problem, offsets, points
    ):
        # However poor the approximation's two roots, they only move where
        # the search starts.
        fn, lo, hi, root, width, excess_lo, excess_hi = problem
        probes = []
        for point, offset in zip(points, offsets):
            probes.append({"root": root, "shifted": root + offset * (hi - lo), "nan": math.nan,
                           "below": lo - 1.0, "above": hi + 1.0, "lower-end": lo,
                           "upper-end": hi}[point])
        seen, shifts = [], []

        def excess(x):
            seen.append(x)
            return fn(x)

        def root_at(shift):
            shifts.append(shift)
            return probes[len(shifts) - 1]

        found, calls = _seeded_root(excess, root_at, lo, hi, width, excess_lo, excess_hi)
        assert calls == len(seen)
        assert all(lo < x < hi for x in seen)
        # the second root is asked for with the excess at the first point
        assert shifts == [0.0, fn(seen[0])] if len(shifts) == 2 else shifts == [0.0]
        slack = math.ulp(max(abs(lo), abs(hi)))
        assert abs(found - root) <= 0.5 * width + slack, (found, root)

    def test_evaluated_ends_start_by_interpolation(self):
        # A straight line is solved by the first secant step, where a
        # bisection would land at 0.5.
        seen = []

        def line(x):
            seen.append(x)
            return x - 0.1

        _root(line, 0.0, 1.0, 1e-12, -0.1, 0.9)
        assert seen[0] == pytest.approx(0.1, abs=1e-15)


class TestRandomStream:
    def test_same_key_replays_sequence(self):
        first = RandomStream(7, "cell", 3).standard_normal(64)
        second = RandomStream(7, "cell", 3).standard_normal(64)
        assert np.array_equal(first, second)

    def test_neighbouring_keys_differ(self):
        a = RandomStream(7, "cell", 3).standard_normal(16)
        b = RandomStream(7, "cell", 4).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_scalar_draws_are_floats_and_advance(self):
        stream = RandomStream("scalar-check")
        first = stream.standard_normal()
        second = stream.standard_normal()
        assert isinstance(first, float)
        assert first != second

    def test_moments_of_a_large_sample(self):
        draws = RandomStream("moments", 0).standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_requires_a_key(self):
        with pytest.raises(DomainError):
            RandomStream()
