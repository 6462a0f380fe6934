"""Tests for the least-squares layer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from r2margin.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficiencyError,
)
from r2margin.regression import Dataset, _r2_from_gram, fit_ols, r_squared

from oracles import ols_normal_equations, r2_exact, small_r2_dataset


def _gram_r_squared(x, y):
    """``_r2_from_gram`` on the centered cross-products of (x, y), formed
    column by column with no shortcut, as a stack of one; NaN where it
    defers to the QR fit."""
    columns = np.column_stack([x, y])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves NaNs
        centered = columns - columns.mean(axis=0)
        gram = centered.T @ centered
    y_mean = abs(float(y.mean()))
    return float(_r2_from_gram(gram[None], x.shape[0], np.array([y_mean]))[0])


def _random_dataset(rng, n=60, k=3, noise=1.0):
    x = rng.normal(size=(n, k))
    beta = rng.normal(size=k)
    y = 0.7 + x @ beta + noise * rng.normal(size=n)
    return Dataset(y=y, x=x)


class TestDatasetValidation:
    def test_rejects_too_few_rows(self):
        with pytest.raises(DomainError):
            Dataset(y=np.zeros(4), x=np.zeros((4, 3)))

    def test_rejects_non_finite_entries(self):
        y = np.zeros(10)
        x = np.ones((10, 2))
        x[3, 1] = np.nan
        with pytest.raises(DomainError):
            Dataset(y=y, x=x)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.zeros(9), x=np.zeros((10, 2)))
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.zeros(10), x=np.zeros(10))

    def test_rejects_zero_covariates(self):
        with pytest.raises(DomainError):
            Dataset(y=np.zeros(10), x=np.zeros((10, 0)))


class TestFitOls:
    def test_recovers_exact_line(self):
        x = np.linspace(-3.0, 5.0, 40).reshape(-1, 1)
        fit = fit_ols(Dataset(y=2.0 + 3.0 * x[:, 0], x=x))
        assert fit.intercept == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-10)
        assert abs(fit.r2 - 1.0) <= 1e-10

    def test_constant_outcome_flagged_with_zero_r2(self):
        rng = np.random.default_rng(0)
        fit = fit_ols(Dataset(y=np.full(30, 4.2), x=rng.normal(size=(30, 2))))
        assert fit.r2 == 0.0
        assert fit.constant_outcome

    def test_constant_outcome_whose_scale_squared_overflows_is_flagged(self):
        # (1e-14 * 2e168) ** 2 overflows; the finite sums of squares lie below it
        rng = np.random.default_rng(0)
        fit = fit_ols(Dataset(y=np.full(30, 2e168), x=rng.normal(size=(30, 2))))
        assert fit.r2 == 0.0
        assert fit.constant_outcome

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_sums_of_squares_raise(self, scale):
        rng = np.random.default_rng(3)
        data = _random_dataset(rng, n=50, k=2)
        with pytest.raises(DomainError, match="sums of squares overflow"):
            fit_ols(Dataset(y=scale * data.y, x=data.x))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        data = _random_dataset(rng, n=50, k=3)
        expected_coef, expected_r2 = ols_normal_equations(data.y, data.x)
        fit = fit_ols(data)
        assert fit.intercept == pytest.approx(expected_coef[0], abs=1e-8)
        np.testing.assert_allclose(fit.coefficients, expected_coef[1:], atol=1e-8)
        assert fit.r2 == pytest.approx(expected_r2, abs=1e-8)

    def test_duplicate_column_raises_with_index(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(40, 2))
        x = np.column_stack([base, base[:, 0]])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(Dataset(y=rng.normal(size=40), x=x))
        # duplicate of covariate 1 sits at design column 3
        assert excinfo.value.column_index == 3

    @pytest.mark.parametrize(
        "column",
        [
            lambda x: np.full(len(x), 0.1),
            lambda x: np.zeros(len(x)),
            lambda x: x[:, 0] - 0.5 * x[:, 1],
            lambda x: 1e8 * (x[:, 0] - 0.5 * x[:, 1]),
        ],
        ids=["constant", "zero", "linear-combination", "scaled-linear-combination"],
    )
    def test_collinear_column_raises_with_index(self, column):
        # each pivot is compared with its own column's norm: a zero column,
        # whose pivot and norm are both 0, is caught, and so is a collinear
        # column whose pivot still exceeds 1e-10 times the largest pivot
        rng = np.random.default_rng(1)
        base = rng.normal(size=(40, 2))
        x = np.column_stack([base, column(base), rng.normal(size=40)])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(Dataset(y=rng.normal(size=40), x=x))
        assert excinfo.value.column_index == 3

    @pytest.mark.parametrize("r2", [1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_small_r2_matches_exact_fit(self, r2, seed):
        # showing negligible R2 is the point of the test; 1 - SSE/SST cancels there
        data = Dataset(*small_r2_dataset(r2, seed))
        exact = r2_exact(data.y, data.x)
        assert abs(float(exact) / r2 - 1.0) <= 1e-6
        for value in (fit_ols(data).r2, _gram_r_squared(data.x, data.y)):
            assert abs(float(Fraction(value) / exact) - 1.0) <= 1e-7

    @pytest.mark.parametrize("offset", [1e6, 1e8, 1e10])
    def test_offset_far_beyond_spread_matches_exact_fit(self, offset):
        # where the cross-product route defers to this fit
        rng = np.random.default_rng(17)
        x = rng.normal(size=(400, 2))
        y = offset + 0.6 * x[:, 0] + rng.normal(size=400)
        assert math.isnan(_gram_r_squared(x, y))
        exact = r2_exact(y, x)
        assert abs(float(Fraction(fit_ols(Dataset(y=y, x=x)).r2) / exact) - 1.0) <= 1e-12

    def test_residual_variance_is_nonnegative(self):
        rng = np.random.default_rng(2)
        fit = fit_ols(_random_dataset(rng))
        assert fit.residual_variance_hat >= 0.0


class TestRSquared:
    def test_exact_two_covariate_fit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        assert abs(r_squared(Dataset(y=x[:, 0] - x[:, 1], x=x)) - 1.0) <= 1e-10

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = _random_dataset(rng)
        order = rng.permutation(data.n_obs)
        permuted = Dataset(y=data.y[order], x=data.x[order])
        assert abs(r_squared(data) - r_squared(permuted)) <= 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng)
        baseline = r_squared(data)
        assert abs(r_squared(Dataset(y=-17.5 * data.y, x=data.x)) - baseline) <= 1e-12
        # the rank test does not depend on a column's scale
        for scale in (3e4, 1e11, 1e15, 1e-15):
            rescaled = data.x.copy()
            rescaled[:, 1] *= scale
            assert abs(r_squared(Dataset(y=data.y, x=rescaled)) - baseline) <= 1e-12

    def test_extra_noise_covariate_never_decreases_r2(self):
        rng = np.random.default_rng(6)
        data = _random_dataset(rng, n=80, k=2)
        base = r_squared(data)
        for _ in range(10):
            wider = Dataset(y=data.y, x=np.column_stack([data.x, rng.normal(size=80)]))
            assert r_squared(wider) >= base - 1e-12

    def test_equals_squared_correlation_with_fitted_values(self):
        rng = np.random.default_rng(7)
        data = _random_dataset(rng)
        fit = fit_ols(data)
        fitted = fit.intercept + data.x @ fit.coefficients
        correlation = np.corrcoef(data.y, fitted)[0, 1]
        assert fit.r2 == pytest.approx(correlation**2, abs=1e-10)


class TestGramRSquared:
    @pytest.mark.parametrize("n,k", [(30, 1), (60, 3), (1000, 4), (100_000, 2)])
    def test_agrees_with_qr_fit(self, n, k):
        rng = np.random.default_rng(n + k)
        for noise in (0.3, 1.0, 30.0):
            data = _random_dataset(rng, n=n, k=k, noise=noise)
            r2 = _gram_r_squared(data.x, data.y)
            assert not math.isnan(r2)
            assert abs(r2 - fit_ols(data).r2) <= 1e-13

    @staticmethod
    def _stack(rng, size, n=80, k=3):
        """Centered cross-products and |mean y| of ``size`` random datasets."""
        grams, y_mean = [], []
        for _ in range(size):
            data = _random_dataset(rng, n=n, k=k)
            centered = np.column_stack([data.x, data.y])
            centered = centered - centered.mean(axis=0)
            grams.append(centered.T @ centered)
            y_mean.append(abs(float(data.y.mean())))
        return np.array(grams), np.array(y_mean)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stack_equals_each_gram_alone(self, k):
        rng = np.random.default_rng(20 + k)
        grams, y_mean = self._stack(rng, 37, k=k)
        stacked = _r2_from_gram(grams, 80, y_mean)
        alone = [_r2_from_gram(grams[i : i + 1], 80, y_mean[i : i + 1])[0] for i in range(37)]
        assert not np.isnan(stacked).any()
        assert stacked.tolist() == alone

    def test_failed_grams_give_nan_and_leave_the_rest(self):
        rng = np.random.default_rng(31)
        grams, y_mean = self._stack(rng, 6)
        expected = _r2_from_gram(grams, 80, y_mean)
        broken = grams.copy()
        broken[1, 2, 2] = -1.0  # not positive definite: Cholesky fails
        broken[4, 0, 3] = broken[4, 3, 0] = np.nan
        r2 = _r2_from_gram(broken, 80, y_mean)
        assert np.isnan(r2[[1, 4]]).all()
        keep = [0, 2, 3, 5]
        assert r2[keep].tolist() == expected[keep].tolist()

    def test_collinear_covariates_defer_to_qr(self):
        rng = np.random.default_rng(8)
        data = _random_dataset(rng, n=50, k=3)
        x = data.x.copy()
        x[:, 2] = x[:, 0] - 0.5 * x[:, 1]
        assert math.isnan(_gram_r_squared(x, data.y))
        with pytest.raises(RankDeficiencyError):
            fit_ols(Dataset(y=data.y, x=x))

    def test_nearly_collinear_covariates_defer_to_qr(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 2))
        x[:, 1] = x[:, 0] + 1e-3 * x[:, 1]
        assert math.isnan(_gram_r_squared(x, x[:, 0] + rng.normal(size=200)))

    @pytest.mark.parametrize("level", [0.0, 2.5, 1e12])
    def test_constant_outcome_defers_to_qr(self, level):
        x = np.random.default_rng(10).normal(size=(40, 2))
        assert math.isnan(_gram_r_squared(x, np.full(40, level)))

    # offsets 0 and +-[1, 1e150], spreads 0.5x to 2x of fit_ols's cut-off
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(1, 4).flatmap(
            lambda k: st.tuples(st.integers(k + 2, 100_000), st.just(k))
        ),
        offset=st.one_of(
            st.just(0.0),
            st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                      st.floats(0.0, 150.0)),
        ),
        spread=st.floats(0.5, 2.0),
    )
    @example(seed=0, shape=(4, 2), offset=0.0, spread=0.5)
    @example(seed=1, shape=(100_000, 1), offset=-1e150, spread=0.5)
    @example(seed=2, shape=(500, 4), offset=1.0, spread=0.5)
    def test_defers_wherever_fit_ols_flags_a_constant_outcome(self, seed, shape, offset, spread):
        # max|y| <= |mean y| + sqrt(SST), so fit_ols's cut-off on the scale
        # max|y| implies the guard's on |mean y|
        n, k = shape
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k))
        y = offset + spread * 1e-14 * max(1.0, abs(offset)) * rng.normal(size=n)
        if fit_ols(Dataset(y=y, x=x)).constant_outcome:
            assert math.isnan(_gram_r_squared(x, y))

    def test_outcome_offset_far_beyond_its_spread_defers_to_qr(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2))
        assert math.isnan(_gram_r_squared(x, 1e8 + x[:, 0] + rng.normal(size=100)))

    def test_near_perfect_fit_defers_to_qr(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 2))
        assert math.isnan(_gram_r_squared(x, 1.0 + x @ [0.5, -2.0] + 1e-6 * rng.normal(size=100)))

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflowing_outcome_defers_to_qr(self, scale):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 2))
        assert math.isnan(_gram_r_squared(x, scale * (x[:, 0] + rng.normal(size=40))))

    def test_non_finite_input_defers_to_qr(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        for bad in (np.inf, np.nan):
            broken = x.copy()
            broken[4, 1] = bad
            broken_y = y.copy()
            broken_y[7] = bad
            with np.errstate(invalid="ignore"):
                assert math.isnan(_gram_r_squared(broken, y))
                assert math.isnan(_gram_r_squared(x, broken_y))
