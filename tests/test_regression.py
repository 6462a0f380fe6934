"""Tests for the least-squares layer."""

from fractions import Fraction

import numpy as np
import pytest

from r2margin.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficiencyError,
)
from r2margin.regression import Dataset, fit_ols

from oracles import ols_normal_equations, r2_exact, small_r2_dataset


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
        with pytest.raises(DimensionMismatchError):
            Dataset(y=np.zeros((10, 1)), x=np.zeros((10, 2)))

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
        x = rng.normal(size=(30, 2))
        for value in (4.2, 0.0):
            fit = fit_ols(Dataset(y=np.full(30, value), x=x))
            assert fit.r2 == 0.0
            assert fit.constant_outcome

    @pytest.mark.parametrize("power", [-15, -20, -100])
    def test_outcome_of_small_magnitude_keeps_its_r2(self, power):
        # the rounding scale of a constant outcome is its own size, not 1
        data = _random_dataset(np.random.default_rng(4), n=200, k=2)
        fit = fit_ols(Dataset(y=data.y * 10.0**power, x=data.x))
        assert not fit.constant_outcome
        assert abs(fit.r2 - fit_ols(data).r2) <= 1e-12

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
        assert abs(float(Fraction(fit_ols(data).r2) / exact) - 1.0) <= 1e-7

    @pytest.mark.parametrize("offset", [1e6, 1e8, 1e10])
    def test_offset_far_beyond_spread_matches_exact_fit(self, offset):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(400, 2))
        y = offset + 0.6 * x[:, 0] + rng.normal(size=400)
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
        assert abs(fit_ols(Dataset(y=x[:, 0] - x[:, 1], x=x)).r2 - 1.0) <= 1e-10

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = _random_dataset(rng)
        order = rng.permutation(data.n_obs)
        permuted = Dataset(y=data.y[order], x=data.x[order])
        assert abs(fit_ols(data).r2 - fit_ols(permuted).r2) <= 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        data = _random_dataset(rng)
        baseline = fit_ols(data).r2
        assert abs(fit_ols(Dataset(y=-17.5 * data.y, x=data.x)).r2 - baseline) <= 1e-12
        # the rank test does not depend on a column's scale
        for scale in (3e4, 1e11, 1e15, 1e-15):
            rescaled = data.x.copy()
            rescaled[:, 1] *= scale
            assert abs(fit_ols(Dataset(y=data.y, x=rescaled)).r2 - baseline) <= 1e-12

    def test_extra_noise_covariate_never_decreases_r2(self):
        rng = np.random.default_rng(6)
        data = _random_dataset(rng, n=80, k=2)
        base = fit_ols(data).r2
        for _ in range(10):
            wider = Dataset(y=data.y, x=np.column_stack([data.x, rng.normal(size=80)]))
            assert fit_ols(wider).r2 >= base - 1e-12

    def test_equals_squared_correlation_with_fitted_values(self):
        rng = np.random.default_rng(7)
        data = _random_dataset(rng)
        fit = fit_ols(data)
        fitted = fit.intercept + data.x @ fit.coefficients
        correlation = np.corrcoef(data.y, fitted)[0, 1]
        assert fit.r2 == pytest.approx(correlation**2, abs=1e-10)
