"""Tests for the least-squares layer."""

import math

import numpy as np
import pytest

from r2margin.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficiencyError,
)
from r2margin.regression import Dataset, _gram_r_squared, fit_ols, r_squared

from oracles import ols_normal_equations


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
        rescaled = data.x.copy()
        rescaled[:, 1] *= 3e4
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
            assert r2 is not None
            assert abs(r2 - fit_ols(data).r2) <= 1e-13

    def test_collinear_covariates_defer_to_qr(self):
        rng = np.random.default_rng(8)
        data = _random_dataset(rng, n=50, k=3)
        x = data.x.copy()
        x[:, 2] = x[:, 0] - 0.5 * x[:, 1]
        assert _gram_r_squared(x, data.y) is None
        with pytest.raises(RankDeficiencyError):
            fit_ols(Dataset(y=data.y, x=x))

    def test_nearly_collinear_covariates_defer_to_qr(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 2))
        x[:, 1] = x[:, 0] + 1e-3 * x[:, 1]
        assert _gram_r_squared(x, x[:, 0] + rng.normal(size=200)) is None

    @pytest.mark.parametrize("level", [0.0, 2.5, 1e12])
    def test_constant_outcome_defers_to_qr(self, level):
        x = np.random.default_rng(10).normal(size=(40, 2))
        assert _gram_r_squared(x, np.full(40, level)) is None

    def test_outcome_offset_far_beyond_its_spread_defers_to_qr(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2))
        assert _gram_r_squared(x, 1e8 + x[:, 0] + rng.normal(size=100)) is None

    def test_near_perfect_fit_defers_to_qr(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 2))
        assert _gram_r_squared(x, 1.0 + x @ [0.5, -2.0] + 1e-6 * rng.normal(size=100)) is None

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflowing_outcome_defers_to_qr(self, scale):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 2))
        assert _gram_r_squared(x, scale * (x[:, 0] + rng.normal(size=40))) is None

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
                assert _gram_r_squared(broken, y) is None
                assert _gram_r_squared(x, broken_y) is None
