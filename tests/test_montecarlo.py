"""Tests for the simulation harness: generation, seeding, and rejection rates."""

import numpy as np
import pytest
from scipy import stats

import r2margin.montecarlo as mc
from r2margin.errors import (
    DimensionMismatchError,
    DomainError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
)
from r2margin.montecarlo import (
    GRID_BETAS,
    Scenario,
    default_delta_grid,
    exchangeable_covariance,
    paper_grid,
    run_scenario,
    true_p2,
)
from r2margin.inference import TestInput, noninferiority_pvalue
from r2margin.regression import Dataset, _r2_from_gram, fit_ols, r_squared

from oracles import RandomStream, generate_dataset, replicate_counts_exact


def _small_scenario(n=120, k=2, sigma2=1.0):
    return Scenario(
        id=f"test_k{k}_n{n}",
        n=n,
        k=k,
        beta=np.array([0.11, -0.15])[:k],
        sigma2=sigma2,
        sigma_matrix=exchangeable_covariance(k),
    )


class TestTrueP2:
    def test_zero_signal(self):
        assert true_p2(np.zeros(3), np.eye(3), 1.0) == 0.0

    def test_hand_expanded_two_covariate_value(self):
        signal = 0.11**2 + 0.15**2 + 2 * 0.05 * 0.11 * (-0.15)
        value = true_p2([0.11, -0.15], [[1.0, 0.05], [0.05, 1.0]], 1.0)
        assert value == pytest.approx(signal / (signal + 1.0), rel=1e-12)

    def test_monotone_decreasing_in_noise(self):
        beta = np.array([0.11, -0.15])
        sigma = exchangeable_covariance(2)
        values = [true_p2(beta, sigma, s2) for s2 in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            true_p2(np.zeros(3), np.eye(2), 1.0)

    def test_rejects_non_positive_noise(self):
        with pytest.raises(DomainError):
            true_p2(np.zeros(2), np.eye(2), 0.0)


def _factor(sigma):
    """The Cholesky factor that a scenario with covariance ``sigma`` keeps."""
    k = len(sigma)
    return Scenario(id="factor", n=k + 2, k=k, beta=np.zeros(k), sigma2=1.0,
                    sigma_matrix=sigma).lower


class TestCholeskyFactor:
    def test_identity_is_fixed_point(self):
        np.testing.assert_array_equal(_factor(np.eye(3)), np.eye(3))

    def test_round_trip_two_by_two(self):
        sigma = np.array([[1.0, 0.05], [0.05, 1.0]])
        lower = _factor(sigma)
        assert np.abs(lower @ lower.T - sigma).max() < 1e-14
        assert np.abs(np.triu(lower, 1)).max() == 0.0

    def test_round_trip_grid_covariance(self):
        for scenario in paper_grid():
            lower = scenario.lower
            assert np.abs(np.triu(lower, 1)).max() == 0.0 and (np.diag(lower) > 0.0).all()
            assert np.abs(lower @ lower.T - scenario.sigma_matrix).max() < 1e-14

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            _factor([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(DomainError):
            _factor([[1.0, 0.3], [0.0, 1.0]])


class TestGenerateDataset:
    def test_nearly_noiseless_generation_identifies_beta(self):
        scenario = Scenario(
            id="identify",
            n=8000,
            k=2,
            beta=np.array([0.11, -0.15]),
            sigma2=1e-16,
            sigma_matrix=exchangeable_covariance(2),
        )
        fit = fit_ols(generate_dataset(scenario, RandomStream(1, scenario.id, 0)))
        np.testing.assert_allclose(fit.coefficients, scenario.beta, atol=1e-6)
        assert abs(fit.intercept) < 1e-6

    def test_sample_covariance_concentrates(self):
        scenario = _small_scenario(n=8000)
        data = generate_dataset(scenario, RandomStream(2, scenario.id, 0))
        sample_cov = np.cov(data.x, rowvar=False)
        assert np.abs(sample_cov - scenario.sigma_matrix).max() < 0.05

    def test_replicate_streams_are_separate(self):
        scenario = _small_scenario()
        a = generate_dataset(scenario, RandomStream(3, scenario.id, 0))
        b = generate_dataset(scenario, RandomStream(3, scenario.id, 1))
        assert not np.array_equal(a.y, b.y)

    def test_same_stream_key_reproduces_dataset(self):
        scenario = _small_scenario()
        a = generate_dataset(scenario, RandomStream(3, scenario.id, 5))
        b = generate_dataset(scenario, RandomStream(3, scenario.id, 5))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


class TestRunScenario:
    def test_single_replicate_rate_is_zero_or_one(self):
        records = run_scenario(_small_scenario(), [0.05], 1, 0.05, 99)
        assert records[0].rejections in (0, 1)
        assert records[0].rejection_rate in (0.0, 1.0)

    def test_deterministic_across_repeat_runs(self):
        scenario = _small_scenario()
        first = run_scenario(scenario, [0.02, 0.05], 200, 0.05, 7)
        second = run_scenario(scenario, [0.02, 0.05], 200, 0.05, 7)
        assert [(r.delta, r.rejections) for r in first] == [
            (r.delta, r.rejections) for r in second
        ]

    def test_worker_count_does_not_change_results(self):
        scenario = _small_scenario()
        serial = run_scenario(scenario, [0.03, 0.06], 240, 0.05, 11, workers=1)
        threaded = run_scenario(scenario, [0.03, 0.06], 240, 0.05, 11, workers=3)
        assert [(r.delta, r.rejections, r.skipped) for r in serial] == [
            (r.delta, r.rejections, r.skipped) for r in threaded
        ]

    def test_rejections_monotone_in_margin(self):
        # Shared p-values per replicate make the counts exactly monotone.
        records = run_scenario(_small_scenario(), default_delta_grid(), 250, 0.05, 13)
        rejections = [r.rejections for r in records]
        assert rejections == sorted(rejections)

    def test_boundary_rate_near_test_level(self):
        # At a margin equal to the true variance share the rejection rate
        # is the type-1 error and sits at the test level for moderate n.
        scenario = [s for s in paper_grid() if s.n == 1000 and s.k == 2 and s.sigma2 == 1.0][0]
        boundary = true_p2(scenario.beta, scenario.sigma_matrix, scenario.sigma2)
        record = run_scenario(scenario, [boundary], 5000, 0.05, 20260810)[0]
        assert abs(record.rejection_rate - 0.05) <= 0.01

    def test_record_invariants(self):
        records = run_scenario(_small_scenario(), [0.04], 50, 0.05, 5)
        record = records[0]
        assert record.rejection_rate == record.rejections / record.n_sims
        assert record.skipped == 0
        assert 0.0 < record.true_p2 < 1.0

    def test_excessive_skips_raise(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RankDeficiencyError("forced failure")

        scenario = _small_scenario()
        # Every replicate takes the QR route, where the forced failure is a skip.
        monkeypatch.setattr(mc, "_r2_from_gram", lambda grams, n, y_max: np.full(len(grams), np.nan))
        monkeypatch.setattr(mc, "r_squared", explode)
        with pytest.raises(ExcessiveSkipsError):
            run_scenario(scenario, [0.05], 40, 0.05, 1)

    @pytest.mark.parametrize(
        "deltas,n_sims,alpha",
        [([], 10, 0.05), ([0.0], 10, 0.05), ([1.0], 10, 0.05), ([0.05], 0, 0.05), ([0.05], 10, 1.0)],
    )
    def test_rejects_invalid_arguments(self, deltas, n_sims, alpha):
        with pytest.raises(DomainError):
            run_scenario(_small_scenario(), deltas, n_sims, alpha, 1)

    def test_env_var_controls_default_workers(self, monkeypatch):
        monkeypatch.setenv("R2MARGIN_THREADS", "not-a-number")
        with pytest.raises(DomainError):
            run_scenario(_small_scenario(), [0.05], 5, 0.05, 1)
        monkeypatch.setenv("R2MARGIN_THREADS", "2")
        records = run_scenario(_small_scenario(), [0.05], 30, 0.05, 1)
        serial = run_scenario(_small_scenario(), [0.05], 30, 0.05, 1, workers=1)
        assert records[0].rejections == serial[0].rejections


def _record_gram_r2(monkeypatch):
    """Patch the kernel's ``_r2_from_gram`` to record what it returns, one
    float per replicate; the list it records into."""
    values = []

    def recorded(grams, n, y_max):
        r2 = _r2_from_gram(grams, n, y_max)
        values.extend(r2.tolist())
        return r2

    monkeypatch.setattr(mc, "_r2_from_gram", recorded)
    return values


def _counts(records):
    """(counts per margin, skipped), as ``replicate_counts_exact`` returns."""
    return [r.rejections for r in records], records[0].skipped


@pytest.fixture(scope="module")
def paper_grid_exact():
    """Brute-force counts for every paper-grid scenario, 40 sims, seed 3."""
    deltas = default_delta_grid()
    return {
        s.id: replicate_counts_exact(s, deltas, 40, 0.05, 3) for s in paper_grid()
    }


class TestCriticalR2Decisions:
    def test_paper_grid_counts_equal_exact_evaluation(self, paper_grid_exact):
        for scenario in paper_grid():
            records = run_scenario(scenario, default_delta_grid(), 40, 0.05, 3)
            assert _counts(records) == paper_grid_exact[scenario.id], scenario.id

    def test_every_replicate_exact_gives_same_counts(self, monkeypatch, paper_grid_exact):
        monkeypatch.setattr(mc, "_r2_from_gram", lambda grams, n, y_max: np.full(len(grams), np.nan))
        fits = []

        def counted_r_squared(data):
            fits.append(data)
            return r_squared(data)

        monkeypatch.setattr(mc, "r_squared", counted_r_squared)
        for scenario in paper_grid():
            records = run_scenario(scenario, default_delta_grid(), 40, 0.05, 3)
            assert _counts(records) == paper_grid_exact[scenario.id], scenario.id
        assert len(fits) == 30 * 40

    def test_single_covariate_counts_equal_exact_evaluation(self):
        scenario = Scenario(
            id="k1_n60", n=60, k=1, beta=np.array([0.3]), sigma2=1.0,
            sigma_matrix=np.eye(1),
        )
        deltas = default_delta_grid()
        records = run_scenario(scenario, deltas, 300, 0.05, 3)
        assert _counts(records) == replicate_counts_exact(scenario, deltas, 300, 0.05, 3)

    def test_noise_variants_share_cached_roots(self):
        deltas = [0.0123, 0.0456]
        first, second = [s for s in paper_grid() if s.n == 180 and s.k == 4][:2]
        run_scenario(first, deltas, 2, 0.05, 1)
        misses = mc._critical_r2.cache_info().misses
        run_scenario(second, deltas, 2, 0.05, 1)
        assert mc._critical_r2.cache_info().misses == misses

    @pytest.mark.parametrize(
        "n,k,delta,r2",
        [(10**6, 2, 0.3, 0.30003), (10**6, 4, 0.1974, 0.19740973776614226)],
        ids=["k2", "k4"],
    )
    def test_large_n_pvalue_and_root(self, n, k, delta, r2):
        # These R2 put the F CDF's incomplete beta next to its series switch,
        # where its continued fraction takes the most terms.
        observed = TestInput(r2, n, k)
        result = noninferiority_pvalue(observed, delta)
        expected = stats.f.cdf(result.f_stat, result.v_final, observed.residual_df)
        assert abs(result.p_value - expected) <= 1e-9
        assert 0.0 < mc._critical_r2(n, k, delta, 0.05) < 1.0

    # With beta = 0.463 (P2 = 0.30008) replicates 6 and 8 put the p-value at
    # margin 0.3 next to its incomplete beta's series switch, where the
    # continued fraction takes the most terms.
    @pytest.mark.parametrize(
        "coefficient,n_sims", [(0.46, 30), (0.463, 10)], ids=["0.46", "0.463"]
    )
    def test_large_n_counts_equal_exact_evaluation(self, coefficient, n_sims):
        scenario = Scenario(
            id="large", n=10**6, k=2, beta=np.array([coefficient] * 2), sigma2=1.0,
            sigma_matrix=np.eye(2),
        )
        deltas = [0.2, 0.3, 0.31]
        records = run_scenario(scenario, deltas, n_sims, 0.05, 1)
        assert records[0].skipped == 0
        assert _counts(records) == replicate_counts_exact(scenario, deltas, n_sims, 0.05, 1)

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13], ids=["below", "above"])
    def test_decision_is_the_comparison_at_the_root(self, monkeypatch, offset):
        scenario = _small_scenario(n=60)
        deltas = default_delta_grid()
        roots = [mc._critical_r2(scenario.n, scenario.k, d, 0.05) for d in deltas]
        r2 = roots[9] + offset
        monkeypatch.setattr(mc, "_r2_from_gram", lambda grams, n, y_max: np.full(len(grams), r2))
        records = run_scenario(scenario, deltas, 3, 0.05, 1)
        assert _counts(records) == ([3 if root > r2 else 0 for root in roots], 0)
        assert records[9].rejections == (3 if offset < 0 else 0)

    def _patched_counts(self, monkeypatch, fill, scenario):
        """Counts and skips of five replicates whose normals ``fill`` writes,
        and what ``_r2_from_gram`` returned for each."""
        monkeypatch.setattr(mc, "_draw_normals", fill)
        gram_r2 = _record_gram_r2(monkeypatch)
        roots = np.array([mc._critical_r2(scenario.n, scenario.k, d, 0.05)
                          for d in default_delta_grid()])
        counts, skipped = mc._replicate_counts(scenario, 0, 5, 1, roots)
        return counts, skipped, gram_r2

    @staticmethod
    def _formed(scenario, fill):
        """(x, y) of the dataset the kernel forms from normals ``fill`` writes."""
        n, k = scenario.n, scenario.k
        normals = np.empty(n * (k + 1))
        fill(None, normals, 0)
        noise = normals[n * k :] * np.sqrt(scenario.sigma2)
        return mc._design(scenario, normals[: n * k].reshape(n, k), noise)

    def test_collinear_replicate_is_skipped_as_rank_deficient(self, monkeypatch):
        scenario = _small_scenario(n=60)

        def collinear(generator, out, *key_parts):
            out[:] = RandomStream(*key_parts).standard_normal(out.size)
            z = out[: 2 * scenario.n].reshape(scenario.n, 2)
            z[:, 1] = 2.0 * z[:, 0]  # x = z L' is collinear with z

        x, y = self._formed(scenario, collinear)
        with pytest.raises(RankDeficiencyError):
            fit_ols(Dataset(y=y, x=x))
        counts, skipped, gram_r2 = self._patched_counts(monkeypatch, collinear, scenario)
        assert len(gram_r2) == 5 and np.isnan(gram_r2).all()
        assert counts == [0] * 19 and skipped == 5

    def test_constant_outcome_rejects_at_every_margin(self, monkeypatch):
        scenario = Scenario(id="flat", n=60, k=2, beta=np.zeros(2), sigma2=1.0,
                            sigma_matrix=exchangeable_covariance(2), beta0=2.5)

        def constant(generator, out, *key_parts):
            out[:] = RandomStream(*key_parts).standard_normal(out.size)
            out[-scenario.n :] = 0.0  # no noise, so y = beta0 = 2.5

        x, y = self._formed(scenario, constant)
        assert (y == 2.5).all()
        assert fit_ols(Dataset(y=y, x=x)).constant_outcome
        counts, skipped, gram_r2 = self._patched_counts(monkeypatch, constant, scenario)
        assert len(gram_r2) == 5 and np.isnan(gram_r2).all()
        assert counts == [5] * 19 and skipped == 0


class TestReplicateKernel:
    """``_replicate_counts`` draws ``generate_dataset``'s normals and reads R2
    from their cross-products without forming x or y."""

    @staticmethod
    def _roots(scenario):
        return np.array([mc._critical_r2(scenario.n, scenario.k, d, 0.05)
                         for d in default_delta_grid()])

    def test_normals_are_those_of_the_replicate_streams(self, monkeypatch):
        scenario = _small_scenario(n=75, k=2)
        draws = []
        draw_normals = mc._draw_normals

        def recorded(generator, out, *key_parts):
            draw_normals(generator, out, *key_parts)
            draws.append((key_parts, out.copy()))

        monkeypatch.setattr(mc, "_draw_normals", recorded)
        # one span of several replicates: each re-keying must replay its
        # stream from the start, whatever the last draw left buffered
        mc._replicate_counts(scenario, 3, 9, 17, self._roots(scenario))
        assert [key for key, _ in draws] == [(17, scenario.id, j) for j in range(3, 9)]
        for key_parts, normals in draws:
            stream = RandomStream(*key_parts)
            z = stream.standard_normal((scenario.n, scenario.k))
            e = stream.standard_normal(scenario.n)
            np.testing.assert_array_equal(normals, np.concatenate([z.ravel(), e]))

    def test_stream_key_and_first_normals_are_pinned(self):
        # Re-keying would change every draw that the acceptance criteria were
        # validated on, so one paper-grid replicate's Philox key and first
        # normals are literals.  The key is read back from the re-keyed state.
        generator = np.random.Generator(np.random.Philox())
        normals = np.empty(4)
        mc._draw_normals(generator, normals, 1, "k2_n0060_v0.4", 0)
        key = generator.bit_generator.state["state"]["key"]
        assert [int(word) for word in key] == [0x01FB77697CB35615, 0x85F4F5393795DF67]
        assert normals.tolist() == [
            -0.5205411160272022, 0.7753610244618323, -0.5042049033390128, -0.14578264853868705
        ]
        assert RandomStream(1, "k2_n0060_v0.4", 0).standard_normal(4).tolist() == normals.tolist()

    @pytest.mark.parametrize(
        "scenario,n_sims",
        [(s, 20) for s in paper_grid()]
        + [(Scenario(id="k2_n1e6", n=10**6, k=2, beta=np.array([0.07, -0.07]), sigma2=1.0,
                     sigma_matrix=exchangeable_covariance(2)), 2)],
        ids=lambda value: value.id if isinstance(value, Scenario) else str(value),
    )
    def test_r2_equals_qr_fit_of_the_dataset(self, monkeypatch, scenario, n_sims):
        values = _record_gram_r2(monkeypatch)
        mc._replicate_counts(scenario, 0, n_sims, 5, self._roots(scenario))
        assert len(values) == n_sims
        for j, r2 in enumerate(values):
            expected = r_squared(generate_dataset(scenario, RandomStream(5, scenario.id, j)))
            assert not np.isnan(r2) and abs(r2 - expected) <= 1e-12

    def test_span_in_small_batches_equals_exact_evaluation(self, monkeypatch):
        scenario = [s for s in paper_grid() if s.n == 60 and s.k == 2][0]
        # batches of three replicates: the span [5, 22) ends in a batch of two
        monkeypatch.setattr(mc, "_BATCH_FLOATS", 3 * scenario.n * (scenario.k + 3) + 1)
        draws = []
        draw_normals = mc._draw_normals

        def recorded(generator, out, *key_parts):
            draws.append(key_parts[-1])
            draw_normals(generator, out, *key_parts)

        monkeypatch.setattr(mc, "_draw_normals", recorded)
        counts = mc._replicate_counts(scenario, 5, 22, 9, self._roots(scenario))
        assert draws == list(range(5, 22))
        assert counts == replicate_counts_exact(
            scenario, default_delta_grid(), 22, 0.05, 9, start=5
        )
        assert 0 < sum(counts[0]) < 19 * 17

    @pytest.mark.parametrize(
        "n,k,deltas,n_sims",
        [
            # three workers take spans of five, shorter than one batch
            (60, 2, [0.1, 0.2, 0.3], 60),
            (8000, 4, [0.034, 0.038, 0.042], 60),
            (10**6, 2, [0.0322, 0.0325, 0.0328], 6),
        ],
        ids=["k2_n60", "k4_n8000", "k2_n1e6"],
    )
    def test_thread_count_does_not_change_counts(self, n, k, deltas, n_sims):
        scenario = Scenario(id=f"threads_k{k}_n{n}", n=n, k=k, beta=np.array(GRID_BETAS[k]),
                            sigma2=1.0, sigma_matrix=exchangeable_covariance(k))
        serial = run_scenario(scenario, deltas, n_sims, 0.05, 23, workers=1)
        threaded = run_scenario(scenario, deltas, n_sims, 0.05, 23, workers=3)
        assert _counts(serial) == _counts(threaded)
        # margins next to the true share, so the counts say something
        assert 0 < sum(_counts(serial)[0]) < len(deltas) * n_sims


class TestGridConstruction:
    def test_thirty_scenarios(self):
        grid = paper_grid()
        assert len(grid) == 30
        assert len({s.id for s in grid}) == 30

    def test_two_covariate_cells_share_the_fixed_beta(self):
        for scenario in paper_grid():
            if scenario.k == 2:
                np.testing.assert_array_equal(scenario.beta, [0.11, -0.15])
            else:
                np.testing.assert_array_equal(scenario.beta, [0.11, 0.10, -0.05, -0.10])

    def test_analytic_variance_shares(self):
        shares = {
            round(true_p2(s.beta, s.sigma_matrix, s.sigma2), 4) for s in paper_grid()
        }
        assert shares == {0.0319, 0.032, 0.0618, 0.062, 0.0761, 0.0763}
        rounded = {
            round(true_p2(s.beta, s.sigma_matrix, s.sigma2), 2) for s in paper_grid()
        }
        assert rounded == {0.03, 0.06, 0.08}

    def test_default_margin_grid(self):
        grid = default_delta_grid()
        assert len(grid) == 19
        assert grid[0] == 0.01 and grid[-1] == 0.10
        steps = {round(b - a, 6) for a, b in zip(grid, grid[1:])}
        assert steps == {0.005}

    def test_exchangeable_covariance_edge_cases(self):
        np.testing.assert_array_equal(exchangeable_covariance(1), [[1.0]])
        with pytest.raises(DomainError):
            exchangeable_covariance(3, offdiag=-0.6)

    def test_scenario_validation(self):
        with pytest.raises(DimensionMismatchError):
            Scenario(
                id="bad",
                n=50,
                k=2,
                beta=np.array([0.1]),
                sigma2=1.0,
                sigma_matrix=np.eye(2),
            )
        with pytest.raises(DomainError):
            Scenario(
                id="bad",
                n=50,
                k=2,
                beta=np.array([0.1, 0.2]),
                sigma2=-1.0,
                sigma_matrix=np.eye(2),
            )

    def test_covariance_is_factored_when_built(self):
        for sigma, error in [
            ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefiniteError),
            ([[1.0, 0.3], [0.0, 1.0]], DomainError),
            ([[1.0, np.nan], [np.nan, 1.0]], DomainError),
            ([[1.0, np.inf], [np.inf, 1.0]], DomainError),
            ([[1.0, 1.0], [1.0, 1.0]], NotPositiveDefiniteError),
            # positive definite, but its last pivot is 1e-13, below 1e-12
            ([[1.0, 1.0], [1.0, 1.0 + 1e-13]], NotPositiveDefiniteError),
        ]:
            with pytest.raises(error):
                Scenario(id="bad", n=50, k=2, beta=np.array([0.1, 0.2]), sigma2=1.0,
                         sigma_matrix=np.array(sigma))

    # 3e17 rows of k + 1 = 3 doubles fit the index range, but the replicate
    # kernel's buffer of k + 3 columns does not
    @pytest.mark.parametrize("n", [10**30, 2**62, 3 * 10**17])
    def test_unaddressable_design_is_rejected(self, n):
        with pytest.raises(DomainError, match="'huge'"):
            Scenario(
                id="huge", n=n, k=2, beta=np.array([0.1, 0.2]), sigma2=1.0,
                sigma_matrix=np.eye(2),
            )
