"""Tests for the simulation harness: generation, seeding, and rejection rates."""

import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from r2margin.regression import Dataset, fit_ols

from oracles import RandomStream, design, generate_dataset, r2_exact, replicate_counts_exact


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
        with pytest.raises(DimensionMismatchError):
            true_p2(np.zeros((2, 1)), np.eye(2), 1.0)

    def test_negative_signal_rejected(self):
        # beta' Sigma beta = 1 - 2 - 2 + 1 < 0: Sigma is indefinite
        with pytest.raises(NotPositiveDefiniteError):
            true_p2([1.0, 1.0], [[1.0, -2.0], [-2.0, 1.0]], 1.0)

    def test_rejects_non_positive_noise(self):
        with pytest.raises(DomainError):
            true_p2(np.zeros(2), np.eye(2), 0.0)


def _scenario(sigma, beta=None, sigma2=1.0):
    """A scenario with covariance ``sigma``, zero coefficients by default."""
    k = len(sigma)
    return Scenario(id="factor", n=k + 2, k=k, beta=np.zeros(k) if beta is None else beta,
                    sigma2=sigma2, sigma_matrix=sigma)


class TestCholeskyFactor:
    """A scenario keeps g = L' beta / sigma, L the Cholesky factor of its
    covariance, and |g|^2 = beta' Sigma beta / sigma2."""

    def test_identity_leaves_beta_over_sigma(self):
        beta = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(_scenario(np.eye(3), beta, 4.0).g, beta / 2.0)

    def test_signal_two_by_two(self):
        sigma = np.array([[1.0, 0.05], [0.05, 1.0]])
        beta = np.array([0.11, -0.15])
        scenario = _scenario(sigma, beta, 0.5)
        np.testing.assert_array_equal(
            scenario.g, np.linalg.cholesky(sigma).T @ beta / np.sqrt(0.5)
        )
        assert abs(scenario.g @ scenario.g / (beta @ sigma @ beta / 0.5) - 1.0) < 1e-14

    def test_signal_on_the_paper_grid(self):
        for scenario in paper_grid():
            beta, sigma = scenario.beta, scenario.sigma_matrix
            signal = beta @ sigma @ beta / scenario.sigma2
            assert abs(scenario.g @ scenario.g / signal - 1.0) < 1e-14
            assert scenario.p2 == true_p2(beta, sigma, scenario.sigma2)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            _scenario([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(DomainError):
            _scenario([[1.0, 0.3], [0.0, 1.0]])


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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        scenario = _small_scenario()
        monkeypatch.setenv("R2MARGIN_THREADS", "1")
        serial = run_scenario(scenario, [0.03, 0.06], 240, 0.05, 11)
        monkeypatch.setenv("R2MARGIN_THREADS", "3")
        threaded = run_scenario(scenario, [0.03, 0.06], 240, 0.05, 11)
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
        scenario = _small_scenario()
        # every replicate is skipped
        monkeypatch.setattr(mc, "_r2_from_normals", lambda grams, g: np.full(len(grams), np.nan))
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
        monkeypatch.setenv("R2MARGIN_THREADS", "1")
        serial = run_scenario(_small_scenario(), [0.05], 30, 0.05, 1)
        assert records[0].rejections == serial[0].rejections

    def test_thread_count_is_capped_at_the_cpu_count(self, monkeypatch):
        # only the resolver runs: no simulation is started at this setting
        monkeypatch.setenv("R2MARGIN_THREADS", str(10**6))
        assert mc._resolve_workers() <= os.cpu_count()
        monkeypatch.setenv("R2MARGIN_THREADS", "0")
        assert mc._resolve_workers() == os.cpu_count()
        monkeypatch.setenv("R2MARGIN_THREADS", "-1")
        with pytest.raises(DomainError):
            mc._resolve_workers()

    @pytest.mark.parametrize("threads", [None, "1"], ids=["unset", "one"])
    def test_serial_run_starts_no_thread(self, monkeypatch, threads):
        scenario = _small_scenario()
        if threads is None:
            monkeypatch.delenv("R2MARGIN_THREADS", raising=False)
        else:
            monkeypatch.setenv("R2MARGIN_THREADS", threads)
        # batches of two replicates, so that the run maps several
        monkeypatch.setattr(mc, "_BATCH_FLOATS", 2 * scenario.n * (scenario.k + 1))

        def refuse(thread):
            raise AssertionError(f"a serial run started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        records = run_scenario(scenario, [0.05], 10, 0.05, 1)
        assert records[0].n_sims == 10


def _record_r2(monkeypatch):
    """Patch the kernel's ``_r2_from_normals`` to record what it returns, one
    float per replicate; the list it records into."""
    values = []
    r2_from_normals = mc._r2_from_normals

    def recorded(grams, g):
        r2 = r2_from_normals(grams, g)
        values.extend(r2.tolist())
        return r2

    monkeypatch.setattr(mc, "_r2_from_normals", recorded)
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
        monkeypatch.setattr(mc, "_r2_from_normals", lambda grams, g: np.full(len(grams), r2))
        records = run_scenario(scenario, deltas, 3, 0.05, 1)
        assert _counts(records) == ([3 if root > r2 else 0 for root in roots], 0)
        assert records[9].rejections == (3 if offset < 0 else 0)

    def _patched_counts(self, monkeypatch, fill, scenario):
        """Counts and skips of five replicates whose normals ``fill`` writes,
        and what ``_r2_from_normals`` returned for each."""
        monkeypatch.setattr(mc, "_draw_normals", fill)
        gram_r2 = _record_r2(monkeypatch)
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
        return design(scenario, normals[: n * k].reshape(n, k), noise)

    # collinear covariate normals, and so collinear x = z L'; or no noise and
    # beta = 0, so that y = 0 is constant: neither replicate has an R2
    @pytest.mark.parametrize("case", ["collinear", "noiseless"])
    def test_degenerate_normals_are_skipped(self, monkeypatch, case):
        beta = np.array([0.2, -0.1]) if case == "collinear" else np.zeros(2)
        scenario = Scenario(id=case, n=60, k=2, beta=beta, sigma2=1.0,
                            sigma_matrix=exchangeable_covariance(2))

        def degenerate(generator, out, *key_parts):
            out[:] = RandomStream(*key_parts).standard_normal(out.size)
            if case == "collinear":
                z = out[: 2 * scenario.n].reshape(scenario.n, 2)
                z[:, 1] = 2.0 * z[:, 0]
            else:
                out[-scenario.n :] = 0.0

        x, y = self._formed(scenario, degenerate)
        if case == "collinear":
            with pytest.raises(RankDeficiencyError):
                fit_ols(Dataset(y=y, x=x))
        else:
            assert (y == 0.0).all()
        counts, skipped, gram_r2 = self._patched_counts(monkeypatch, degenerate, scenario)
        # one value per replicate: a refused stack is retried matrix by matrix
        # without re-entering through the module
        assert len(gram_r2) == 5 and np.isnan(gram_r2).all()
        assert counts == [0] * 19 and skipped == 5


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
        values = _record_r2(monkeypatch)
        mc._replicate_counts(scenario, 0, n_sims, 5, self._roots(scenario))
        assert len(values) == n_sims
        for j, r2 in enumerate(values):
            expected = fit_ols(generate_dataset(scenario, RandomStream(5, scenario.id, j))).r2
            assert not np.isnan(r2) and abs(r2 - expected) <= 1e-12

    # where the cross-products of x and y lose digits: nearly collinear x,
    # a nearly noiseless y, and no signal at all
    @pytest.mark.parametrize(
        "n,beta,sigma2,offdiag",
        [
            (60, [0.11, -0.15], 1.0, 0.999999),
            (1000, [0.11, -0.15], 1.0, 0.999999),
            (60, [0.11, -0.15], 1e-10, 0.05),
            (1000, [0.11, -0.15], 1e-10, 0.05),
            (60, [0.0, 0.0], 1.0, 0.05),
            (1000, [0.0, 0.0], 1.0, 0.05),
            (8000, [0.0, 0.0], 1.0, 0.05),
        ],
        ids=["collinear60", "collinear1000", "noiseless60", "noiseless1000",
             "null60", "null1000", "null8000"],
    )
    def test_r2_matches_exact_fit_of_the_dataset(self, monkeypatch, n, beta, sigma2, offdiag):
        scenario = Scenario(id="hard", n=n, k=2, beta=np.array(beta), sigma2=sigma2,
                            sigma_matrix=exchangeable_covariance(2, offdiag))
        values = _record_r2(monkeypatch)
        mc._replicate_counts(scenario, 0, 2, 5, self._roots(scenario))
        for j, r2 in enumerate(values):
            data = generate_dataset(scenario, RandomStream(5, scenario.id, j))
            exact = r2_exact(data.y, data.x)
            assert abs(float(Fraction(r2) / exact) - 1.0) <= 1e-12

    def test_span_in_small_batches_equals_exact_evaluation(self, monkeypatch):
        scenario = [s for s in paper_grid() if s.n == 60 and s.k == 2][0]
        monkeypatch.delenv("R2MARGIN_THREADS", raising=False)
        # batches of three replicates: a run of 22 ends in a batch of one
        monkeypatch.setattr(mc, "_BATCH_FLOATS", 3 * scenario.n * (scenario.k + 1) + 1)
        draws, spans = [], []
        draw_normals, replicate_counts = mc._draw_normals, mc._replicate_counts

        def recorded_draw(generator, out, *key_parts):
            draws.append(key_parts[-1])
            draw_normals(generator, out, *key_parts)

        def recorded_batch(scenario, start, stop, *args):
            spans.append((start, stop))
            return replicate_counts(scenario, start, stop, *args)

        monkeypatch.setattr(mc, "_draw_normals", recorded_draw)
        monkeypatch.setattr(mc, "_replicate_counts", recorded_batch)
        counts = _counts(run_scenario(scenario, default_delta_grid(), 22, 0.05, 9))
        assert spans == [(lo, min(lo + 3, 22)) for lo in range(0, 22, 3)]
        assert draws == list(range(22))
        assert counts == replicate_counts_exact(scenario, default_delta_grid(), 22, 0.05, 9)
        assert 0 < sum(counts[0]) < 19 * 22

    @pytest.mark.parametrize(
        "n,k,deltas,n_sims",
        [
            # batches of 1456, 6 and 1 replicates
            (60, 2, [0.1, 0.2, 0.3], 6 * 1456),
            (8000, 4, [0.034, 0.038, 0.042], 60),
            (10**6, 2, [0.0322, 0.0325, 0.0328], 6),
        ],
        ids=["k2_n60", "k4_n8000", "k2_n1e6"],
    )
    def test_thread_count_does_not_change_counts(self, monkeypatch, n, k, deltas, n_sims):
        scenario = Scenario(id=f"threads_k{k}_n{n}", n=n, k=k, beta=np.array(GRID_BETAS[k]),
                            sigma2=1.0, sigma_matrix=exchangeable_covariance(k))
        # at least two batches for each of three workers
        assert n_sims >= 2 * 3 * max(1, mc._BATCH_FLOATS // (n * (k + 1)))
        monkeypatch.setenv("R2MARGIN_THREADS", "1")
        serial = run_scenario(scenario, deltas, n_sims, 0.05, 23)
        monkeypatch.setenv("R2MARGIN_THREADS", "3")
        threaded = run_scenario(scenario, deltas, n_sims, 0.05, 23)
        assert _counts(serial) == _counts(threaded)
        # margins next to the true share, so the counts say something
        assert 0 < sum(_counts(serial)[0]) < len(deltas) * n_sims


class TestR2FromNormals:
    """``_r2_from_normals`` on stacks of centered cross-products of normals."""

    @staticmethod
    def _stack(rng, size, n=80, k=3):
        """Centered cross-products of ``size`` draws of N rows of [z e]."""
        normals = rng.normal(size=(size, n, k + 1))
        centered = normals - normals.mean(axis=1, keepdims=True)
        return centered.transpose(0, 2, 1) @ centered

    @staticmethod
    def _r2(z, e, g):
        """``_r2_from_normals`` on the centered cross-products of one
        replicate's [z e], formed column by column with no shortcut."""
        columns = np.column_stack([z, e])
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite input leaves NaNs
            centered = columns - columns.mean(axis=0)
            gram = centered.T @ centered
        return float(mc._r2_from_normals(gram[None], np.asarray(g, dtype=float))[0])

    # y = z g + e is the replicate's outcome in its normals' own coordinates,
    # which sigma scales: g = L' beta / sigma
    @pytest.mark.parametrize("n,k", [(30, 1), (60, 3), (1000, 4), (100_000, 2)])
    def test_agrees_with_qr_fit(self, n, k):
        rng = np.random.default_rng(n + k)
        for sigma in (0.3, 1.0, 30.0):
            z = rng.normal(size=(n, k))
            e = rng.normal(size=n)
            g = rng.normal(size=k) / sigma
            r2 = self._r2(z, e, g)
            assert not np.isnan(r2)
            assert abs(r2 - fit_ols(Dataset(y=z @ g + e, x=z)).r2) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stack_equals_each_gram_alone(self, k):
        rng = np.random.default_rng(20 + k)
        grams = self._stack(rng, 37, k=k)
        g = rng.normal(size=k)
        stacked = mc._r2_from_normals(grams, g)
        alone = [mc._r2_from_normals(grams[i : i + 1], g)[0] for i in range(37)]
        assert not np.isnan(stacked).any()
        assert stacked.tolist() == alone

    def test_failed_grams_give_nan_and_leave_the_rest(self):
        rng = np.random.default_rng(31)
        grams = self._stack(rng, 6)
        g = np.array([0.3, -0.2, 0.1])
        expected = mc._r2_from_normals(grams, g)
        broken = grams.copy()
        broken[1, 2, 2] = -1.0  # not positive definite: Cholesky fails
        broken[4, 0, 3] = broken[4, 3, 0] = np.nan
        r2 = mc._r2_from_normals(broken, g)
        assert np.isnan(r2[[1, 4]]).all()
        keep = [0, 2, 3, 5]
        assert r2[keep].tolist() == expected[keep].tolist()

    def test_only_a_small_covariate_pivot_skips(self):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(80, 2))
        near = z[:, 0] + 1e-7 * rng.normal(size=80)
        grams = []
        # the second covariate, then the noise, within 1e-7 of the first's span
        for columns in (np.column_stack([z[:, 0], near, z[:, 1]]), np.column_stack([z, near])):
            centered = columns - columns.mean(axis=0)
            grams.append(centered.T @ centered)
        grams = np.array(grams)
        np.linalg.cholesky(grams)  # LAPACK factors both: only the pivot test tells
        r2 = mc._r2_from_normals(grams, np.zeros(2))
        assert np.isnan(r2[0])
        assert 1.0 - 1e-12 < r2[1] < 1.0

    def test_collinear_covariates_are_skipped(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(50, 3))
        z[:, 2] = z[:, 0] - 0.5 * z[:, 1]
        e = rng.normal(size=50)
        g = np.array([0.3, -0.2, 0.1])
        assert np.isnan(self._r2(z, e, g))
        with pytest.raises(RankDeficiencyError):
            fit_ols(Dataset(y=z @ g + e, x=z))

    # a nearly noiseless fit and no signal at all: where the cross-products
    # of x and y lose digits, those of the normals keep them
    @pytest.mark.parametrize("case", ["near_perfect", "null"])
    def test_matches_exact_fit(self, case):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(200, 2))
        e = rng.normal(size=200)
        g = np.array([0.5, -2.0]) * 1e6 if case == "near_perfect" else np.zeros(2)
        r2 = self._r2(z, e, g)
        exact = r2_exact(z @ g + e, z)
        assert abs(float(Fraction(r2) / exact) - 1.0) <= 1e-12

    def test_nearly_collinear_covariates_keep_an_r2(self):
        # squared covariate pivots near 1e-6 of their column's sum of squares
        # lie far above the skip limit; the error grows as the condition
        # number of z_c'z_c times eps, which iid normals keep small in the
        # kernel (here it is about 4e6)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(200, 2))
        z[:, 1] = z[:, 0] + 1e-3 * z[:, 1]
        e = rng.normal(size=200)
        g = np.array([0.5, -2.0])
        r2 = self._r2(z, e, g)
        centered = z - z.mean(axis=0)
        bound = np.linalg.cond(centered.T @ centered) * np.finfo(float).eps
        exact = r2_exact(z @ g + e, z)
        assert not np.isnan(r2)
        assert abs(float(Fraction(r2) / exact) - 1.0) <= bound

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflowing_signal_is_skipped(self, scale):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(40, 2))
        assert np.isnan(self._r2(z, rng.normal(size=40), [scale, 0.0]))

    def test_non_finite_input_is_skipped(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(30, 2))
        e = rng.normal(size=30)
        g = [0.4, 0.1]
        assert not np.isnan(self._r2(z, e, g))
        for bad in (np.inf, -np.inf, np.nan):
            broken = z.copy()
            broken[4, 1] = bad
            broken_e = e.copy()
            broken_e[7] = bad
            assert np.isnan(self._r2(broken, e, g))
            assert np.isnan(self._r2(z, broken_e, g))
            assert np.isnan(self._r2(z, e, [bad, 0.1]))

    # N from K + 2 up, signals from none to 1e3 noise standard deviations
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(1, 4).flatmap(
            lambda k: st.tuples(st.integers(k + 2, 5000), st.just(k))
        ),
        signal=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    )
    @example(seed=0, shape=(3, 1), signal=0.0)
    @example(seed=1, shape=(6, 4), signal=1e3)
    def test_matches_qr_fit_of_the_normals(self, seed, shape, signal):
        n, k = shape
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, k))
        e = rng.normal(size=n)
        g = signal * rng.normal(size=k)
        r2 = self._r2(z, e, g)
        assert abs(r2 - fit_ols(Dataset(y=z @ g + e, x=z)).r2) <= 1e-12


class TestR2DependsOnlyOnTheStandardizedSignal:
    # sigma2 and beta scaled by powers of two leave g = L' beta / sigma bit for
    # bit, and so every replicate's R2, count and skip
    @pytest.mark.parametrize("power", [-20, 2, 20])
    def test_noise_scale_leaves_r2_unchanged(self, monkeypatch, power):
        recorded = _record_r2(monkeypatch)
        roots = np.array([mc._critical_r2(60, 2, d, 0.05) for d in default_delta_grid()])
        runs = []
        for scale in (1.0, 2.0**power):
            scenario = Scenario(id="scaled", n=60, k=2, beta=scale * np.array([0.2, -0.1]),
                                sigma2=scale * scale, sigma_matrix=exchangeable_covariance(2))
            counts, skipped = mc._replicate_counts(scenario, 0, 5, 1, roots)
            runs.append((recorded[-5:], counts, skipped))
        assert len(recorded) == 10 and runs[0][2] == 0
        assert runs[1] == runs[0]


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

    def test_grid_scenarios_share_no_writable_array(self):
        grid = paper_grid()
        arrays = [a for s in grid for a in (s.beta, s.sigma_matrix, s.g)]
        assert not any(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    @pytest.mark.parametrize("name", ["beta", "sigma_matrix", "g"])
    def test_scenario_arrays_are_read_only(self, name):
        scenario = paper_grid()[0]
        with pytest.raises(ValueError, match="read-only"):
            getattr(scenario, name)[0] = 5.0

    def test_scenario_keeps_its_model_when_its_inputs_change(self):
        beta, sigma = np.array([0.11, -0.15]), exchangeable_covariance(2)
        scenario = Scenario(id="a", n=60, k=2, beta=beta, sigma2=0.5, sigma_matrix=sigma)
        p2, g = scenario.p2, scenario.g.copy()
        beta[0], sigma[0, 1] = 5.0, 0.9
        np.testing.assert_array_equal(scenario.beta, [0.11, -0.15])
        np.testing.assert_array_equal(scenario.sigma_matrix, exchangeable_covariance(2))
        assert scenario.p2 == p2 == true_p2(scenario.beta, scenario.sigma_matrix, 0.5)
        np.testing.assert_array_equal(scenario.g, g)

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

    @pytest.mark.parametrize("c", [1e-30, 1e-13, 1.0, 1e13, 1e30])
    def test_covariance_checks_do_not_depend_on_its_units(self, c):
        # c Sigma with beta / sqrt(c) is the same model as Sigma with beta
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 0.7]])
        beta = np.array([0.4, -0.25, 0.6])

        def build(sigma_matrix, beta=beta / np.sqrt(c)):
            return Scenario(id="units", n=50, k=3, beta=beta, sigma2=1.0,
                            sigma_matrix=sigma_matrix)

        unit, scaled = build(sigma, beta), build(c * sigma)
        assert np.linalg.norm(scaled.g - unit.g) <= 1e-15 * np.linalg.norm(unit.g)
        assert abs(scaled.p2 - unit.p2) <= 1e-15 * unit.p2
        for share, error in [(1e-15, None), (1e-9, DomainError)]:
            skewed = c * sigma
            skewed[0, 1] += share * c
            if error is None:
                build(skewed)
            else:
                with pytest.raises(error, match="must be symmetric"):
                    build(skewed)
        with pytest.raises(NotPositiveDefiniteError, match="Cholesky pivot"):
            build(c * np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0], [0.0, 0.0, 1.0]]))

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"n": 3}, DomainError, "n must be >= k + 2"),
            ({"k": 0}, DomainError, "k must be >= 1"),
            ({"beta": [0.1]}, DimensionMismatchError, "beta must have length k=2"),
            ({"beta": [0.1, np.inf]}, DomainError, "beta must be finite"),
            ({"sigma_matrix": np.eye(3)}, DimensionMismatchError, "sigma_matrix must be 2x2"),
            ({"sigma_matrix": [[1.0, 0.3], [0.0, 1.0]]}, DomainError,
             "sigma_matrix must be symmetric"),
            ({"sigma_matrix": [[1.0, 2.0], [2.0, 1.0]]}, NotPositiveDefiniteError,
             "sigma_matrix is not positive definite"),
            ({"sigma_matrix": [[1.0, 1.0], [1.0, 1.0 + 1e-13]]}, NotPositiveDefiniteError,
             "Cholesky pivot"),
            ({"sigma2": 0.0}, DomainError, "sigma2 must be > 0"),
            # P2 has no value, so the scenario fails before any replicate is drawn
            ({"beta": [1e200, 1e200], "sigma2": 1e300}, DomainError,
             "beta' Sigma beta must be finite, got inf"),
        ],
    )
    def test_errors_name_the_scenario(self, fields, error, message):
        spec = {"n": 50, "k": 2, "beta": [0.1, 0.2], "sigma2": 1.0, "sigma_matrix": np.eye(2)}
        with pytest.raises(error) as caught:
            Scenario(id="cell a", **{**spec, **fields})
        assert type(caught.value) is error
        assert str(caught.value).startswith(f"scenario 'cell a': {message}")

    # the most rows whose k + 1 = 3 doubles each, the replicate kernel's
    # buffer row, fit the index range
    _MOST_ADDRESSABLE_ROWS = np.iinfo(np.intp).max // (8 * 3)

    @pytest.mark.parametrize("n", [10**30, 2**62, _MOST_ADDRESSABLE_ROWS + 1])
    def test_unaddressable_design_is_rejected(self, n):
        with pytest.raises(DomainError, match="'huge'"):
            Scenario(
                id="huge", n=n, k=2, beta=np.array([0.1, 0.2]), sigma2=1.0,
                sigma_matrix=np.eye(2),
            )

    def test_design_at_the_addressable_limit_is_accepted(self):
        n = self._MOST_ADDRESSABLE_ROWS
        scenario = Scenario(id="huge", n=n, k=2, beta=np.array([0.1, 0.2]), sigma2=1.0,
                            sigma_matrix=np.eye(2))
        assert scenario.n == n
