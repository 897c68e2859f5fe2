import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rapidpp import (
    ArgumentError,
    CtmcModel,
    ErlangService,
    ExperimentSpec,
    ExponentialService,
    GeneratorMatrix,
    PmfEstimate,
    PeriodicIntensity,
    PmfVector,
    PoissonBase,
    RenewalGammaBase,
    UniformService,
    analyze,
    convergence_study,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    estimate_pmf,
    mean_q0,
    poisson_pmf,
    tv_limit_exact,
)

from rapidpp import arrivals, harness
from rapidpp.expansions import MAX_KMAX
from rapidpp.harness import CHUNK_SIZE, MIN_BASELINE_PROB, Z99

from conftest import make_two_state
from gof import (
    _chi2_result,
    chi_square_gof,
    chi_square_two_sample,
    construction_equivalence_test,
    marginal_tv_distance,
)


def constant_spec(rate=1.0, t=1.0):
    return ExperimentSpec(PoissonBase(rate), t)


class TestEstimatePmf:
    def test_single_replication_is_a_point_mass(self, two_state_model):
        spec = ExperimentSpec(two_state_model, 1.0, 0.5)
        est = estimate_pmf(spec, 1, 0)
        assert est.counts.sum() == 1
        assert np.isclose(est.probs.sum(), est.counts[: est.kmax + 1].sum())

    @pytest.mark.parametrize("workers", [1, 4])
    def test_counts_end_in_one_overflow_bin(self, workers):
        spec = constant_spec(rate=5.0)
        reps = CHUNK_SIZE + 1_000
        est = estimate_pmf(spec, reps, 3, kmax=2, workers=workers)
        seqs = np.random.SeedSequence(3).spawn(2)  # spawn keys (0,) and (1,): the chunks' streams
        draws = np.concatenate([
            spec.sample_counts(size, np.random.default_rng(seq))
            for seq, size in zip(seqs, [CHUNK_SIZE, 1_000])
        ])
        expected = [*(np.count_nonzero(draws == k) for k in range(3)), np.count_nonzero(draws > 2)]
        np.testing.assert_array_equal(est.counts, expected)
        assert est.counts.sum() == reps

    def test_constant_rate_sanity(self):
        est = estimate_pmf(constant_spec(), 100_000, 7)
        p = math.exp(-1)
        se = math.sqrt(p * (1 - p) / est.reps)
        assert abs(est.probs[0] - p) < 3 * se
        assert est.ci_low[0] <= p <= est.ci_high[0]

    def test_worker_count_does_not_change_results(self, two_state_model):
        spec = ExperimentSpec(two_state_model, 1.0, 0.25)
        est1 = estimate_pmf(spec, 50_000, 42, workers=1)
        est8 = estimate_pmf(spec, 50_000, 42, workers=8)
        np.testing.assert_array_equal(est1.counts, est8.counts)
        np.testing.assert_array_equal(est1.probs, est8.probs)
        np.testing.assert_array_equal(est1.ci_low, est8.ci_low)

    def test_rerun_with_same_seed_is_identical(self):
        est1 = estimate_pmf(constant_spec(), 30_000, 5)
        est2 = estimate_pmf(constant_spec(), 30_000, 5)
        np.testing.assert_array_equal(est1.counts, est2.counts)

    def test_stream_key_gives_independent_estimates(self):
        est1 = estimate_pmf(constant_spec(), 30_000, 5, stream_key=(0,))
        est2 = estimate_pmf(constant_spec(), 30_000, 5, stream_key=(1,))
        assert not np.array_equal(est1.counts, est2.counts)

    def test_no_replications_rejected(self):
        with pytest.raises(ValueError):
            estimate_pmf(constant_spec(), 0, 1)

    def test_counts_must_sum_to_reps(self):
        with pytest.raises(ValueError):
            PmfEstimate.from_counts([1, 2], 4, 1)

    def test_counts_must_cover_zero_to_kmax(self):
        # padding would return fewer than kmax + 1 probabilities without a word
        with pytest.raises(ValueError, match="^counts must cover 0..kmax$"):
            PmfEstimate.from_counts([3], 3, 2)

    def test_counts_always_sum_to_reps(self, two_state_model):
        spec = ExperimentSpec(two_state_model, 1.0, 0.5)
        est = estimate_pmf(spec, 12_345, 3, kmax=2)
        assert est.counts.sum() == 12_345
        assert est.probs.size == 3

    def test_wald_interval_coverage(self):
        # 99% intervals over bins with expected count >= 20, pooled over runs
        truth = poisson_pmf(5.0, 15).probs
        reps = 100_000
        covered = total = 0
        for seed in range(20):
            est = estimate_pmf(constant_spec(rate=5.0), reps, seed, kmax=15)
            eligible = truth * reps >= 20
            covered += int(
                np.sum((est.ci_low <= truth) & (truth <= est.ci_high) & eligible)
            )
            total += int(eligible.sum())
        assert covered / total >= 0.97


    def test_count_table_is_built_once_per_run(self, monkeypatch):
        built = []
        build = arrivals._cox_count_pmf

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(arrivals, "_cox_count_pmf", counting)
        spec = ExperimentSpec(make_two_state(), 1.0, 0.05)
        est = estimate_pmf(spec, 4 * CHUNK_SIZE, 3)
        assert est.counts.sum() == 4 * CHUNK_SIZE
        assert len(built) == 1


# queue-validate's experiment: the worked model, Erlang(2, 2) service, t = 1
QUEUE_SERVICE = ErlangService(2, 2.0)


def queue_spec(eps, model=None):
    return ExperimentSpec(model or make_two_state(), 1.0, eps, QUEUE_SERVICE)


class TestConditionalEstimate:
    def test_independent_of_workers_and_rerun(self):
        spec = queue_spec(0.1)
        runs = [
            estimate_pmf(spec, 2 * CHUNK_SIZE + 1000, 8, conditional=True, workers=w)
            for w in (1, 4, 1)
        ]
        for est in runs[1:]:
            np.testing.assert_array_equal(est.probs, runs[0].probs)
            np.testing.assert_array_equal(est.se, runs[0].se)
        assert runs[0].counts is None

    def test_reported_se_matches_the_spread_over_seeds(self):
        spec = queue_spec(0.2)
        kmax = spec.expansion()[0].kmax
        ests = [estimate_pmf(spec, 4096, seed, kmax, conditional=True) for seed in range(40)]
        probs = np.array([e.probs for e in ests])
        mean_se = np.mean([e.se for e in ests], axis=0)
        bins = probs.mean(axis=0) >= MIN_BASELINE_PROB
        ratio = probs.std(axis=0, ddof=1)[bins] / mean_se[bins]
        assert np.all((0.75 <= ratio) & (ratio <= 1.25)), ratio

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_agrees_with_drawn_counts(self, eps):
        spec = queue_spec(eps)
        kmax = spec.expansion()[0].kmax
        cond = estimate_pmf(spec, 50_000, 3, kmax, conditional=True, stream_key=(0,))
        drawn = estimate_pmf(spec, 50_000, 3, kmax, stream_key=(1,))
        bins = drawn.counts[: kmax + 1] > 0
        gap = np.abs(cond.probs - drawn.probs)[bins]
        assert np.all(gap <= 4.5 * np.hypot(cond.se, drawn.se)[bins])

    def test_stays_normalized_where_exp_of_minus_the_mean_underflows(self):
        # a one-state chain at rate 1300 with service that outlasts t: the occupancy
        # is Poisson(1300) on every path, where poisson_pmf's exp(-M) start is 0
        spec = ExperimentSpec(PoissonBase(1300.0), 1.0, 1.0, UniformService(2.0, 3.0))
        kmax = 1400
        assert not poisson_pmf(1300.0, kmax).probs.any()
        est = estimate_pmf(spec, 100, 1, kmax, conditional=True)
        assert est.probs.sum() == pytest.approx(1.0 - stats.poisson.sf(kmax, 1300.0), abs=1e-12)
        np.testing.assert_allclose(est.probs, stats.poisson.pmf(np.arange(kmax + 1), 1300.0),
                                   rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.02])
    def test_halves_the_binomial_se_at_queue_validate(self, eps):
        spec = queue_spec(eps)
        base = spec.expansion()[0]
        est = estimate_pmf(spec, CHUNK_SIZE, 21, base.kmax, conditional=True)
        binomial = np.sqrt(est.probs * (1.0 - est.probs) / est.reps)
        bins = base.probs >= MIN_BASELINE_PROB
        assert np.all(est.se[bins] <= 0.5 * binomial[bins])

    @pytest.mark.parametrize("reps", [2 * CHUNK_SIZE + 1000, 500])
    def test_is_the_regression_on_the_exact_mean(self, reps):
        # the chunk merge gives the one-sample regression estimate and its residual se
        spec = queue_spec(0.1)
        kmax = spec.expansion()[0].kmax
        est = estimate_pmf(spec, reps, 4, kmax, conditional=True)
        means = np.concatenate([
            spec.sample_counts(min(CHUNK_SIZE, reps - start), np.random.default_rng(
                np.random.SeedSequence(4, spawn_key=(c,))), conditional=True)
            for c, start in enumerate(range(0, reps, CHUNK_SIZE))
        ])
        terms = stats.poisson.pmf(np.arange(kmax + 1)[:, None], means)
        dev_m = means - means.mean()
        dev_p = terms - terms.mean(axis=1, keepdims=True)
        beta = dev_p @ dev_m / (dev_m @ dev_m)
        probs = terms.mean(axis=1) - beta * (means.mean() - spec.occupancy_mean())
        rss = ((dev_p - beta[:, None] * dev_m) ** 2).sum(axis=1)
        np.testing.assert_allclose(est.probs, probs, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(est.se, np.sqrt(rss / (reps - 2) / reps), rtol=1e-7)

    def test_without_an_exact_mean_it_is_the_plain_average(self, monkeypatch):
        spec = queue_spec(0.1)
        kmax = spec.expansion()[0].kmax
        controlled = estimate_pmf(spec, 5000, 6, kmax, conditional=True)
        monkeypatch.setattr(ExperimentSpec, "occupancy_mean", lambda self: None)
        plain = estimate_pmf(spec, 5000, 6, kmax, conditional=True)
        means = spec.sample_counts(5000, np.random.default_rng(
            np.random.SeedSequence(6, spawn_key=(0,))), conditional=True)
        terms = stats.poisson.pmf(np.arange(kmax + 1)[:, None], means)
        np.testing.assert_allclose(plain.probs, terms.mean(axis=1), rtol=1e-12, atol=1e-17)
        np.testing.assert_allclose(
            plain.se, terms.std(axis=1, ddof=2) / math.sqrt(5000), rtol=1e-9, atol=1e-17
        )
        bins = plain.probs >= MIN_BASELINE_PROB
        assert np.all(controlled.se[bins] < plain.se[bins])

    def test_largest_kmax_adds_only_zero_bins(self):
        # every path's terms underflow to zero before count 200, and the columns past
        # that are not formed, so the largest kmax takes about a second, not minutes
        spec = queue_spec(0.05)
        small = estimate_pmf(spec, CHUNK_SIZE + 100, 7, 200, conditional=True)
        start = time.perf_counter()
        large = estimate_pmf(spec, CHUNK_SIZE + 100, 7, MAX_KMAX, conditional=True)
        assert time.perf_counter() - start < 20.0
        assert np.array_equal(large.probs[:201], small.probs)
        assert np.array_equal(large.se[:201], small.se)
        assert not large.probs[201:].any() and not large.se[201:].any()

    def test_occupancy_mean_of_a_constant_rate(self):
        constant = ExperimentSpec(PoissonBase(2.0), 1.0, None, QUEUE_SERVICE)
        si = float(QUEUE_SERVICE.survival_integral(1.0))
        assert constant.occupancy_mean() == pytest.approx(2.0 * si, rel=1e-14)

    def test_no_occupancy_mean_where_q_over_eps_overflows(self):
        assert queue_spec(5e-324).occupancy_mean() is None

    @pytest.mark.parametrize("reps", [1, 2])
    def test_too_few_reps_for_a_residual_se(self, reps):
        with pytest.raises(ArgumentError) as info:
            estimate_pmf(queue_spec(0.2), reps, 0, conditional=True)
        assert info.value.path == "reps"
        assert estimate_pmf(queue_spec(0.2), 3, 0, conditional=True).se.any()

    def test_count_experiments_have_no_conditional_means(self, two_state_model):
        spec = ExperimentSpec(two_state_model, 1.0, 0.2)
        with pytest.raises(ValueError):
            spec.sample_counts(10, np.random.default_rng(0), conditional=True)
        with pytest.raises(ValueError):
            estimate_pmf(spec, 10, 0, conditional=True)


class TestMarginalTv:
    def test_exact_match_gives_zero(self):
        est = PmfEstimate.from_counts(np.array([100]), 100, 0)
        ref = PmfVector(np.array([1.0]), 0, 0.0)
        assert marginal_tv_distance(est, ref) == 0.0

    def test_disjoint_supports_give_one(self):
        est = PmfEstimate.from_counts(np.array([0, 0, 0, 0, 0, 50]), 50, 5)
        ref = PmfVector(np.array([1.0, 0, 0, 0, 0, 0]), 5, 0.0)
        assert marginal_tv_distance(est, ref) == pytest.approx(1.0)

    def test_kmax_mismatch_rejected(self):
        est = PmfEstimate.from_counts(np.array([10]), 10, 0)
        ref = PmfVector(np.array([0.5, 0.5]), 1, 0.0)
        with pytest.raises(ValueError):
            marginal_tv_distance(est, ref)


class TestChiSquare:
    def test_gof_null_p_values_are_healthy(self):
        hits = 0
        for seed in range(20):
            est = estimate_pmf(constant_spec(rate=2.0), 20_000, 100 + seed)
            res = chi_square_gof(est.counts, poisson_pmf(2.0))
            hits += res.p_value > 0.01
        assert hits >= 17

    def test_gof_detects_wrong_mean(self):
        est = estimate_pmf(constant_spec(rate=2.0), 50_000, 0, kmax=poisson_pmf(2.2).kmax)
        res = chi_square_gof(est.counts, poisson_pmf(2.2))
        assert res.p_value < 1e-6

    def test_two_sample_null(self):
        a = estimate_pmf(constant_spec(), 50_000, 1, stream_key=(0,))
        b = estimate_pmf(constant_spec(), 50_000, 1, stream_key=(1,))
        assert chi_square_two_sample(a.counts, b.counts).p_value > 0.01

    def test_two_sample_power_on_doubled_rates(self, two_state_model):
        # rates f versus 2f must be distinguished decisively
        doubled = make_two_state(rates=(0.0, 4.0))
        a = estimate_pmf(
            ExperimentSpec(two_state_model, 1.0, 0.2),
            100_000,
            9,
            stream_key=(0,),
        )
        b = estimate_pmf(
            ExperimentSpec(doubled, 1.0, 0.2),
            100_000,
            9,
            stream_key=(1,),
        )
        assert chi_square_two_sample(a.counts, b.counts).p_value < 1e-6

    @pytest.mark.parametrize("counts", [[], [0]])
    def test_two_empty_samples_rejected(self, counts):
        with pytest.raises(ValueError):
            chi_square_two_sample(counts, counts)

    @given(statistic=st.floats(0.0, 1e4), dof=st.integers(1, 500))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_p_value_matches_stats(self, statistic, dof):
        assert _chi2_result(statistic, dof + 1).p_value == float(stats.chi2.sf(statistic, dof))

    def test_z99_matches_stats(self):
        assert Z99 == float(stats.norm.ppf(0.995))


class TestConstructionEquivalence:
    def test_two_state_agreement(self, two_state_model):
        res = construction_equivalence_test(two_state_model, 0.2, 1.0, 100_000, 21)
        assert res.p_value > 0.01

    def test_p_values_not_degenerate_under_null(self):
        model = make_two_state(rates=(1.0, 1.0))
        hits = 0
        for seed in range(20):
            res = construction_equivalence_test(model, 0.3, 1.0, 10_000, seed)
            hits += res.p_value > 0.01
        assert hits >= 17


class TestConvergenceStudy:
    def test_constant_rates_leave_no_residual(self):
        model = make_two_state(rates=(1.0, 1.0))
        report = convergence_study(model, None, [0.5, 0.1], 1.0, 50_000, 13)
        for entry in report.entries:
            assert entry.zeroth < 3.5 * entry.zeroth_se + 1e-12
            assert entry.first < 3.5 * entry.first_se + 1e-12
        # one state: every conditional mean is the same, so the estimate is exact
        one_state = CtmcModel(GeneratorMatrix([[0.0]]), [1.0])
        report = convergence_study(one_state, QUEUE_SERVICE, [0.5, 0.1], 1.0, 50_000, 13)
        for entry in report.entries:
            for value in (entry.zeroth, entry.zeroth_se, entry.first, entry.first_se):
                assert value < 1e-12
        est = estimate_pmf(queue_spec(0.1, one_state), 50_000, 13, conditional=True)
        assert np.all(est.se < 1e-12)

    def test_study_analyzes_its_model_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "analyze", lambda m: calls.append(m) or analyze(m))
        model = make_two_state()
        convergence_study(model, QUEUE_SERVICE, [0.4, 0.2, 0.1, 0.05], 1.0, 100, 5)
        assert calls == [model]

    def test_constant_rate_queue_study_analyzes_once(self, monkeypatch):
        # each spec wraps the rate in a one-state chain; one chain per rate hits the cache
        grid = [0.5, 0.25, 0.125, 0.0625]
        chain = CtmcModel(GeneratorMatrix([[0.0]]), [1.5])
        wrapped = convergence_study(chain, ExponentialService(1.0), grid, 1.0, 100, 5)
        harness._analysis.cache_clear()
        harness._one_state_chain.cache_clear()
        calls = []
        monkeypatch.setattr(harness, "analyze", lambda m: calls.append(m) or analyze(m))
        report = convergence_study(PoissonBase(1.5), ExponentialService(1.0), grid, 1.0, 100, 5)
        assert len(calls) == 1 and calls[0].n == 1
        assert report.to_json_dict() == wrapped.to_json_dict()

    def test_first_order_beats_zeroth_on_worked_example(self, two_state_model):
        report = convergence_study(two_state_model, None, [0.4, 0.1], 1.0, 200_000, 29)
        for entry in report.entries:
            assert entry.first <= entry.zeroth + 3 * (entry.zeroth_se + entry.first_se)

    def test_queue_variant_runs_and_reports(self, two_state_model):
        report = convergence_study(
            two_state_model, ExponentialService(1.0), [0.4, 0.2], 1.0, 50_000, 31
        )
        assert report.kind == "queue"
        assert len(report.entries) == 2
        doc = report.to_json_dict()
        assert doc["eps_grid"] == [0.4, 0.2]
        assert {"eps", "ratio", "ratio_se"} <= set(doc["entries"][0])

    def test_queue_validate_resolves_the_second_order_residual(self, two_state_model):
        # queue-validate's config: with the control variate residual/eps² stays in one
        # band, 0.055 to 0.08 on most seeds.  At eps 0.02 the max over bins can land on
        # bin 0 or 1, whose se the linear control leaves largest (1.4e-5 against 1.9e-6
        # at bin 2), and read up to 0.14 at 2.5 se; above it the residual is resolved.
        report = convergence_study(
            two_state_model, QUEUE_SERVICE, [0.2, 0.1, 0.05, 0.02], 1.0, 8 * CHUNK_SIZE, 17
        )
        for entry in report.entries:
            assert 0.045 <= entry.first / entry.eps**2 <= 0.15, entry
            assert entry.eps < 0.05 or entry.first >= 20 * entry.first_se, entry

    def test_grid_must_decrease(self, two_state_model):
        with pytest.raises(ValueError):
            convergence_study(two_state_model, None, [0.1, 0.4], 1.0, 100, 0)

    def test_grid_entries_must_lie_in_the_unit_interval(self, two_state_model):
        with pytest.raises(ArgumentError) as info:
            convergence_study(two_state_model, None, [1.5, 0.1], 1.0, 100, 0)
        assert info.value.path == "eps_grid"

    def test_weak_convergence_with_positive_path_tv(self, two_state_model):
        # marginal distance to the constant-rate pmf shrinks, yet the path
        # total-variation limit stays bounded away from zero
        ref = poisson_pmf(1.0)
        tvs = []
        for i, eps in enumerate((0.5, 0.1)):
            spec = ExperimentSpec(two_state_model, 1.0, eps)
            est = estimate_pmf(spec, 100_000, 37, kmax=ref.kmax, stream_key=(i,))
            tvs.append(marginal_tv_distance(est, ref))
        assert tvs[0] > tvs[1]
        assert tv_limit_exact(two_state_model, 1.0) > 0.39


class TestExpansion:
    def test_constant_rate_ignores_eps(self):
        spec = ExperimentSpec(PoissonBase(2.0), 1.5, 0.3)
        assert spec.eps == 1.0
        base, corrected = spec.expansion()
        assert spec.baseline_mean() == 3.0
        np.testing.assert_array_equal(base.probs, corrected.probs)

    def test_constant_rate_queue_runs_on_one_state_chain(self):
        service = ExponentialService(1.0)
        spec = ExperimentSpec(PoissonBase(2.0), 1.0, 0.3, service)
        assert isinstance(spec.model, CtmcModel) and spec.model.n == 1
        base, corrected = spec.expansion()
        np.testing.assert_array_equal(base.probs, corrected.probs)
        est = estimate_pmf(spec, 1_000, 3, kmax=base.kmax)
        assert est.counts.sum() == 1_000

    def test_renewal_and_periodic_at_zero_eps_give_the_baseline(self):
        for model in (RenewalGammaBase(2.0, 2.0), PeriodicIntensity([0.0, 0.5], [2.0, 0.0])):
            base, corrected = ExperimentSpec(model, 1.0, 0.0).expansion()
            assert base.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
            np.testing.assert_array_equal(base.probs, corrected.probs)


# (model, service, the baseline mean, the public corrected pmf at (eps, t, kmax) or None
# for the baseline); each CTMC case reads its environment from the spec's own chain
DISPATCH_T = 1.3
DISPATCH_CHAIN = make_two_state(rates=(0.5, 3.0))
DISPATCH_PERIODIC = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])
DISPATCH_RENEWAL = RenewalGammaBase(2.0, 3.0)


def _env(chain):
    res = analyze(chain)
    return res.lambda_star, float(res.g[chain.initial_state]), res.sigma2


def _queue_case(model, service):
    return (
        model,
        service,
        lambda chain: mean_q0(analyze(chain).lambda_star, service, DISPATCH_T),
        lambda chain, *rest: corrected_queue_pmf(*_env(chain), service, *rest),
    )


DISPATCH = {
    "ctmc": (
        DISPATCH_CHAIN,
        None,
        lambda chain: analyze(chain).lambda_star * DISPATCH_T,
        lambda chain, *rest: corrected_count_pmf(*_env(chain), *rest),
    ),
    "ctmc-exponential": _queue_case(DISPATCH_CHAIN, ExponentialService(1.5)),
    "ctmc-erlang": _queue_case(DISPATCH_CHAIN, ErlangService(3, 2.0)),
    "ctmc-uniform": _queue_case(DISPATCH_CHAIN, UniformService(0.2, 1.1)),
    "periodic": (
        DISPATCH_PERIODIC,
        None,
        lambda _: DISPATCH_PERIODIC.average_rate * DISPATCH_T,
        lambda _, *rest: corrected_count_pmf_periodic(DISPATCH_PERIODIC, *rest),
    ),
    "constant": (PoissonBase(2.0), None, lambda _: 2.0 * DISPATCH_T, None),
    "constant-queue": _queue_case(PoissonBase(2.0), ExponentialService(1.5)),
    "renewal": (
        DISPATCH_RENEWAL, None, lambda _: DISPATCH_RENEWAL.long_run_rate * DISPATCH_T, None
    ),
}


@pytest.mark.parametrize("case", list(DISPATCH))
def test_one_dispatch_feeds_the_mean_and_both_pmfs(case, monkeypatch):
    model, service, mean, direct = DISPATCH[case]
    kmax = 14
    spec = ExperimentSpec(model, DISPATCH_T, 0.2, service)
    calls = []
    monkeypatch.setattr(harness, "poisson_pmf", lambda *a: calls.append(a) or poisson_pmf(*a))
    base, corrected = spec.expansion(kmax)
    assert calls == [(spec.baseline_mean(), kmax)]
    assert spec.baseline_mean() == mean(spec.model)
    np.testing.assert_array_equal(base.probs, poisson_pmf(spec.baseline_mean(), kmax).probs)
    expected = base if direct is None else direct(spec.model, spec.eps, DISPATCH_T, kmax)
    np.testing.assert_array_equal(corrected.probs, expected.probs)


class TestSpecValidation:
    def test_queue_rejects_renewal_model(self):
        with pytest.raises(ValueError):
            ExperimentSpec(RenewalGammaBase(2.0, 2.0), 1.0, 0.5, ExponentialService(1.0))

    def test_queue_rejection_names_the_model(self):
        with pytest.raises(ArgumentError) as info:
            ExperimentSpec(RenewalGammaBase(2, 2), 1.0, 0.1, ExponentialService(1.0))
        assert str(info.value) == "model: queue experiments require an mmpp or constant model"

    def test_unsupported_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(object(), 1.0)

    def test_only_a_constant_rate_may_omit_eps(self, two_state_model):
        with pytest.raises(ArgumentError) as info:
            ExperimentSpec(two_state_model, 1.0, None)
        assert info.value.path == "eps"
        assert ExperimentSpec(PoissonBase(1.0), 1.0, None).eps == 1.0

    def test_eps_range_enforced(self, two_state_model):
        with pytest.raises(ValueError):
            ExperimentSpec(two_state_model, 1.0, 1.5)
