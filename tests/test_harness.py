import math

import numpy as np
import pytest
from scipy import stats

from rapidpp import (
    CoxBase,
    CtmcModel,
    ExperimentSpec,
    ExponentialService,
    PmfEstimate,
    PeriodicIntensity,
    PmfVector,
    PoissonBase,
    RenewalGammaBase,
    chi_square_gof,
    chi_square_two_sample,
    construction_equivalence_test,
    convergence_study,
    estimate_pmf,
    marginal_tv_distance,
    poisson_pmf,
    tv_limit_exact,
)

from conftest import make_two_state


def constant_spec(rate=1.0, t=1.0):
    return ExperimentSpec(PoissonBase(rate), t)


class TestEstimatePmf:
    def test_single_replication_is_a_point_mass(self, two_state_model):
        spec = ExperimentSpec(two_state_model, 1.0, 0.5)
        est = estimate_pmf(spec, 1, 0)
        assert est.counts.sum() == 1
        assert np.isclose(est.probs.sum(), est.counts[: est.kmax + 1].sum())

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
        est = estimate_pmf(constant_spec(rate=2.0), 50_000, 0)
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

    def test_grid_must_decrease(self, two_state_model):
        with pytest.raises(ValueError):
            convergence_study(two_state_model, None, [0.1, 0.4], 1.0, 100, 0)

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
    def test_thinned_cox_takes_the_modulated_correction(self, two_state_model):
        thinned = ExperimentSpec(CoxBase(two_state_model), 1.0, 0.2).expansion()
        direct = ExperimentSpec(two_state_model, 1.0, 0.2).expansion()
        for a, b in zip(thinned, direct):
            np.testing.assert_array_equal(a.probs, b.probs)

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


class TestSpecValidation:
    def test_queue_rejects_renewal_model(self):
        with pytest.raises(ValueError):
            ExperimentSpec(RenewalGammaBase(2.0, 2.0), 1.0, 0.5, ExponentialService(1.0))

    def test_unsupported_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(object(), 1.0)

    def test_eps_range_enforced(self, two_state_model):
        with pytest.raises(ValueError):
            ExperimentSpec(two_state_model, 1.0, 1.5)
