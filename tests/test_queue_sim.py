import math

import numpy as np
import pytest

from rapidpp import (
    CtmcModel,
    ErlangService,
    ExponentialService,
    PmfVector,
    UniformService,
    chi_square_gof,
    chi_square_two_sample,
    mean_q0,
    poisson_pmf,
    sample_queue_counts,
    validate_generator,
)
from rapidpp.arrivals import _cox_count_pmf

from conftest import make_two_state, random_irreducible_model
from reference import (
    ArrivalStream,
    LengthMismatchError,
    number_in_system,
    sample_path,
    sample_service,
    simulate_queue_at_t,
)


def one_state_model(rate):
    return CtmcModel(validate_generator([[0.0]]), [rate])


class TestSampleService:
    def test_uniform_support(self, rng):
        service = UniformService(0.0, 2.0)
        draws = sample_service(service, 2000, rng)
        assert np.all((draws > 0) & (draws < 2.0))

    def test_exponential_mean(self, rng):
        draws = sample_service(ExponentialService(1.0), 100_000, rng)
        assert abs(draws.mean() - 1.0) < 3e-3 * 3

    def test_erlang_moments(self, rng):
        reps = 100_000
        draws = sample_service(ErlangService(2, 2.0), reps, rng)
        assert abs(draws.mean() - 1.0) < 3 * math.sqrt(0.5 / reps)
        # var(sample variance) ~ (mu4 - var^2)/reps with mu4 = 6 var^2
        se_var = math.sqrt(5 * 0.25 / reps)
        assert abs(draws.var(ddof=1) - 0.5) < 3 * se_var


class TestNumberInSystem:
    def test_empty_system(self):
        obs = number_in_system(ArrivalStream(5.0, np.array([])), np.array([]), 3.0)
        assert obs == 0

    def test_single_customer_membership(self):
        stream = ArrivalStream(5.0, np.array([0.5]))
        assert number_in_system(stream, [2.0], 1.0) == 1
        assert number_in_system(stream, [2.0], 3.0) == 0

    def test_hand_worked_three_arrivals(self):
        stream = ArrivalStream(2.0, np.array([0.2, 0.4, 0.9]))
        obs = number_in_system(stream, [1.0, 0.1, 0.5], 1.0)
        assert obs == 2

    def test_length_mismatch_rejected(self):
        stream = ArrivalStream(2.0, np.array([0.2, 0.4]))
        with pytest.raises(LengthMismatchError):
            number_in_system(stream, [1.0], 1.0)


class TestSimulateQueue:
    def test_time_zero_starts_empty(self, two_state_model, rng):
        obs = simulate_queue_at_t(two_state_model, ExponentialService(1.0), 0.2, 0.0, rng)
        assert obs == 0

    def test_transient_mean_for_constant_rate(self, rng):
        # constant rate 1, exponential(1) services: E Q(1) = 1 - e^-1
        model = one_state_model(1.0)
        service = ExponentialService(1.0)
        reps = 20_000
        counts = np.array(
            [simulate_queue_at_t(model, service, 0.5, 1.0, rng) for _ in range(reps)]
        )
        target = mean_q0(1.0, service, 1.0)
        se = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - target) < 3 * se

    def test_constant_rate_occupancy_is_poisson(self, rng):
        model = one_state_model(1.0)
        service = ExponentialService(1.0)
        counts = sample_queue_counts(model, service, 0.5, 1.0, 200_000, rng)
        ref = poisson_pmf(mean_q0(1.0, service, 1.0))
        assert chi_square_gof(np.bincount(counts), ref).p_value > 0.01

    @pytest.mark.parametrize(
        "service",
        # uniform(0.2, 0.8): both ends of the support fall inside [0, t]
        [ExponentialService(1.0), ErlangService(2, 2.0), UniformService(0.2, 0.8)],
        ids=["exponential", "erlang", "uniform"],
    )
    def test_kernel_and_reference_share_one_law(self, two_state_model, service):
        rng = np.random.default_rng(14)
        ref = np.bincount(
            [
                simulate_queue_at_t(two_state_model, service, 0.25, 1.0, rng)
                for _ in range(15_000)
            ]
        )
        kern = np.bincount(sample_queue_counts(two_state_model, service, 0.25, 1.0, 150_000, rng))
        assert chi_square_two_sample(ref, kern).p_value > 0.01

    def test_marginal_tv_decreases_with_eps(self, two_state_model):
        service = ExponentialService(1.0)
        ref = poisson_pmf(mean_q0(1.0, service, 1.0), 10)
        tvs = []
        for i, eps in enumerate((0.5, 0.1)):
            counts = sample_queue_counts(
                two_state_model, service, eps, 1.0, 150_000, np.random.default_rng(40 + i)
            )
            binned = np.bincount(counts, minlength=11)[:11]
            tvs.append(0.5 * np.abs(binned / counts.size - ref.probs).sum())
        assert tvs[0] > tvs[1]

    def test_conditional_occupancy_is_poisson_on_frozen_path(self, two_state_model):
        # freeze one environment path; over repeated arrival and service
        # draws the occupancy must be Poisson with the path's filtered mean
        eps, t = 0.25, 1.0
        mu = 1.0
        rng = np.random.default_rng(77)
        path = sample_path(two_state_model, t / eps, rng)
        bounds = np.concatenate(([0.0], path.jump_times, [path.horizon]))
        rates = two_state_model.rates[path.states]
        # exact mean: sum over segments of f_i (e^{-mu(t - eps b)} - e^{-mu(t - eps a)})/mu
        lo, hi = bounds[:-1], bounds[1:]
        target = float(
            np.sum(rates * (np.exp(-mu * (t - eps * hi)) - np.exp(-mu * (t - eps * lo))) / mu)
        )
        reps = 100_000
        occupancy = np.zeros(reps, dtype=np.int64)
        for a, b, f in zip(lo, hi, rates):
            arrivals = rng.poisson(f * eps * (b - a), reps)
            total = int(arrivals.sum())
            rep = np.repeat(np.arange(reps), arrivals)
            pos = eps * (a + rng.random(total) * (b - a))
            alive = pos + -np.log1p(-rng.random(total)) / mu > t
            occupancy += np.bincount(rep[alive], minlength=reps)
        res = chi_square_gof(np.bincount(occupancy), poisson_pmf(target))
        assert res.p_value > 0.01

    def test_conditional_returns_the_means_of_the_draw(self, two_state_model):
        args = (two_state_model, ErlangService(2, 2.0), 0.25, 1.0, 1000)
        rng = np.random.default_rng(3)
        means = sample_queue_counts(*args, rng, conditional=True)
        drawn = sample_queue_counts(*args, np.random.default_rng(3))
        assert means.dtype == float and means.min() >= 0.0
        np.testing.assert_array_equal(rng.poisson(means), drawn)

    def test_count_before_is_monotone_in_t(self, two_state_model, rng):
        from reference import simulate_cox

        stream, _ = simulate_cox(two_state_model, 0.2, 5.0, rng)
        counts = [stream.count_before(t) for t in np.linspace(0, 5, 21)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestServiceThatOutlastsT:
    """No arrival leaves before t, so the occupancy is the count on [0, t]."""

    @pytest.mark.parametrize("eps", [0.25, 0.02])
    def test_occupancy_has_the_exact_count_law(self, eps):
        t = 1.0
        service = UniformService(2 * t, 3 * t)
        chain = random_irreducible_model(np.random.default_rng(2024), max_states=8, max_rate=3.0)
        for i, model in enumerate((make_two_state(), chain)):
            rng = np.random.default_rng([int(1 / eps), i])
            counts = sample_queue_counts(model, service, eps, t, 50_000, rng)
            probs = _cox_count_pmf(model, eps, t)
            ref = PmfVector(probs, probs.size - 1, max(0.0, 1.0 - float(probs.sum())))
            assert chi_square_gof(np.bincount(counts), ref).p_value > 1e-3
