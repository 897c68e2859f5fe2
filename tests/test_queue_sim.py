import math

import numpy as np
import pytest
from scipy.integrate import quad

from rapidpp import (
    CtmcModel,
    ErlangService,
    ExponentialService,
    PmfVector,
    UniformService,
    analyze,
    mean_q0,
    poisson_pmf,
    sample_queue_counts,
    validate_generator,
)
from rapidpp.arrivals import _cox_count_pmf
from rapidpp.queue_sim import MAX_OCCUPANCY_BLOCK, _occupancy_mean

from conftest import make_two_state, random_irreducible_model
from gof import chi_square_gof, chi_square_two_sample
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


# exponential, Erlang, uniform with a > 0, and uniform with a = 0 ending before t = 1.2
MEAN_SERVICES = [
    ExponentialService(1.0),
    ErlangService(2, 2.0),
    UniformService(0.25, 1.5),
    UniformService(0.0, 0.8),
]


def mean_models():
    return [make_two_state()] + [
        random_irreducible_model(np.random.default_rng(seed), 5) for seed in (3, 7)
    ]


def occupancy_mean_by_quadrature(model, service, eps, t):
    """lambda*·SI(t) plus the transient integral of (e_x0 − pi)·exp(Q u/eps)·f·S(t − u)
    over [0, t], by quad over an eigendecomposition of Q: no block exponential."""
    res = analyze(model)
    lam, vec = np.linalg.eig(model.generator.q)
    start = np.eye(1, model.n, model.initial_state)[0] - res.pi
    coef = (start @ vec) * np.linalg.solve(vec, model.rates)

    def transient(u):
        return float(np.real(coef @ np.exp(lam * u / eps))) * float(service.survival(t - u))

    kinks = [t - getattr(service, end, 0.0) for end in ("a", "b")]
    points = [p for p in [eps, 10 * eps, 100 * eps, *kinks] if 0 < p < t]
    value, _ = quad(transient, 0, t, points=points, epsabs=1e-17, epsrel=1e-13, limit=500)
    return res.lambda_star * float(service.survival_integral(t)) + value


class TestOccupancyMean:
    @pytest.mark.parametrize("service", MEAN_SERVICES, ids=repr)
    def test_agrees_with_quadrature(self, service):
        t = 1.2
        for model in mean_models():
            for eps in (0.5, 0.1, 0.01, 1e-3):
                exact = occupancy_mean_by_quadrature(model, service, eps, t)
                assert _occupancy_mean(model, service, eps, t) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("service", MEAN_SERVICES[:3], ids=repr)
    def test_first_order_mean_is_right_to_order_eps_squared(self, service):
        # E[M] = lambda*·SI(t) + eps·g[x0]·S(t) + eps²·L + O(eps³), with
        # L = pdf(t)·(D² f)[x0] and D = (1pi − Q)^-1 − 1pi the deviation matrix
        t = 1.2
        pdf = -(service.survival(t + 1e-6) - service.survival(t - 1e-6)) / 2e-6
        for model in mean_models()[:2]:
            res = analyze(model)
            one_pi = np.outer(np.ones(model.n), res.pi)
            dev = np.linalg.inv(one_pi - model.generator.q) - one_pi
            limit = pdf * (dev @ dev @ model.rates)[model.initial_state]
            for eps in (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
                first = res.lambda_star * service.survival_integral(t) + eps * float(
                    res.g[model.initial_state] * service.survival(t)
                )
                ratio = (_occupancy_mean(model, service, eps, t) - first) / eps**2
                assert abs(ratio - limit) <= 0.1 * eps, (eps, ratio, limit)

    @pytest.mark.parametrize("service", [*MEAN_SERVICES, UniformService(2.0, 3.0)], ids=repr)
    def test_mean_of_the_conditional_means(self, service):
        model, eps, t = make_two_state(), 0.1, 1.0
        rng = np.random.default_rng(11)
        means = sample_queue_counts(model, service, eps, t, 50_000, rng, conditional=True)
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - _occupancy_mean(model, service, eps, t)) <= 4.5 * se

    def test_block_size_cap(self):
        model = make_two_state()
        at_cap = ErlangService(MAX_OCCUPANCY_BLOCK - model.n, 400.0)
        above = ErlangService(MAX_OCCUPANCY_BLOCK - model.n + 1, 400.0)
        assert _occupancy_mean(model, above, 0.1, 1.0) is None
        mean = _occupancy_mean(model, at_cap, 0.1, 1.0)
        assert mean == pytest.approx(occupancy_mean_by_quadrature(model, at_cap, 0.1, 1.0))

    def test_no_phase_matrix_above_the_cap(self, monkeypatch):
        # a shape-10^6 phase matrix alone would take 8 TB
        def unbuilt(service):
            raise AssertionError("survival_pieces built above the cap")

        monkeypatch.setattr(ErlangService, "survival_pieces", unbuilt)
        assert _occupancy_mean(make_two_state(), ErlangService(10**6, 1.0), 0.1, 1.0) is None
