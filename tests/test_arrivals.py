import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.sparse.linalg import expm_multiply

from rapidpp import (
    ExperimentSpec,
    PeriodicIntensity,
    PmfVector,
    PoissonBase,
    RenewalGammaBase,
    poisson_pmf,
    sample_cox_counts,
    sample_occupation_integrals,
    sample_thinned_counts,
)
from rapidpp.arrivals import (
    MAX_COX_TABLE,
    _cox_count_cdf,
    _cox_count_pmf,
    _renewal_cdf,
    _renewal_counts,
    periodic_mean_count,
)
from rapidpp.errors import SingularSystemError

from conftest import make_two_state, random_irreducible_model
from gof import chi_square_gof, chi_square_two_sample
from reference import (
    gamma_block_renewal_counts,
    occupation_integral,
    simulate_base,
    simulate_constant_poisson,
    simulate_cox,
    simulate_periodic,
    thin_and_speed,
)

HALF_ON = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])


class TestConstantPoisson:
    def test_mean_count(self, rng):
        reps = 100_000
        counts = np.array(
            [simulate_constant_poisson(1.0, 1.0, rng).count for _ in range(reps)]
        )
        assert abs(counts.mean() - 1.0) < 3.0 / math.sqrt(reps)

    def test_empty_probability(self, rng):
        reps = 30_000
        zeros = sum(simulate_constant_poisson(1.0, 1.0, rng).count == 0 for _ in range(reps))
        p = math.exp(-1)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(zeros / reps - p) < 3 * se

    def test_times_are_uniform_given_count(self, rng):
        stream = simulate_constant_poisson(5.0, 10.0, rng)
        assert np.all(np.diff(stream.times) > 0)
        assert 0 < stream.times[0] and stream.times[-1] <= 10.0
        big = simulate_constant_poisson(2000.0, 1.0, rng)
        assert abs(big.times.mean() - 0.5) < 3 * np.sqrt(1 / 12 / big.count)

    def test_rejects_nonpositive_inputs(self, rng):
        with pytest.raises(ValueError):
            simulate_constant_poisson(0.0, 1.0, rng)


class TestSimulateCox:
    def test_constant_rates_reduce_to_poisson(self, rng):
        model = make_two_state(rates=(1.5, 1.5))
        counts = sample_cox_counts(model, 0.3, 1.0, 200_000, rng)
        res = chi_square_gof(np.bincount(counts), poisson_pmf(1.5))
        assert res.p_value > 0.01

    def test_stream_and_kernel_share_one_law(self, two_state_model):
        rng = np.random.default_rng(6)
        ref = np.bincount(
            [simulate_cox(two_state_model, 0.2, 1.0, rng)[0].count for _ in range(20_000)]
        )
        kern = np.bincount(sample_cox_counts(two_state_model, 0.2, 1.0, 200_000, rng))
        res = chi_square_two_sample(ref, kern)
        assert res.p_value > 0.01

    def test_compensator_identity_on_reference_paths(self, two_state_model, rng):
        diffs = []
        for _ in range(4000):
            stream, path = simulate_cox(two_state_model, 0.25, 1.0, rng)
            comp = 0.25 * occupation_integral(path, two_state_model.rates)
            diffs.append(stream.count - comp)
        diffs = np.array(diffs)
        assert abs(diffs.mean()) < 3 * diffs.std(ddof=1) / math.sqrt(diffs.size)

    def test_marginal_approaches_poisson_as_eps_shrinks(self, two_state_model):
        # total variation against the constant-rate pmf decreases along the grid
        ref = poisson_pmf(1.0, 12)
        tvs = []
        for i, eps in enumerate((0.5, 0.2, 0.1, 0.05)):
            counts = sample_cox_counts(
                two_state_model, eps, 1.0, 200_000, np.random.default_rng(100 + i)
            )
            binned = np.bincount(counts, minlength=13)[:13]
            tvs.append(0.5 * np.abs(binned / counts.size - ref.probs).sum())
        assert all(a > b for a, b in zip(tvs, tvs[1:]))

    def test_path_is_returned_for_diagnostics(self, two_state_model, rng):
        stream, path = simulate_cox(two_state_model, 0.5, 2.0, rng)
        assert path.horizon == pytest.approx(4.0)
        assert stream.horizon == 2.0


def _segment_cox_counts(model, eps, t, size, rng):
    """The streamed construction: Poisson counts given the occupation integrals."""
    return rng.poisson(eps * sample_occupation_integrals(model, model.rates, t / eps, size, rng))


def _expm_multiply_pmf(model, eps, t, rows):
    """Row initial_state of exp(T*B), summed over states, by expm_multiply.

    B is the (count, state) generator built block by block: Q - eps*F on the
    diagonal and eps*F above it, F = diag(rates), over T = t/eps.
    """
    n = model.n
    f = np.diag(model.rates)
    b = np.zeros((rows * n, rows * n))
    for j in range(rows):
        b[j * n : (j + 1) * n, j * n : (j + 1) * n] = model.generator.q - eps * f
        if j + 1 < rows:
            b[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = eps * f
    start = np.zeros(rows * n)
    start[model.initial_state] = 1.0
    return expm_multiply((t / eps) * b.T, start).reshape(rows, n).sum(axis=1)


def _table_models():
    rng = np.random.default_rng(2024)
    return [make_two_state()] + [
        random_irreducible_model(rng, max_states=8, max_rate=3.0) for _ in range(3)
    ]


class TestCoxCountTable:
    @pytest.mark.parametrize("eps", [0.05, 0.01, 1e-3])
    def test_entries_match_expm_multiply(self, eps):
        # expm_multiply costs O(t/eps), so it is an independent check only at
        # moderate eps; the worst gap measured here is 2.4e-13 (at eps 1e-3).
        for model in _table_models():
            pmf = _cox_count_pmf(model, eps, 1.0)
            ref = _expm_multiply_pmf(model, eps, 1.0, pmf.size)
            np.testing.assert_allclose(pmf, ref, rtol=0, atol=1e-12)

    def test_mass_is_one_on_random_chains(self):
        # the worst gap measured on these 80 tables is 2.2e-16
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = random_irreducible_model(rng, max_states=8, max_rate=3.0)
            for eps in (0.4, 0.05, 0.01, 1e-3):
                pmf = _cox_count_pmf(model, eps, 1.0)
                assert abs(pmf.sum() - 1.0) <= 1e-12

    def test_tail_bound_covers_the_count(self, two_state_model):
        # rates (0, 2): the count is below Poisson(2), and the table stops at
        # the first j with P(Poisson(2) > j) <= 2**-64
        pmf = _cox_count_pmf(two_state_model, 0.1, 1.0)
        j = pmf.size - 1
        assert special.pdtrc(j, 2.0) <= 2.0**-64 < special.pdtrc(j - 1, 2.0)
        q = _cox_count_cdf(two_state_model, 0.1, 1.0)
        assert q.size == pmf.size and q[-1] == 1.0 and np.all(np.diff(q) >= 0)

    def test_cdf_is_read_only(self, two_state_model):
        # the table is cached and shared by every chunk of a run
        q = _cox_count_cdf(two_state_model, 0.1, 1.0)
        with pytest.raises(ValueError):
            q[0] = 0.5

    @pytest.mark.parametrize("eps, seed", [(0.4, 51), (0.05, 52), (0.01, 53), (1e-3, 54)])
    def test_law_matches_segment_kernel(self, eps, seed):
        models = _table_models()
        for i, model in enumerate((models[0], models[1])):
            rng = np.random.default_rng([seed, i])
            table = np.bincount(sample_cox_counts(model, eps, 1.0, 100_000, rng))
            segment = np.bincount(_segment_cox_counts(model, eps, 1.0, 30_000, rng))
            assert chi_square_two_sample(table, segment).p_value > 1e-3

    def test_above_cap_draws_the_segment_path_bytes(self, two_state_model):
        # t = 300: the count's tail bound is over 256, so 2-state rows exceed the cap
        assert _cox_count_pmf(two_state_model, 0.5, 300.0) is None
        assert _cox_count_cdf(two_state_model, 0.5, 300.0) is None
        got = sample_cox_counts(two_state_model, 0.5, 300.0, 500, np.random.default_rng(8))
        ref = _segment_cox_counts(two_state_model, 0.5, 300.0, 500, np.random.default_rng(8))
        assert got.tobytes() == ref.tobytes()

    def test_table_size_stays_within_cap(self):
        model = random_irreducible_model(np.random.default_rng(9), max_states=8, max_rate=3.0)
        for t in (1.0, 10.0, 50.0, 100.0):
            pmf = _cox_count_pmf(model, 0.1, t)
            assert pmf is None or pmf.size * model.n <= MAX_COX_TABLE

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-16, 1e-100])
    def test_tiny_eps_matches_first_order_expansion(self, eps):
        # The first-order pmf is off by O(eps**2): an exact oracle at tiny eps,
        # where a plain expm of T*B loses its mass (by 1e-4 at eps 1e-12).
        # The worst gap measured here is 2.3e-13 at eps 1e-6, 1.6e-15 below.
        for model in _table_models():
            pmf = _cox_count_pmf(model, eps, 1.0)
            _, corrected = ExperimentSpec(model, 1.0, eps).expansion(pmf.size - 1)
            np.testing.assert_allclose(pmf, corrected.probs, rtol=0, atol=eps**2 + 1e-14)

    def test_entries_beyond_double_precision_raise(self, two_state_model):
        with pytest.raises(SingularSystemError):
            _cox_count_cdf(two_state_model, 1e-300, 1.0)
        with pytest.raises(SingularSystemError):
            sample_cox_counts(two_state_model, 1e-300, 1.0, 10, np.random.default_rng(0))

    def test_infinite_horizon_rejected(self, two_state_model):
        with pytest.raises(ValueError):
            sample_cox_counts(two_state_model, 1e-320, 1.0, 10, np.random.default_rng(0))


class TestSimulatePeriodic:
    def test_single_piece_reduces_to_constant(self, rng):
        flat = PeriodicIntensity([0.0], [2.0])
        counts = np.array([simulate_periodic(flat, 0.5, 1.0, rng).count for _ in range(20_000)])
        res = chi_square_gof(np.bincount(counts), poisson_pmf(2.0))
        assert res.p_value > 0.01

    def test_whole_period_mean(self, rng):
        reps = 50_000
        counts = ExperimentSpec(HALF_ON, 3.0, 0.25).sample_counts(reps, rng)
        assert periodic_mean_count(HALF_ON, 0.25, 3.0) == pytest.approx(3.0)
        assert abs(counts.mean() - 3.0) < 3 * math.sqrt(3.0 / reps)

    def test_no_arrivals_in_dead_zones(self, rng):
        for _ in range(50):
            stream = simulate_periodic(HALF_ON, 0.25, 3.0, rng)
            phases = (stream.times / 0.25) % 1.0
            assert np.all(phases < 0.5)

    def test_stream_and_kernel_share_one_law(self, rng):
        ref = np.bincount(
            [simulate_periodic(HALF_ON, 0.4, 1.3, rng).count for _ in range(20_000)]
        )
        kern = np.bincount(ExperimentSpec(HALF_ON, 1.3, 0.4).sample_counts(200_000, rng))
        assert chi_square_two_sample(ref, kern).p_value > 0.01

    def test_cumulative_rejects_x_beyond_one_period(self):
        with pytest.raises(ValueError):
            HALF_ON.cumulative(1.5)

    def test_fractional_period_mean(self, rng):
        # t/eps = 3.25 periods: mean = eps * (3 * 1 + cumulative(0.25)) = 0.4 * 3.5
        mean = periodic_mean_count(HALF_ON, 0.4, 1.3)
        assert mean == pytest.approx(0.4 * (3.0 + 0.5), abs=1e-12)


class TestThinAndSpeed:
    def test_unsupported_base_rejected(self, two_state_model, rng):
        with pytest.raises(TypeError):
            sample_thinned_counts(two_state_model, 0.2, 1.0, 10, rng)

    def test_eps_one_is_identity_for_every_base(self, two_state_model):
        bases = [
            PoissonBase(2.0),
            RenewalGammaBase(2.0, 2.0),
            two_state_model,
        ]
        for base in bases:
            thinned = thin_and_speed(base, 1.0, 4.0, np.random.default_rng(77))
            direct = simulate_base(base, 4.0, np.random.default_rng(77))
            np.testing.assert_array_equal(thinned.times, direct.times)

    def test_stream_level_poisson_closure(self, rng):
        counts = np.bincount(
            [thin_and_speed(PoissonBase(1.0), 0.25, 1.0, rng).count for _ in range(20_000)]
        )
        assert chi_square_gof(counts, poisson_pmf(1.0)).p_value > 0.01

    def test_renewal_base_approaches_poisson(self):
        # gamma(2, 2) interarrivals: long-run rate 1; thinned counts drift
        # toward Poisson(t) as eps shrinks
        base = RenewalGammaBase(2.0, 2.0)
        assert base.long_run_rate == 1.0
        ref = poisson_pmf(1.0, 10)
        tvs = []
        for i, eps in enumerate((0.5, 0.1, 0.02)):
            counts = sample_thinned_counts(base, eps, 1.0, 300_000, np.random.default_rng(i))
            binned = np.bincount(counts, minlength=11)[:11]
            tvs.append(0.5 * np.abs(binned / counts.size - ref.probs).sum())
        assert all(a > b for a, b in zip(tvs, tvs[1:]))

    def test_renewal_stream_matches_count_kernel(self, rng):
        base = RenewalGammaBase(2.0, 2.0)
        ref = np.bincount(
            [thin_and_speed(base, 0.25, 1.0, rng).count for _ in range(15_000)]
        )
        kern = np.bincount(sample_thinned_counts(base, 0.25, 1.0, 150_000, rng))
        assert chi_square_two_sample(ref, kern).p_value > 0.01


def _one_block_renewal_counts(base, horizon, size, rng):
    """Reference: the first gamma block drawn as one (size, block) matrix."""
    expected = horizon * base.long_run_rate
    block = max(8, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    totals = rng.gamma(base.shape, 1.0 / base.rate, (size, block)).cumsum(axis=1)
    counts = (totals <= horizon).sum(axis=1).astype(np.int64)
    last = totals[:, -1]
    alive = np.flatnonzero(last <= horizon)
    while alive.size:
        more = rng.gamma(base.shape, 1.0 / base.rate, (alive.size, block)).cumsum(axis=1)
        more += last[alive][:, None]
        counts[alive] += (more <= horizon).sum(axis=1)
        last[alive] = more[:, -1]
        alive = alive[more[:, -1] <= horizon]
    return counts


class TestRenewalCounts:
    @pytest.mark.parametrize(
        "shape, rate, horizon, size",
        [(2.0, 2.0, 500.0, 3000), (0.5, 3.0, 2000.0, 700), (3.0, 1.0, 4.0, 50), (1.0, 0.3, 0.1, 9)],
    )
    def test_row_groups_match_one_block(self, shape, rate, horizon, size):
        base = RenewalGammaBase(shape, rate)
        got = gamma_block_renewal_counts(base, horizon, size, np.random.default_rng(31))
        ref = _one_block_renewal_counts(base, horizon, size, np.random.default_rng(31))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref)

    def test_peak_memory_is_bounded_at_long_horizon(self):
        # a single (16384, 634) first block would need 158 MiB at its peak
        peak = _traced_peak(
            lambda: _renewal_counts(RenewalGammaBase(2, 2), 500, 16384, np.random.default_rng(5))
        )
        assert peak < 40 * 2**20

    def test_peak_memory_is_bounded_at_horizon_1e6(self):
        # summing gamma blocks would draw about 16384 * 1e6 doubles here
        peak = _traced_peak(
            lambda: _renewal_counts(RenewalGammaBase(2, 2), 1e6, 16384, np.random.default_rng(6))
        )
        assert peak < 40 * 2**20

    @pytest.mark.parametrize(
        "shape, rate, horizon, seed",
        [(0.5, 1.0, 4.0, 41), (2.0, 2.0, 50.0, 42), (3.7, 5.55, 500.0, 43)],
    )
    def test_law_matches_gamma_block_reference(self, shape, rate, horizon, seed):
        base = RenewalGammaBase(shape, rate)
        rng = np.random.default_rng(seed)
        got = np.bincount(_renewal_counts(base, horizon, 100_000, rng))
        ref = np.bincount(gamma_block_renewal_counts(base, horizon, 100_000, rng))
        assert chi_square_two_sample(got, ref).p_value > 1e-3


def _traced_peak(call) -> int:
    """Peak traced allocation, in bytes, while ``call()`` runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


class TestRenewalCdf:
    @pytest.mark.parametrize("shape", [1, 2, 3, 5])
    @pytest.mark.parametrize("rate, horizon", [(2.0, 0.5), (1.5, 40.0), (2.0, 500.0)])
    def test_erlang_pmf_is_poisson_block_sum(self, shape, rate, horizon):
        # An Erlang(a, rate) renewal is every a-th point of a Poisson(rate)
        # stream, so P(R = n) = sum of Poisson(rate*horizon) over [n*a, n*a + a).
        # The tolerance is set by scipy's Poisson pmf, whose relative error
        # grows with the mean (1.6e-13 absolute at mean 12000).
        lo, q = _renewal_cdf(RenewalGammaBase(float(shape), rate), horizon)
        n = np.arange(lo, lo + q.size - 1)
        x = rate * horizon
        blocks = stats.poisson.pmf(n[:, None] * shape + np.arange(shape), x).sum(axis=1)
        np.testing.assert_allclose(np.diff(q), blocks, rtol=0, atol=1e-13)
        assert q[0] == pytest.approx(stats.poisson.cdf(lo * shape - 1, x), abs=1e-13)

    @pytest.mark.parametrize("shape", [0.05, 0.5, 2.5])
    @pytest.mark.parametrize(
        "rate, horizon", [(1.0, 0.3), (2.0, 50.0), (0.7, 400.0), (3.0, 4000.0)]
    )
    def test_fractional_shapes_match_mpmath(self, shape, rate, horizon):
        # mpmath gets the same double arguments as the table: a = n*shape and
        # x = rate*horizon rounded, as the kernel forms them.
        lo, q = _renewal_cdf(RenewalGammaBase(shape, rate), horizon)
        idx = np.unique(np.linspace(0, q.size - 1, 100).astype(int))
        with mp.workdps(30):
            exact = [
                float(mp.gammainc(float((lo + i) * shape), rate * horizon, mp.inf,
                                  regularized=True))
                for i in idx
            ]
        np.testing.assert_allclose(q[idx], exact, rtol=0, atol=1e-15)

    @given(
        shape=st.floats(0.01, 50.0),
        rate=st.floats(1e-3, 1e6),
        data=st.data(),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_table_invariants(self, shape, rate, data):
        # The table holds about 20*sqrt(rate*horizon)/shape entries; the cap on
        # horizon keeps it below about 2e5, so each example takes well under 1 s.
        horizon = data.draw(st.floats(1e-3, min(1e6, 1e8 * shape**2 / rate)))
        lo, q = _renewal_cdf(RenewalGammaBase(shape, rate), horizon)
        assert lo >= 1
        assert np.all(np.diff(q) >= 0)
        assert q[-1] == 1.0
        assert q[0] <= 2.0**-64 or lo == 1


def _thinned_renewal_pmf(base, eps, t, kmax):
    """Exact pmf over 0..kmax of Binomial(R, eps), R the base count on [0, t/eps]."""
    x = base.rate * t / eps
    mean = x / base.shape
    nmax = int(mean + 20.0 * math.sqrt(mean / base.shape) + 20.0)
    n = np.arange(nmax + 2)
    at_least = special.gammainc(n * base.shape, x)  # P(R >= n); 1 at n = 0
    p_r = at_least[:-1] - at_least[1:]
    probs = stats.binom.pmf(np.arange(kmax + 1)[None, :], n[:-1, None], eps).T @ p_r
    return PmfVector(probs, kmax, max(0.0, 1.0 - float(probs.sum())))


class TestThinnedRenewalLaw:
    @pytest.mark.parametrize("eps", [0.25, 0.02, 0.002])
    @pytest.mark.parametrize("shape", [0.5, 2.0, 3.7])
    def test_matches_exact_thinned_pmf(self, shape, eps):
        base = RenewalGammaBase(shape, 1.5 * shape)
        rng = np.random.default_rng(int(1000 * shape + 1 / eps))
        counts = sample_thinned_counts(base, eps, 1.0, 200_000, rng)
        ref = _thinned_renewal_pmf(base, eps, 1.0, 25)
        assert ref.truncation_mass < 1e-9
        assert chi_square_gof(np.bincount(counts), ref).p_value > 1e-3


class TestStreamInvariants:
    def test_all_streams_strictly_increasing(self, two_state_model, rng):
        streams = [
            simulate_constant_poisson(3.0, 5.0, rng),
            simulate_cox(two_state_model, 0.3, 5.0, rng)[0],
            simulate_periodic(HALF_ON, 0.3, 5.0, rng),
            thin_and_speed(RenewalGammaBase(2.0, 4.0), 0.5, 5.0, rng),
        ]
        for stream in streams:
            if stream.count:
                assert np.all(np.diff(stream.times) > 0)
                assert stream.times[0] > 0 and stream.times[-1] <= stream.horizon

    def test_stream_constructor_rejects_ties(self):
        from reference import ArrivalStream

        with pytest.raises(ValueError):
            ArrivalStream(1.0, np.array([0.25, 0.25, 0.5]))
