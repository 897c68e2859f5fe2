"""The numpy-only kernels that stand in for scipy on every default path, against scipy
and against 30-digit mpmath.

Where the two oracles disagree, mpmath decides: scipy's ``gammaincc`` is off by up to
1.3e-13 relative (Erlang S past y = 700) and 1.2e-12 (a renewal tail of 1.7e-22), and
its ``expm`` by up to 4e-13 on Van Loan blocks that need 13 squarings.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import linalg, special, stats

from rapidpp import _numerics, arrivals, queue_sim
from rapidpp._numerics import _THETA, expm, log_factorial, log_factorials
from rapidpp.arrivals import (
    MAX_COX_TABLE,
    RenewalGammaBase,
    _gamma_survival,
    _renewal_cdf,
    _table_rows,
)
from rapidpp.expansions import (
    MAX_ERLANG_SUM_SHAPE,
    MAX_SUM_QUANTILE_MEAN,
    ErlangService,
    ExponentialService,
    UniformService,
    _poisson_ppf,
)
from rapidpp.errors import EnumerationTooLargeError
from rapidpp.markov_env import CtmcModel, GeneratorMatrix

from conftest import make_two_state, random_irreducible_model

TINY = np.finfo(float).tiny
FOUR_STATE = CtmcModel(
    GeneratorMatrix([[-3.0 if i == j else 1.0 for j in range(4)] for i in range(4)]),
    np.array([0.0, 1.0, 2.0, 5.0]),
)


def _suite_blocks():
    """Every matrix that the count table and the occupancy mean pass to expm, on the
    suite's models, by recording the calls."""
    models = [make_two_state(), FOUR_STATE] + [
        random_irreducible_model(np.random.default_rng(seed), 5) for seed in (3, 7)
    ]
    services = [ExponentialService(1.0), ErlangService(2, 2.0), UniformService(0.25, 1.5),
                UniformService(0.0, 0.8)]
    blocks = []

    def recorded(a):
        blocks.append(np.array(a))
        return expm(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrivals, "expm", recorded)
        patch.setattr(queue_sim, "expm", recorded)
        for model in models:
            for eps in (0.5, 0.1, 0.01, 1e-3):
                arrivals._cox_count_pmf(model, eps, 1.0)
                for service in services:
                    queue_sim._occupancy_mean(model, service, eps, 1.2)
    return blocks


BLOCKS = _suite_blocks()


def _squarings(a):
    """The squarings expm takes: none up to degree 9's norm bound."""
    if np.abs(a).sum(axis=0).max() <= _THETA[9]:
        return 0
    a4 = np.linalg.matrix_power(a, 4)
    return _numerics._squarings(a, a4, a4 @ a @ a)


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestExpm:
    def test_blocks_cover_both_regimes(self):
        squarings = [_squarings(a) for a in BLOCKS]
        assert min(squarings) == 0 and max(squarings) >= 10 and len(BLOCKS) > 100

    def test_agrees_with_scipy_without_squaring(self):
        # the count tables (norm below 1) and the Van Loan blocks at moderate eps
        worst = max(_relative(expm(a), linalg.expm(a)) for a in BLOCKS if not _squarings(a))
        assert worst <= 1e-14

    def test_squared_blocks_within_their_bound(self):
        # each squaring may double an error along the eigenvalue 1 of a generator's
        # exponential; scipy is off by up to 4e-13 on these blocks too
        mp.mp.dps = 30
        for a in BLOCKS:
            s = _squarings(a)
            if s:
                exact = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
                assert _relative(expm(a), exact) <= 2.0 ** (s + 2) * np.finfo(float).eps

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_gives_nan(self, entry):
        assert np.all(np.isnan(expm(np.array([[0.0, entry], [0.0, 0.0]]))))

    def test_small_cases(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        assert expm(np.array([[2.0]]))[0, 0] == pytest.approx(math.exp(2.0), rel=1e-15)
        nilpotent = np.array([[0.0, 1e10], [0.0, 0.0]])
        np.testing.assert_allclose(expm(nilpotent), [[1.0, 1e10], [0.0, 1.0]], rtol=1e-14)


class TestLogFactorial:
    def test_vector_matches_gammaln_bit_for_bit(self):
        k = np.arange(200_000)
        assert log_factorials(k.size).tobytes() == special.gammaln(k + 1.0).tobytes()

    def test_scalar_matches_gammaln_bit_for_bit(self):
        ks = np.unique(np.geomspace(1, 1e12, 3000).astype(np.int64))
        got = np.array([log_factorial(int(k)) for k in ks])
        assert got.tobytes() == special.gammaln(ks + 1.0).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 12, 13, 14])
    def test_short_tables(self, n):
        assert log_factorials(n).tobytes() == special.gammaln(np.arange(n) + 1.0).tobytes()


class TestPoissonQuantile:
    MEANS = np.concatenate(([0.0, 5e-324, 1e-310], np.geomspace(1e-300, 1e11, 700)))

    @pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 - 2.0**-52, 1.0 - 1e-10])
    def test_matches_stats_on_a_log_grid(self, q):
        for mean, want in zip(self.MEANS, stats.poisson.ppf(q, self.MEANS)):
            if math.isnan(want):  # scipy's inverse fails near 1e11 at some levels
                with pytest.raises(EnumerationTooLargeError, match="not computable"):
                    _poisson_ppf(q, float(mean))
            else:
                assert _poisson_ppf(q, float(mean)) == int(want), mean

    def test_summed_up_to_the_switch(self):
        # the quantile sums the pmf up to the switch; past it scipy's inverse answers
        switch = MAX_SUM_QUANTILE_MEAN
        for m in np.linspace(0.98 * switch, switch, 40):
            for q in (0.5, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-52):
                assert _poisson_ppf(q, float(m)) == int(stats.poisson.ppf(q, m))


class TestCoxTableRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 64, 512, 600])
    def test_matches_the_pdtrc_rule(self, n):
        # today's rule: J is the first count below the cap with pdtrc(J, mean) <= 2**-64
        cap = MAX_COX_TABLE // n
        means = np.concatenate(([0.0, 5e-324, 1e-300, 1e300, math.inf],
                                np.geomspace(1e-6, 700.0, 400)))
        for mean in means:
            fits = special.pdtrc(np.arange(cap), mean) <= 2.0**-64
            want = int(np.argmax(fits)) + 1 if fits.any() else None
            assert _table_rows(float(mean), cap) == want, mean


def _exact_erlang(k, y):
    """(S, SI) at rate 1 to 30 digits: P(N < k) and E[min(N, k)], N ~ Poisson(y)."""
    with mp.workdps(30):
        y = mp.mpf(float(y))
        weights = [mp.exp(-y) * y**j / mp.factorial(j) for j in range(k)]
        survival = mp.fsum(weights)
        mean = k * (1 - survival) + mp.fsum(j * w for j, w in enumerate(weights))
        return float(survival), float(mean)


def _exact_square_integral(k, x):
    """2 * integral of S^2 at rate 1 over [0, x/2], as sum_n c_n P(N > n), N ~ Poisson(x)."""
    with mp.workdps(30):
        x = mp.mpf(float(x))
        total = 0
        for n in range(2 * k - 1):
            c = mp.mpf(sum(math.comb(n, j) for j in range(max(0, n - k + 1), k))) / 2**n
            total += c * mp.gammainc(n + 1, 0, x, regularized=True)
        return float(total)


ERLANG_Y = [1e-8, 1e-3, 0.3, 1.0, 7.5, 31.0, 63.0, 64.0, 200.0, 745.0, 760.0, 800.0, 850.0]


class TestErlangSums:
    @pytest.mark.parametrize("k", range(1, MAX_ERLANG_SUM_SHAPE + 1))
    def test_survival_and_its_integral_match_exact(self, k):
        service = ErlangService(k, 1.0)
        survival = service.survival(np.array(ERLANG_Y))
        integral = service.survival_integral(np.array(ERLANG_Y))
        for y, s, si in zip(ERLANG_Y, survival, integral):
            exact_s, exact_si = _exact_erlang(k, y)
            if exact_s >= TINY:  # past y = 745, where e^-y alone underflows, too
                assert s == pytest.approx(exact_s, rel=1e-14, abs=0), y
            assert si == pytest.approx(exact_si, rel=1e-14), y

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21, 32])
    def test_square_integral_matches_exact(self, k):
        for x in [2e-8, 1e-3, 0.5, 3.0, 2 * k - 2.0, 2 * k - 1.0, 2 * k + 0.5, 150.0, 2000.0]:
            got = 2.0 * ErlangService(k, 1.0).survival_square_integral(x / 2.0)
            assert got == pytest.approx(_exact_square_integral(k, x), rel=1e-14), x

    @pytest.mark.parametrize("rate", [0.37, 1.0, 5.0])
    def test_match_scipy_forms(self, rate):
        # the forms the sums replace: gammaincc, pdtr/pdtrc and bdtr/bdtrc with gammainc
        t = np.concatenate((np.geomspace(1e-8, 1e3, 200), np.linspace(700.0, 1000.0, 61))) / rate
        y = rate * t  # as the service forms it
        for k in range(1, MAX_ERLANG_SUM_SHAPE + 1):
            service = ErlangService(k, rate)
            want = special.gammaincc(k, y)
            normal = want >= TINY
            got = service.survival(t)
            assert np.all(np.abs(got - want)[normal] <= 2e-13 * want[normal])
            want = (y * special.pdtr(k - 1, y) + k * special.pdtrc(k, y)) / rate
            np.testing.assert_allclose(service.survival_integral(t), want, rtol=2e-14)
            n = np.arange(2 * k - 1)
            m = np.minimum(k - 1, n)
            c = special.bdtr(m, n, 0.5) - special.bdtrc(m, n, 0.5)
            for ti in t[::10]:
                want = np.sum(c * special.gammainc(n + 1, 2.0 * rate * ti)) / (2.0 * rate)
                assert service.survival_square_integral(ti) == pytest.approx(want, rel=1e-14)

    def test_extreme_arguments(self):
        service = ErlangService(32, 1.0)
        assert service.survival(np.array([math.inf, 1e300, -1.0, 0.0])).tolist() == [
            0.0, 0.0, 1.0, 1.0]
        assert service.survival_square_integral(1e308) == pytest.approx(
            _exact_square_integral(32, 1e4) / 2.0, rel=1e-15)


class TestRenewalCdf:
    @pytest.mark.parametrize("shape", [1, 2, 3, 5, 8])
    def test_integer_orders_match_gammaincc(self, shape):
        # down to the table's 2**-64 cut-off; deeper, scipy's own error reaches 1.2e-12
        for x in (0.5, 3.0, 40.0, 1000.0, 2e4):
            orders = np.arange(1, int(3 * x / shape) + 60)
            got = _gamma_survival(orders, float(shape), x)
            want = special.gammaincc(orders * float(shape), x)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=2.0**-64)

    def test_deep_tail_matches_exact(self):
        mp.mp.dps = 30
        orders = np.array([142, 150, 193, 200, 230])
        got = _gamma_survival(orders, 5.0, 1000.0)
        for order, value in zip(orders, got):
            exact = float(mp.gammainc(5 * int(order), 1000, mp.inf, regularized=True))
            assert value == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("shape", [1, 2, 3, 7])
    @pytest.mark.parametrize("horizon", [0.01, 1.0, 50.0, 500.0, 1e6])
    def test_table_reaches_one(self, shape, horizon):
        base = RenewalGammaBase(shape, 2.0)
        lo, q = _renewal_cdf(base, horizon)
        assert q[-1] == 1.0 and (q[0] <= 2.0**-64 or lo == 1)
        assert np.all(np.diff(q) >= 0)
        orders = np.arange(lo, lo + q.size) * float(shape)
        if horizon <= 500.0:
            want = special.gammaincc(orders, 2.0 * horizon)
            np.testing.assert_allclose(q, want, rtol=1e-12, atol=2.0**-64)
        mp.mp.dps = 30
        for i in np.linspace(0, q.size - 1, 7).astype(int):
            exact = float(mp.gammainc(orders[i], 2.0 * horizon, mp.inf, regularized=True))
            assert q[i] == pytest.approx(exact, rel=1e-13, abs=2.0**-64)

    def test_exact_where_scipy_switches_method(self):
        # near a = 2e6 scipy's gammaincc jumps by 1.6e-9 where it changes method
        mp.mp.dps = 30
        orders = np.array([2006374, 2006375, 2006447, 2006847])
        got = _gamma_survival(orders, 1.0, 2e6)
        scipy_error = 0.0
        for order, value in zip(orders, got):
            exact = float(mp.gammainc(int(order), 2e6, mp.inf, regularized=True))
            assert value == pytest.approx(exact, rel=1e-15)
            scipy_error = max(scipy_error, abs(special.gammaincc(order, 2e6) - exact))
        assert scipy_error > 1e-9
