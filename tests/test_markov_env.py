import contextlib
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rapidpp import (
    CtmcModel,
    EnumerationTooLargeError,
    ExponentialService,
    GeneratorMatrix,
    SingularSystemError,
    analyze,
    sample_occupation_integrals,
    sample_queue_counts,
    stationary_distribution,
)
from rapidpp import markov_env
from rapidpp.markov_env import (
    MAX_SEGMENT_ROUNDS,
    _jump_table,
    _next_state,
    _segment_rounds,
    _solve_refined,
)

from conftest import make_two_state, random_irreducible_model
from reference import (
    EnvironmentPath,
    jump_cdf,
    lu_solve_refined,
    occupation_integral,
    sample_path,
)


class TestValidateGenerator:
    def test_symmetric_two_state_is_valid(self):
        gen = GeneratorMatrix([[-1, 1], [1, -1]])
        assert gen.n == 2

    def test_absorbing_state_is_reducible(self):
        with pytest.raises(ValueError, match="not strongly connected"):
            GeneratorMatrix([[-1, 1], [0, 0]])

    def test_asymmetric_two_state_is_valid(self):
        # rows sum to zero and 0 <-> 1 communicate
        gen = GeneratorMatrix([[-2, 2], [1, -1]])
        assert np.allclose(gen.q.sum(axis=1), 0.0, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            GeneratorMatrix([[-1, 1, 0], [1, -1, 0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="is negative"):
            GeneratorMatrix([[-1, 1], [-0.5, 0.5]])

    def test_nonzero_row_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            GeneratorMatrix([[-1, 1.5], [1, -1]])

    @pytest.mark.parametrize(
        "q", [[[-np.inf, np.inf], [1, -1]], [[-1, np.nan], [1, -1]]], ids=["inf", "nan"]
    )
    def test_non_finite_entry_rejected(self, q):
        # the config parser rejects these first, so only a library caller meets this check
        with pytest.raises(ValueError, match="^rate matrix entries must be finite$"):
            GeneratorMatrix(q)

    def test_one_state_chain_is_valid(self):
        assert GeneratorMatrix([[0.0]]).n == 1

    def test_a_state_with_no_exit_has_exit_rate_plus_zero(self):
        # the segment walk divides its draws by it: +inf ends the sojourn, -inf would not
        [rate] = GeneratorMatrix([[0.0]]).exit_rates
        assert rate == 0.0 and not np.signbit(rate)

    def test_one_way_ring_is_irreducible(self):
        q = [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]
        assert GeneratorMatrix(q).n == 3

    def test_component_count_matches_scipy(self):
        # scipy's count is the oracle for the numpy search; small graphs at any density
        # and larger sparse ones, whose long paths need every squaring of the closure
        rng = np.random.default_rng(2024)
        seen = set()
        for i in range(2000):
            n = int(rng.integers(1, 12)) if i % 2 else int(rng.integers(12, 65))
            adjacency = rng.random((n, n)) < rng.uniform(0.0, 0.6 if n < 12 else 3.0 / n)
            np.fill_diagonal(adjacency, False)
            q = adjacency.astype(float)
            np.fill_diagonal(q, -q.sum(axis=1))
            count, _ = connected_components(
                csr_matrix(adjacency), directed=True, connection="strong"
            )
            seen.add(count == 1)
            if count == 1:
                assert GeneratorMatrix(q).n == n
            else:
                message = rf"\({count} strongly connected components\)$"
                with pytest.raises(ValueError, match=message):
                    GeneratorMatrix(q)
        assert seen == {True, False}


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        pi = stationary_distribution(GeneratorMatrix([[-1, 1], [1, -1]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_asymmetric_two_state(self):
        # balance: pi0 * 2 = pi1 * 1 with pi0 + pi1 = 1
        pi = stationary_distribution(GeneratorMatrix([[-2, 2], [1, -1]]))
        np.testing.assert_allclose(pi, [1 / 3, 2 / 3], atol=1e-12)

    def test_cyclic_three_state_uniform(self):
        pi = stationary_distribution(
            GeneratorMatrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        )
        np.testing.assert_allclose(pi, np.ones(3) / 3, atol=1e-12)


# (matrix, right-hand side) pairs: a zero pivot, a solution past the largest double, a NaN
SINGULAR_SYSTEMS = {
    "zero-pivot": ([[0.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "overflow": ([[1e-300, 0.0], [0.0, 1.0]], [1e10, 1.0]),
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
}


# the per-state arrival rates of the CLI's robustness property
EXTREME_RATES = [2.0, 0.5, 0.0, 7.0, 1e-300, 1e300]


class TestSolveRefined:
    @pytest.mark.parametrize("case", list(SINGULAR_SYSTEMS))
    def test_singular_or_overflowing_solve_raises_one_error_naming_it(self, case):
        a, b = SINGULAR_SYSTEMS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="^the test solve "):
                _solve_refined(np.array(a), np.array(b), "test")

    def test_silent_overflow_to_a_non_finite_solution_raises_one_error(self, capfd):
        # found by a seeded search over random systems: the refinement step's LAPACK
        # solve overflows to -inf with no floating-point error or warning
        a = [[-6.427275293955595e-156, 1.4151675998856468e-106, -1.459071864461799e-278],
             [6.401832780664106e+254, -3.876600075466367e-278, 3.774583212246518e-103],
             [-2.9807794550032176e+125, 5.733883322115342e+284, -2.203215800042944e+232]]
        b = [1.1309700852094884e-221, -9.043877143117542e-110, 1.567833567737535e-170]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="^the test solve produced non-finite"):
                _solve_refined(np.array(a), np.array(b), "test")
        assert capfd.readouterr().err == ""

    def test_regular_system_is_solved(self):
        x = _solve_refined(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]), "test")
        np.testing.assert_allclose(x, [0.8, 1.4], rtol=1e-15)

    def test_extreme_generators_give_scipy_lu_outcomes(self, monkeypatch):
        # 3,000 generators of 2-5 states, 80% of the off-diagonal rates 10^U(-300, 300):
        # every bordered system analyze builds gives the outcome of scipy's refined LU
        # solve, its answer within 4 ulps per entry or its failure, message included
        outcomes = Counter()

        def checked(a, b, name):
            want = lu_solve_refined(a, b)
            if want is not None and np.all(np.isfinite(want)):
                got = _solve_refined(a, b, name)
                np.testing.assert_array_max_ulp(got, want, maxulp=4)
                outcomes["solved"] += 1
                return got
            fault = "is singular or leaves double range" if want is None else "produced non-finite"
            with pytest.raises(SingularSystemError, match=f"^the {re.escape(name)} solve {fault}"):
                _solve_refined(a, b, name)
            outcomes[fault] += 1
            raise SingularSystemError(fault)

        monkeypatch.setattr(markov_env, "_solve_refined", checked)
        rng = np.random.default_rng(5)
        for _ in range(3000):
            n = int(rng.integers(2, 6))
            q = np.where(rng.random((n, n)) < 0.8, 10.0 ** rng.uniform(-300, 300, (n, n)), 0.0)
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            rates = rng.choice(EXTREME_RATES, n)
            try:
                model = CtmcModel(GeneratorMatrix(q), rates)
            except ValueError:
                outcomes["rejected"] += 1
                continue
            with contextlib.suppress(SingularSystemError):
                analyze(model)
        assert set(outcomes) == {
            "solved", "rejected", "is singular or leaves double range", "produced non-finite"
        }


def two_state_closed_form(a, b, f1, f2):
    """Hand-derived stationary quantities for [[-a, a], [b, -b]]."""
    pi = np.array([b, a]) / (a + b)
    lam = pi @ np.array([f1, f2])
    g = np.array([a, -b]) * (f1 - f2) / (a + b) ** 2
    sigma2 = 2 * a * b * (f1 - f2) ** 2 / (a + b) ** 3
    return pi, lam, g, sigma2


class TestAnalyze:
    def test_constant_rates_give_zero_correction(self):
        model = make_two_state(rates=(3.0, 3.0))
        res = analyze(model)
        assert res.lambda_star == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(res.f_centered, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.g, 0.0, atol=1e-12)
        assert res.sigma2 == 0.0

    def test_worked_two_state_example(self, two_state_model):
        res = analyze(two_state_model)
        assert res.lambda_star == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.g, [-0.5, 0.5], atol=1e-10)
        assert res.sigma2 == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_example_against_closed_form(self):
        model = make_two_state(a=2.0, b=1.0, rates=(3.0, 0.0))
        res = analyze(model)
        _, lam, g, sigma2 = two_state_closed_form(2.0, 1.0, 3.0, 0.0)
        assert res.lambda_star == pytest.approx(lam, abs=1e-12)  # = 1
        assert res.sigma2 == pytest.approx(sigma2, abs=1e-10)  # = 4/3
        np.testing.assert_allclose(res.g, g, atol=1e-10)

    def test_random_two_state_models_match_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10, 2)
            f1, f2 = rng.uniform(0, 10, 2)
            res = analyze(make_two_state(a, b, (f1, f2)))
            _, lam, g, sigma2 = two_state_closed_form(a, b, f1, f2)
            assert res.lambda_star == pytest.approx(lam, abs=1e-10)
            assert res.sigma2 == pytest.approx(sigma2, abs=1e-10)
            np.testing.assert_allclose(res.g, g, atol=1e-10)

    def test_residuals_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            model = random_irreducible_model(rng)
            res = analyze(model)
            q = model.generator.q
            assert np.max(np.abs(res.pi @ q)) < 1e-10
            assert abs(res.pi.sum() - 1.0) < 1e-12
            assert np.all(res.pi > 0)
            assert np.max(np.abs(q @ res.g + res.f_centered)) < 1e-10
            assert abs(res.pi @ res.g) < 1e-10
            assert res.sigma2 >= 0.0
            assert abs(res.sigma2 - 2 * np.sum(res.pi * res.f_centered * res.g)) < 1e-12

    def test_rate_shift_leaves_g_and_sigma2_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_irreducible_model(rng, max_states=8)
            shift = rng.uniform(0.5, 5.0)
            shifted = CtmcModel(model.generator, model.rates + shift, model.initial_state)
            res, res_s = analyze(model), analyze(shifted)
            assert res_s.lambda_star - res.lambda_star == pytest.approx(shift, abs=1e-10)
            np.testing.assert_allclose(res_s.g, res.g, atol=1e-10)
            assert res_s.sigma2 == pytest.approx(res.sigma2, abs=1e-10)

    def test_model_rejects_all_zero_rates(self):
        with pytest.raises(ValueError):
            make_two_state(rates=(0.0, 0.0))

    def test_model_arrays_are_read_only_copies(self):
        # the modulated count table is cached by model identity
        q, rates = np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([0.0, 2.0])
        model = CtmcModel(GeneratorMatrix(q), rates)
        with pytest.raises(ValueError):
            model.rates[0] = 1.0
        with pytest.raises(ValueError):
            model.generator.q[0, 0] = -2.0
        rates[0], q[0, 0] = 1.0, -2.0  # the caller's arrays stay writable
        assert model.rates[0] == 0.0 and model.generator.q[0, 0] == -1.0


class TestSamplePath:
    def test_one_state_model_never_jumps(self, rng):
        model = CtmcModel(GeneratorMatrix([[0.0]]), [1.0])
        path = sample_path(model, 5.0, rng)
        assert path.n_jumps == 0
        assert path.states.tolist() == [0]

    def test_reproducible_under_seed(self, two_state_model):
        p1 = sample_path(two_state_model, 50.0, np.random.default_rng(5))
        p2 = sample_path(two_state_model, 50.0, np.random.default_rng(5))
        np.testing.assert_array_equal(p1.jump_times, p2.jump_times)
        np.testing.assert_array_equal(p1.states, p2.states)

    def test_no_self_jumps(self, two_state_model, rng):
        path = sample_path(two_state_model, 100.0, rng)
        assert np.all(np.diff(path.states) != 0)
        assert np.all(np.diff(path.jump_times) > 0)

    def test_occupation_fraction_matches_stationary(self, two_state_model, rng):
        horizon = 1e4
        path = sample_path(two_state_model, horizon, rng)
        frac0 = occupation_integral(path, [1.0, 0.0]) / horizon
        # time-average CLT for the indicator: sigma2 = 2ab/(a+b)^3 = 1/4
        se = np.sqrt(0.25 / horizon)
        assert abs(frac0 - 0.5) < 3 * se

    def test_jump_rate_matches_stationary_exit_rate(self, rng):
        horizon = 1e4
        # symmetric chain: jump epochs form a rate-1 renewal stream
        path = sample_path(make_two_state(), horizon, rng)
        assert abs(path.n_jumps / horizon - 1.0) < 3 * np.sqrt(horizon) / horizon
        # asymmetric chain: rate = pi0*2 + pi1*1 = 4/3, cycle CLT variance 1.481/t
        path = sample_path(make_two_state(a=2.0, b=1.0, rates=(1.0, 1.0)), horizon, rng)
        se = np.sqrt(4 * 1.25 / 1.5**3 / horizon)
        assert abs(path.n_jumps / horizon - 4 / 3) < 3 * se


class TestJumpCdf:
    def test_rows_step_by_off_diagonal_rates_and_end_at_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            gen = random_irreducible_model(rng, max_states=8).generator
            cum = jump_cdf(gen)
            off = gen.q.copy()
            np.fill_diagonal(off, 0.0)
            for i in range(gen.n):
                assert np.all(np.diff(cum[i]) >= 0.0)
                assert cum[i, -1] == 1.0
                steps = np.diff(cum[i], prepend=0.0)
                np.testing.assert_allclose(steps, off[i] / gen.exit_rates[i], rtol=0, atol=1e-12)

    def test_one_state_row_is_zero(self):
        assert jump_cdf(GeneratorMatrix([[0.0]])).tolist() == [[0.0]]


def _scan_lookup(cum, state, u):
    """Reference next-state lookup: scan the whole cdf row of each chain."""
    return (u[:, None] >= cum[state]).sum(axis=1)


def _generator_of_size(rng, n):
    """Random sparse irreducible generator on n >= 2 states, sometimes with equal rates."""
    q = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.0, 5.0, (n, n)), 0.0)
    if rng.random() < 0.3:
        q = np.where(q > 0.0, 1.0, 0.0)
    cycle = (np.arange(n), (np.arange(n) + 1) % n)
    q[cycle] = np.maximum(q[cycle], 0.5)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(q)


class TestNextState:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 64, 200])
    def test_matches_full_row_scan(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            gen = _generator_of_size(rng, n)
            cum = jump_cdf(gen)
            table, width = _jump_table(gen)
            assert width >= n and width < 2 * n and width & (width - 1) == 0
            # ties: every table entry below 1.0, looked up in its own row
            rows, cols = np.nonzero(cum < 1.0)
            u = np.concatenate(
                [rng.random(3000), cum[rows, cols], [0.0, np.nextafter(1.0, 0.0)] * n]
            )
            state = np.concatenate(
                [rng.integers(0, n, 3000), rows, np.repeat(np.arange(n), 2)]
            )
            got = _next_state(table, width, state, u)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _scan_lookup(cum, state, u))

    def test_one_state_chain_stays_put(self):
        # the lone state has no exit, so the kernel never looks its row up;
        # the search over a width-1 row still returns that state
        table, width = _jump_table(GeneratorMatrix([[0.0]]))
        assert width == 1 and table.tolist() == [2.0]
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert _next_state(table, width, np.zeros(3, dtype=np.int64), u).tolist() == [0, 0, 0]


class TestOccupationIntegral:
    def test_unit_weights_give_horizon(self, two_state_model, rng):
        path = sample_path(two_state_model, 7.5, rng)
        assert occupation_integral(path, [1.0, 1.0]) == pytest.approx(7.5, rel=1e-12)

    def test_zero_jump_path(self):
        path = EnvironmentPath(4.0, np.array([]), np.array([1]))
        assert occupation_integral(path, [2.0, 5.0]) == pytest.approx(20.0)

    def test_hand_worked_segments(self):
        # states (0, 1, 0) over [0,1), [1,3), [3,4] with weights (2, 5):
        # 2*1 + 5*2 + 2*1 = 14
        path = EnvironmentPath(4.0, np.array([1.0, 3.0]), np.array([0, 1, 0]))
        assert occupation_integral(path, [2.0, 5.0]) == pytest.approx(14.0)


class TestOccupationSampler:
    def test_matches_g_definition_monte_carlo(self, two_state_model):
        # horizon 50/alpha with spectral gap alpha = 2; the mean accumulated
        # centered-rate integral from state 0 converges to g[0] = -0.5
        res = analyze(two_state_model)
        eig = np.linalg.eigvals(two_state_model.generator.q)
        gap = min(-e.real for e in eig if abs(e.real) > 1e-9)
        horizon = 50.0 / gap
        rng = np.random.default_rng(99)
        draws = sample_occupation_integrals(
            two_state_model, res.f_centered, horizon, 40_000, rng
        )
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - res.g[0]) < 3 * se

    def test_agrees_with_path_based_integral_in_mean(self, two_state_model):
        rng = np.random.default_rng(123)
        horizon = 5.0
        weights = np.array([1.0, 3.0])
        kernel = sample_occupation_integrals(two_state_model, weights, horizon, 20_000, rng)
        rng2 = np.random.default_rng(321)
        ref = np.array(
            [
                occupation_integral(sample_path(two_state_model, horizon, rng2), weights)
                for _ in range(4_000)
            ]
        )
        se = np.sqrt(kernel.var() / kernel.size + ref.var() / ref.size)
        assert abs(kernel.mean() - ref.mean()) < 3 * se

    def test_walk_beyond_round_cap_raises_before_any_draw(self, two_state_model):
        # The queue kernel walks the same segments; both refuse at once.
        horizon = 2.0 * MAX_SEGMENT_ROUNDS  # exit rate 1: about 2**25 rounds
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(EnumerationTooLargeError, match="segment walk"):
            sample_occupation_integrals(two_state_model, [1.0, 1.0], horizon, 10, rng)
        with pytest.raises(EnumerationTooLargeError, match="segment walk"):
            sample_queue_counts(two_state_model, ExponentialService(1.0), 1e-300, 1.0, 10, rng)
        assert rng.bit_generator.state == state

    def test_one_state_walk_ends_a_zero_draw_at_the_horizon(self):
        # draw / rate is 0 / 0 there; the walk's error state stays inside the round
        class ZeroDraws:
            def exponential(self, size):
                return np.zeros(size)

        model = CtmcModel(GeneratorMatrix([[0.0]]), [2.0])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = _segment_rounds(model, 7.0, 4, ZeroDraws())
            idx, state, start, end = next(walk)
            assert np.geterr() == before
            assert list(walk) == []
        np.testing.assert_array_equal(end, np.full(4, 7.0))

    def test_one_state_walk_has_no_round_cap(self):
        # One state never jumps, so any finite horizon is one round.
        model = CtmcModel(GeneratorMatrix([[0.0]]), [2.0])
        out = sample_occupation_integrals(model, [2.0], 1e300, 3, np.random.default_rng(6))
        assert np.all(out == 2e300)
