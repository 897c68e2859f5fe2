import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm
from scipy.special import binom, gammainc

from rapidpp import (
    ArgumentError,
    CtmcModel,
    EnumerationTooLargeError,
    ErlangService,
    ExponentialService,
    PeriodicIntensity,
    PmfVector,
    SingularSystemError,
    UniformService,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    default_kmax,
    eta_squared,
    mean_q0,
    periodic_correction_integral,
    poisson_pmf,
    tv_limit_exact,
    tv_limit_mc,
    validate_generator,
)
from rapidpp.expansions import _first_order_pmf, _poisson_logpmf, _poisson_ppf, _products

from conftest import make_two_state, random_irreducible_model
from reference import (
    _compositions,
    first_order_mp,
    hk_derivatives,
    per_factor_abs_deviations,
    tv_limit_enumeration,
)

HALF_ON = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])
# Uniform jumps and rates 0, 1, 2, 5: lambda_star 2, ratios 0, 1/2, 1 and 5/2.
FOUR_STATE = CtmcModel(
    validate_generator(np.ones((4, 4)) - 4.0 * np.eye(4)), np.array([0.0, 1.0, 2.0, 5.0])
)


def _eta_squared_exponential(sigma2, rate, t):
    """Closed form of eta^2 for exponential services."""
    return sigma2 * -np.expm1(-2.0 * rate * t) / (2.0 * rate)


def _mp_survival_and_pdf(service):
    """30-digit survival function and pdf of a service, with the points where they kink."""
    if isinstance(service, UniformService):
        a, b = mp.mpf(service.a), mp.mpf(service.b)

        def surv(s):
            return mp.mpf(1) if s < a else ((b - s) / (b - a) if s < b else mp.mpf(0))

        def pdf(s):
            return 1 / (b - a) if a <= s <= b else mp.mpf(0)

        return surv, pdf, [a, b]
    k = service.shape if isinstance(service, ErlangService) else 1
    rate = mp.mpf(service.rate)

    def surv(s):
        return mp.gammainc(k, rate * s, mp.inf, regularized=True)

    def pdf(s):
        return rate**k * s ** (k - 1) * mp.exp(-rate * s) / mp.factorial(k - 1)

    # dyadic multiples of the mean service time, so short services are resolved
    return surv, pdf, [mp.mpf(2) ** m * k / rate for m in range(-3, 40)]


class TestPoissonPmf:
    def test_infinite_mean_gives_the_zero_pmf(self):
        pmf = poisson_pmf(math.inf, 10)
        assert pmf.kmax == 10 and not pmf.probs.any() and pmf.truncation_mass == 1.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0)

    @pytest.mark.parametrize("probs", [np.ones(2), np.array([0.5, np.nan, 0.5])],
                             ids=["short", "nan"])
    def test_pmf_vector_rejects_bad_probs(self, probs):
        with pytest.raises(ValueError):
            PmfVector(probs, 2, 0.0)

    def test_zero_mean_is_point_mass(self):
        pmf = poisson_pmf(0.0)
        assert pmf.kmax == 0
        assert pmf.probs[0] == 1.0

    def test_mean_one_at_zero(self):
        assert poisson_pmf(1.0).probs[0] == math.exp(-1)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 7.3, 50.0])
    def test_matches_scipy(self, mean):
        pmf = poisson_pmf(mean)
        k = np.arange(pmf.kmax + 1)
        np.testing.assert_allclose(pmf.probs, stats.poisson.pmf(k, mean), rtol=1e-12)

    def test_default_kmax_controls_tail(self):
        assert poisson_pmf(50.0).truncation_mass <= 1e-12

    @pytest.mark.parametrize("mean", [0.3, 1.0, 12.5, 80.0])
    def test_default_kmax_is_smallest(self, mean):
        k = default_kmax(mean)
        assert stats.poisson.cdf(k, mean) >= 1 - 1e-12
        if k > 0:
            assert stats.poisson.cdf(k - 1, mean) < 1 - 1e-12


class TestScipyStatsForms:
    """The scipy.special forms give the bits of the scipy.stats calls they replace."""

    @given(
        log_mean=st.floats(math.log(1e-300), math.log(1e7)),
        q=st.sampled_from([1.0 - 1e-12, 1.0 - 2.0**-52, 0.5]),
    )
    @example(log_mean=math.log(1e-300), q=1.0 - 2.0**-52)
    @example(log_mean=math.log(1e7), q=1.0 - 1e-12)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_ppf_matches_stats(self, log_mean, q):
        mean = math.exp(log_mean)
        assert _poisson_ppf(q, mean) == int(stats.poisson.ppf(q, mean))

    @pytest.mark.parametrize("mean", [1e-300, 1e-6, 0.37, 2.0, 45.5, 399.0, 1e4, 1e7])
    def test_logpmf_matches_stats(self, mean):
        got = _poisson_logpmf(400, mean)
        assert got.tobytes() == stats.poisson.logpmf(np.arange(400), mean).tobytes()

    @pytest.mark.parametrize("mean", [0.0, 5e-324, 1e-310])
    def test_ppf_at_zero_and_subnormal_means(self, mean):
        # a TV axis mass mu*pi underflows to these at subnormal t
        assert _poisson_ppf(1.0 - 1e-10, mean) == int(stats.poisson.ppf(1.0 - 1e-10, mean)) == 0

    @pytest.mark.parametrize(
        "q, mean", [(0.0, 1.0), (1.0, 1.0), (0.5, -1.0), (math.nan, 1.0), (0.5, math.nan)]
    )
    def test_ppf_rejects_q_at_0_or_1_and_bad_means(self, q, mean):
        # stats.poisson.ppf answers q = 0 and q = 1 through wrapper branches,
        # and NaN for the rest; no caller needs either
        with pytest.raises(ValueError):
            _poisson_ppf(q, mean)


class TestHkDerivatives:
    def test_k0_values(self):
        h, h1, _, _ = hk_derivatives(0, 1.0)
        assert h == pytest.approx(math.exp(-1), rel=1e-15)
        assert h1 == pytest.approx(-math.exp(-1), rel=1e-15)

    def test_first_derivative_vanishes_at_mode(self):
        for k in (1, 4, 17):
            assert hk_derivatives(k, float(k))[1] == 0.0

    def test_k2_second_derivative(self):
        h, _, h2, _ = hk_derivatives(2, 1.0)
        assert h == pytest.approx(math.exp(-1) / 2, rel=1e-14)
        assert h2 == pytest.approx(-math.exp(-1) / 2, rel=1e-14)

    def test_against_high_precision_differentiation(self):
        mp.mp.dps = 30
        for k in (0, 3, 25):
            for y in (0.37, 4.2, 60.0):
                fn = lambda yy: mp.e ** (-yy) * yy**k / mp.factorial(k)
                h, h1, h2, h3 = hk_derivatives(k, y)
                for order, val in ((1, h1), (2, h2), (3, h3)):
                    ref = float(mp.diff(fn, y, order))
                    if abs(ref) > 1e-300:
                        assert val == pytest.approx(ref, rel=1e-9)


class TestCorrectedCountPmf:
    def test_zero_eps_reduces_to_poisson(self):
        pmf = corrected_count_pmf(1.3, -0.4, 0.9, 0.0, 2.0)
        np.testing.assert_array_equal(pmf.probs, poisson_pmf(1.3 * 2.0).probs)

    def test_hand_worked_value_at_zero(self):
        # weight(0) = (-1)(-0.5) + (1/2)(1)(1)(1) = 1, factor 1.1
        pmf = corrected_count_pmf(1.0, -0.5, 1.0, 0.1, 1.0)
        assert pmf.probs[0] == pytest.approx(1.1 * math.exp(-1), abs=1e-15)
        assert pmf.probs[0] == pytest.approx(0.4046673852885866, abs=1e-12)

    def test_normalization_and_mean_shift_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            mu = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
            t = rng.uniform(0.5, 4.0)
            g_x0 = rng.uniform(-2, 2)
            sigma2 = rng.uniform(0, 2)
            eps = rng.uniform(0, 1)
            kmax = int(mu + 12 * np.sqrt(mu) + 60)
            pmf = corrected_count_pmf(mu / t, g_x0, sigma2, eps, t, kmax)
            assert abs(pmf.probs.sum() - 1.0) <= 1e-9 + pmf.truncation_mass
            # first moment shifts by eps * g_x0 exactly
            k = np.arange(kmax + 1)
            mean = float(k @ pmf.probs)
            assert mean == pytest.approx(mu + eps * g_x0, abs=1e-9)

    def test_sigma2_weight_alone_sums_to_zero(self):
        mu = 3.7
        base = poisson_pmf(mu, int(mu + 12 * np.sqrt(mu) + 60))
        k = np.arange(base.kmax + 1, dtype=float)
        w = 0.5 * (1 - 2 * k / mu + k * (k - 1) / mu**2)
        assert abs(float(w @ base.probs)) < 1e-9
        assert abs(float((k * w) @ base.probs)) < 1e-9

    def test_negative_entries_are_flagged_not_clamped(self):
        # large eps and sigma2 push far-tail entries negative
        pmf = corrected_count_pmf(1.0, -2.0, 2.0, 1.0, 1.0)
        assert pmf.negative_indices
        assert pmf.probs[pmf.negative_indices[0]] < 0


class TestPeriodicCorrection:
    def test_whole_period_horizon_gives_zero(self):
        # binary-exact eps keeps t/eps an exact integer
        assert periodic_correction_integral(HALF_ON, 0.25, 1.0) == 0.0

    def test_hand_worked_half_period(self):
        val = periodic_correction_integral(HALF_ON, 0.4, 1.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_constant_intensity_never_corrects(self):
        flat = PeriodicIntensity([0.0], [3.0])
        for eps in (0.13, 0.4, 0.77):
            assert periodic_correction_integral(flat, eps, 1.7) == 0.0

    def test_zero_integral_reduces_to_poisson(self):
        pmf = corrected_count_pmf_periodic(HALF_ON, 0.25, 1.0)
        np.testing.assert_array_equal(pmf.probs, poisson_pmf(1.0).probs)

    def test_hand_worked_value_at_zero(self):
        pmf = corrected_count_pmf_periodic(HALF_ON, 0.4, 1.0)
        assert pmf.probs[0] == pytest.approx(0.8 * math.exp(-1), abs=1e-12)
        assert pmf.probs[0] == pytest.approx(0.2943035529371539, abs=1e-12)

    def test_normalization(self):
        pmf = corrected_count_pmf_periodic(HALF_ON, 0.4, 3.0, kmax=60)
        assert abs(pmf.probs.sum() - 1.0) <= 1e-9 + pmf.truncation_mass


def _scalar_survival_integral(service, t):
    """The scalar survival integrals the services had before they took arrays."""
    if t <= 0:
        return 0.0
    if isinstance(service, ExponentialService):
        return float(-np.expm1(-service.rate * t) / service.rate)
    if isinstance(service, ErlangService):
        js = np.arange(1, service.shape + 1)
        return float(np.sum(gammainc(js, service.rate * t)) / service.rate)
    if t <= service.a:
        return float(t)
    tt = min(t, service.b)
    u = (tt - service.a) / (service.b - service.a)
    return float(service.a + (tt - service.a) * (1.0 - u / 2.0))


# rate in [1e-8, 1e8]; rate * t in [1e-290, 1e300], or t = -1 for None
_LOG_RATE = st.floats(-8.0, 8.0)
_LOG_YS = st.lists(st.none() | st.floats(-290.0, 300.0), min_size=1, max_size=12)


def _times(log_rate, log_ys):
    rate = 10.0**log_rate
    return rate, np.array([-1.0 if ly is None else 10.0**ly / rate for ly in log_ys])


class TestMeanQ0:
    @given(shape=st.integers(1, 1000), log_rate=_LOG_RATE, log_ys=_LOG_YS)
    @example(shape=8, log_rate=3.0, log_ys=[303.0])  # y^8 / 8! overflows here
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_erlang_array_matches_scalar_formula(self, shape, log_rate, log_ys):
        rate, t = _times(log_rate, log_ys)
        service = ErlangService(shape, rate)
        got = service.survival_integral(t)
        ref = [_scalar_survival_integral(service, x) for x in t]
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    @given(
        log_rate=_LOG_RATE,
        log_ys=_LOG_YS,
        a=st.floats(0.0, 10.0),
        width=st.floats(1e-3, 10.0),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_exponential_and_uniform_arrays_match_scalar_formulas(
        self, log_rate, log_ys, a, width
    ):
        rate, t = _times(log_rate, log_ys)
        uniform = UniformService(a, a + width)
        uniform_t = np.concatenate([t, a + width * np.linspace(-1.5, 1.5, 7)])
        for service, ts in ((ExponentialService(rate), t), (uniform, uniform_t)):
            got = service.survival_integral(ts)
            ref = [_scalar_survival_integral(service, x) for x in ts]
            assert not np.isnan(got).any()
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_zero_time_starts_empty(self):
        assert mean_q0(1.0, ExponentialService(1.0), 0.0) == 0.0

    def test_exponential_closed_form(self):
        assert mean_q0(1.0, ExponentialService(1.0), 1.0) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    def test_long_horizon_reaches_offered_load(self):
        for mu in (0.5, 1.0, 4.0):
            assert mean_q0(1.0, ExponentialService(mu), 50.0 / mu) == pytest.approx(
                1.0 / mu, abs=1e-9
            )

    @pytest.mark.parametrize(
        "service,t",
        [
            (ErlangService(2, 2.0), 1.3),
            (ErlangService(3, 1.5), 0.7),
            (UniformService(0.5, 2.0), 1.2),
            (UniformService(0.0, 2.0), 3.0),
            (UniformService(0.5, 2.0), 0.3),
        ],
    )
    def test_survival_integral_against_quadrature(self, service, t):
        mp.mp.dps = 30
        kinks = (service.a, service.b) if isinstance(service, UniformService) else ()
        pieces = sorted({0.0, t, *(p for p in kinks if 0 < p < t)})
        ref = float(mp.quad(lambda s: float(service.survival(float(s))), pieces))
        assert mean_q0(2.5, service, t) == pytest.approx(2.5 * ref, abs=1e-10)

    @pytest.mark.parametrize(
        "service", [ErlangService(3, 1.5), UniformService(0.5, 2.0), UniformService(0.0, 2.0)],
        ids=repr,
    )
    def test_survival_pieces_cover_the_half_line(self, service):
        pieces = service.survival_pieces()
        assert [lo for lo, *_ in pieces] == [0.0, *(hi for _, hi, *_ in pieces[:-1])]
        assert pieces[-1][1] == math.inf
        for lo, hi, alpha, phases, c in pieces:
            for s in np.linspace(lo, min(hi, lo + 3.0), 7)[:-1]:
                piece = alpha @ expm(phases * (s - lo)) @ c
                assert piece == pytest.approx(float(service.survival(s)), abs=1e-14)


class TestEtaSquared:
    def test_zero_sigma2(self):
        assert eta_squared(0.0, ExponentialService(1.0), 1.0) == 0.0

    def test_exponential_hand_value(self):
        val = eta_squared(1.0, ExponentialService(1.0), 1.0)
        assert val == pytest.approx(0.5 - 0.5 * math.exp(-2), abs=1e-9)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("rate", [1.0, 2.5])
    def test_quadrature_matches_closed_form(self, t, rate):
        quad_val = eta_squared(1.7, ExponentialService(rate), t)
        closed = _eta_squared_exponential(1.7, rate, t)
        assert quad_val == pytest.approx(closed, abs=1e-9)

    def test_uniform_support_boundary(self):
        service = UniformService(0.0, 2.0)
        t = 3.0  # beyond b: survival(t) = 0, only the integral term remains
        val = eta_squared(1.0, service, t)
        mp.mp.dps = 30
        ref = 2 * float(mp.quad(lambda s: (2 - s) / 4 * s, [0, 2]))
        assert float(service.survival(t)) == 0.0
        assert val == pytest.approx(ref, abs=1e-9)

    def test_erlang_against_high_precision_quadrature(self):
        service = ErlangService(2, 2.0)
        t = 1.4
        mp.mp.dps = 30

        def integrand(s):
            surv = mp.gammainc(2, 2 * s, mp.inf, regularized=True)
            dens = 4 * s * mp.e ** (-2 * s)
            return surv * dens * s

        ref = 2 * 0.9 * float(mp.quad(integrand, [0, t])) + 0.9 * t * float(
            service.survival(t)
        ) ** 2
        assert eta_squared(0.9, service, t) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize(
        "service,t",
        [
            (UniformService(0.5, 2.0), 0.3),
            (UniformService(0.5, 2.0), 1.2),
            (UniformService(0.5, 2.0), 3.0),
            (ErlangService(1, 2.0), 0.7),
            (ErlangService(2, 2.0), 1.4),
            (ErlangService(5, 1.3), 2.0),
            # short services on long horizons (true integrals 0.01, 0.03125, 0.034375)
            (ExponentialService(50.0), 1000.0),
            (ErlangService(2, 40.0), 1000.0),
            (ErlangService(3, 60.0), 2000.0),
        ],
    )
    def test_against_defining_formula(self, service, t):
        """eta^2 = 2 sigma2 int_0^t S g s ds + sigma2 t S(t)^2, at 30 digits."""
        mp.mp.dps = 30
        sigma2 = mp.mpf("0.9")
        surv, pdf, kinks = _mp_survival_and_pdf(service)
        pieces = [mp.mpf(0)] + [p for p in kinks if 0 < p < t] + [mp.mpf(t)]
        integral = mp.quad(lambda s: surv(s) * pdf(s) * s, pieces)
        ref = float(2 * sigma2 * integral + sigma2 * t * surv(mp.mpf(t)) ** 2)
        assert eta_squared(0.9, service, t) == pytest.approx(ref, rel=1e-12, abs=0)

    @given(
        service=st.one_of(
            st.builds(ExponentialService, st.floats(1e-3, 1e3)),
            st.builds(ErlangService, st.integers(1, 8), st.floats(1e-3, 1e3)),
            st.builds(
                lambda a, width: UniformService(a, a + width),
                st.floats(0.0, 1e3),
                st.floats(1e-3, 1e3),
            ),
        ),
        t=st.floats(1e-6, 1e4),
        dt=st.floats(0.0, 1e4),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_bounded_and_nondecreasing(self, service, t, dt):
        """0 <= S <= 1 gives 0 <= int S^2 <= int S; the integrand is nonnegative.

        Both comparisons allow a relative 1e-13 for rounding: as t -> 0 both
        integrals tend to t, near the end of a uniform support eta^2 is nearly flat,
        and the Erlang forms sum scipy's gammainc, good to a few dozen ulp.
        """
        slack = 1e-13
        eta2 = eta_squared(1.0, service, t)
        assert 0.0 <= eta2 <= service.survival_integral(t) * (1.0 + slack)
        assert eta_squared(1.0, service, t + dt) >= eta2 * (1.0 - slack)

    @pytest.mark.parametrize("shape", [1, 2, 7, 40, 200, 500])
    def test_erlang_sum_matches_the_double_sum(self, shape):
        # the shape x shape grid that the O(shape) sum replaced; its binom and
        # 0.5**(n + 1) leave double range from shape about 516
        i, j = np.indices((shape, shape))
        n = i + j
        for rate, t in [(1.0, 0.3), (1.0, float(shape)), (float(shape), 1.0), (2.5, 3.0 * shape)]:
            ref = np.sum(binom(n, i) * 0.5 ** (n + 1) * gammainc(n + 1, 2.0 * rate * t)) / rate
            got = ErlangService(shape, rate).survival_square_integral(t)
            assert got == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "shape, rate, t",
        [(1000, 1.0, 1.0), (1000, 1000.0, 1.0), (1000, 1.0, 1000.0),
         (3000, 1.0, 1.0), (3000, 1.0, 2990.0), (3000, 1.0, 5000.0)],
    )
    def test_erlang_at_large_shape_against_quadrature(self, shape, rate, t):
        mp.mp.dps = 30
        centre, width = mp.mpf(shape) / rate, 12 * mp.sqrt(shape) / rate
        kinks = [p for p in (centre - width, centre, centre + width) if 0 < p < t]
        pieces = [mp.mpf(0), *kinks, mp.mpf(t)]
        ref = float(mp.quad(lambda s: mp.gammainc(shape, rate * s, mp.inf, regularized=True) ** 2,
                            pieces))
        got = ErlangService(shape, rate).survival_square_integral(t)
        assert math.isfinite(got) and got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("service", [ErlangService(2, 2.0), UniformService(0.25, 1.5)])
    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_survival_square_integral_is_zero_up_to_time_zero(self, service, t):
        assert service.survival_square_integral(t) == 0.0

    def test_erlang_memory_is_linear_in_the_shape(self):
        # a shape x shape grid of doubles would take 80 GB here; survival is 1 to
        # double precision on [0, shape / 2], so the integral is t
        tracemalloc.start()
        try:
            got = ErlangService(100_000, 1.0).survival_square_integral(50_000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(50_000.0, rel=1e-12, abs=0)
        assert peak < 64 * (2 * 100_000 - 1)  # 64 bytes per term of the sum


class TestExponentialIsErlangOfShapeOne:
    """ExponentialService is ErlangService(1, rate); at shape one the Erlang forms must give
    the exponential closed forms: 1 - e^-y over the rate for the survival integral, e^-y for
    the survival, (1 - e^-2y) / 2 rate for the integral of its square, one [[-rate]] phase."""

    RATES = [1e-3, 0.37, 1.0, 2.5, 40.0, 1e3]
    TIMES = np.concatenate([[-1.0, 0.0, 5e-324, 1e-300], np.geomspace(1e-8, 1e5, 200)])
    TINY = np.finfo(float).tiny

    def test_defines_no_survival_quantity_of_its_own(self):
        assert issubclass(ExponentialService, ErlangService)
        names = {"survival", "survival_integral", "survival_square_integral", "survival_pieces",
                 "phases"}
        assert names.isdisjoint(vars(ExponentialService))
        assert ExponentialService(rate=2.5) == ExponentialService(2.5)
        assert (ExponentialService(2.5).shape, ExponentialService(2.5).phases) == (1, 1)

    @pytest.mark.parametrize("rate", RATES)
    def test_survival_integral_and_pieces_match_bit_for_bit(self, rate):
        exp, erlang = ExponentialService(rate), ErlangService(1, rate)
        closed = -np.expm1(-rate * np.maximum(self.TIMES, 0.0)) / rate
        for service in (exp, erlang):
            np.testing.assert_array_equal(service.survival_integral(self.TIMES), closed)
            [(lo, hi, alpha, phases, c)] = service.survival_pieces()
            assert (lo, hi) == (0.0, math.inf)
            for got, want in ((alpha, [1.0]), (phases, [[-rate]]), (c, [1.0])):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == np.float64

    @pytest.mark.parametrize("rate", RATES)
    def test_survival_and_its_square_integral_match_to_1e_13(self, rate):
        # gammaincc flushes to zero where e^-y is subnormal (y above about 708), hence the
        # absolute tolerance of the smallest normal double
        exp, erlang = ExponentialService(rate), ErlangService(1, rate)
        with np.errstate(over="ignore"):  # e^-y at t = -1 for the largest rates
            closed = np.where(self.TIMES >= 0, np.exp(-rate * self.TIMES), 1.0)
        for service in (exp, erlang):
            np.testing.assert_allclose(service.survival(self.TIMES), closed,
                                       rtol=1e-13, atol=self.TINY)
            for t in self.TIMES[self.TIMES > 0]:
                want = -np.expm1(-2.0 * rate * t) / (2.0 * rate)
                assert service.survival_square_integral(t) == pytest.approx(want, rel=1e-13)

    def test_survival_integral_of_an_overflowing_rate_t_warns_of_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for service in (ExponentialService(1e3), ErlangService(3, 1e3)):
                assert service.survival_integral(1e308) == service.shape / service.rate
                assert service.survival(1e308) == 0.0


class TestCorrectedQueuePmf:
    def test_zero_eps_reduces_to_poisson(self):
        service = ExponentialService(1.0)
        pmf = corrected_queue_pmf(1.0, -0.5, 1.0, service, 0.0, 1.0)
        np.testing.assert_array_equal(pmf.probs, poisson_pmf(mean_q0(1.0, service, 1.0)).probs)

    def test_hand_worked_value_at_zero(self):
        # m = 1 - e^-1, survival(1) = e^-1, eta2 = 0.5 - 0.5 e^-2;
        # factor = 1 + 0.1 [0.5 e^-1 + eta2 / 2]; p = e^-m * factor
        pmf = corrected_queue_pmf(1.0, -0.5, 1.0, ExponentialService(1.0), 0.1, 1.0)
        m = 1 - math.exp(-1)
        eta2 = 0.5 - 0.5 * math.exp(-2)
        expected = math.exp(-m) * (1 + 0.1 * (0.5 * math.exp(-1) + 0.5 * eta2))
        assert pmf.probs[0] == pytest.approx(expected, abs=1e-12)
        assert pmf.probs[0] == pytest.approx(0.5527277777897868, abs=1e-12)

    @pytest.mark.parametrize(
        "pmf",
        [
            lambda t: corrected_count_pmf(1.0, 0.0, 1.0, 0.1, t),
            lambda t: corrected_count_pmf_periodic(HALF_ON, 0.1, t),
            lambda t: corrected_queue_pmf(1.0, 0.0, 1.0, ExponentialService(1.0), 0.1, t),
        ],
        ids=["count", "periodic", "queue"],
    )
    def test_degenerate_mean_raises(self, pmf):
        # the mean check comes first: at t = 0 the periodic integral and
        # eta_squared would raise ArgumentError and ValueError instead
        with pytest.raises(SingularSystemError):
            pmf(0.0)

    def test_negative_sigma2_raises(self):
        with pytest.raises(ValueError, match="sigma2"):
            corrected_queue_pmf(1.0, 0.0, -0.1, ExponentialService(1.0), 0.1, 1.0)

    def test_a_service_that_outlasts_t_gives_the_count_pmf(self):
        # S = 1 on [0, t]: mean lambda_star t, shift g_x0 and excess sigma2 t, bit for bit
        rng = np.random.default_rng(23)
        cases = [(1.3, -0.4, 0.3, 0.1, 1.7)] + [
            (rng.uniform(0.1, 20), rng.uniform(-2, 2), rng.uniform(0, 2), rng.uniform(0, 1),
             rng.uniform(0.1, 5))
            for _ in range(25)
        ]
        for lam, g_x0, sigma2, eps, t in cases:
            queue = corrected_queue_pmf(lam, g_x0, sigma2, UniformService(2 * t, 3 * t), eps, t)
            count = corrected_count_pmf(lam, g_x0, sigma2, eps, t)
            np.testing.assert_array_equal(queue.probs, count.probs)

    def test_normalization_and_mean_shift(self):
        rng = np.random.default_rng(5)
        services = [
            ExponentialService(0.7),
            ErlangService(2, 2.0),
            UniformService(0.0, 2.0),
            UniformService(0.3, 1.1),
        ]
        for _ in range(25):
            service = services[rng.integers(len(services))]
            t = rng.uniform(0.5, 4.0)
            target_m = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
            lam = target_m / service.survival_integral(t)
            g_x0 = rng.uniform(-2, 2)
            sigma2 = rng.uniform(0, 2)
            eps = rng.uniform(0, 1)
            kmax = int(target_m + 12 * np.sqrt(target_m) + 60)
            pmf = corrected_queue_pmf(lam, g_x0, sigma2, service, eps, t, kmax)
            assert abs(pmf.probs.sum() - 1.0) <= 1e-9 + pmf.truncation_mass
            k = np.arange(kmax + 1)
            mean = float(k @ pmf.probs)
            expected = target_m + eps * g_x0 * float(service.survival(t))
            assert mean == pytest.approx(expected, abs=1e-8)


class TestFirstOrderOverflow:
    # (pmf, mean, shift, excess, leading entries): k/m and m^2 leave double range at these
    # means, but the backward differences of the baseline do not
    TINY_MEANS = {
        "tiny-mean": (
            lambda: corrected_count_pmf(1.0, -0.5, 1.0, 0.5, 1e-300), 1e-300, -0.5, 1e-300,
            [1.25],
        ),
        "tiny-mean-kmax-3": (
            lambda: corrected_count_pmf(1.0, -0.5, 1.0, 0.5, 1e-160, kmax=3), 1e-160, -0.5,
            1e-160, [1.25, -0.25],
        ),
        "periodic": (
            lambda: corrected_count_pmf_periodic(HALF_ON, 0.5, 1e-310, kmax=3), 1e-310, 2e-310,
            0.0, [1.0],
        ),
        # survival(1) = e^-1e300 = 0, so the shift is 0
        "exponential": (
            lambda: corrected_queue_pmf(1.0, -0.5, 1.0, ExponentialService(1e300), 0.5, 1.0),
            1e-300, 0.0, 5e-301, [1.0],
        ),
        "uniform": (
            lambda: corrected_queue_pmf(1.0, -0.5, 1.0, UniformService(0.0, 1e-300), 0.5, 1.0),
            5e-301, 0.0, 1e-300 / 3, [1.0],
        ),
    }

    @pytest.mark.parametrize("case", list(TINY_MEANS))
    def test_tiny_mean_is_answered(self, case):
        pmf, mean, shift, excess, leading = self.TINY_MEANS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = pmf().probs
        assert probs[: len(leading)].tolist() == pytest.approx(leading, rel=1e-15)
        ref = first_order_mp(mean, probs.size - 1, 0.5, shift, excess)
        assert np.max(np.abs(probs - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "pmf",
        [
            # an infinite mean times an infinite excess: inf * 0
            lambda: corrected_count_pmf(5.0, -2.5, 25.0, 0.5, 1e308, kmax=5),
            # at k = 1 both terms are finite, but they sum to about -2.7e308
            lambda: corrected_count_pmf(1e-300, -1.7e308, 1e308, 1.0, 1.0, kmax=1),
        ],
        ids=["infinite-mean", "overflowing-sum"],
    )
    def test_raises_singular_system_error_without_warnings(self, pmf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="double range"):
                pmf()


class TestKernelAgainstMpmath:
    """The kernel against a 40-digit h + eps (h' shift + h''/2 excess), from means where
    k/m and m^2 leave double range up to the largest mean the baseline sums to one at."""

    TRIPLES = ((0.1, -1.5, 0.3), (0.7, 0.8, 1.25), (0.5, -0.5, 1.0))

    @pytest.mark.parametrize("mean", [1e-300, 1e-160, 1e-20, 1e-6, 0.3, 1.7, 6.0, 25.0, 600.0])
    def test_matches_to_rounding(self, mean):
        base = poisson_pmf(mean, default_kmax(mean) + 3)
        for eps, shift, excess in self.TRIPLES:
            probs = _first_order_pmf(base, eps, shift, excess).probs
            ref = first_order_mp(mean, base.kmax, eps, shift, excess)
            assert np.max(np.abs(probs - ref)) <= 1e-14 * np.max(np.abs(ref))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        log_mean=st.floats(-300.0, 2.5),
        kmax=st.integers(0, 60),
        eps=st.floats(0.0, 1.0),
        shift=st.floats(-10.0, 10.0),
        excess=st.floats(0.0, 10.0),
    )
    def test_sum_telescopes(self, log_mean, kmax, eps, shift, excess):
        # the differences sum to -p(K) and p(K) - p(K-1) over 0..K
        base = poisson_pmf(10.0**log_mean, kmax)
        p = base.probs
        below = p[kmax - 1] if kmax else 0.0
        total = math.fsum(_first_order_pmf(base, eps, shift, excess).probs)
        expected = math.fsum(p) - eps * shift * p[kmax] + 0.5 * eps * excess * (p[kmax] - below)
        assert total == pytest.approx(expected, rel=0, abs=(kmax + 2) * 1e-15 * (1 + excess))


class TestKernelAgainstHkDerivatives:
    """Every corrected pmf is h + eps (h' shift + h''/2 excess) at its mean m,
    with h the Poisson weight checked against mpmath above."""

    GRID_M = (0.3, 1.7, 6.0, 25.0)
    GRID_EPS = (0.0, 0.1, 0.7)

    @staticmethod
    def assert_matches_hk(pmf, m, shift, excess, eps):
        for k in range(min(pmf.kmax, int(m + 6 * math.sqrt(m)) + 3) + 1):
            h, h1, h2, _ = hk_derivatives(k, m)
            assert pmf.probs[k] == pytest.approx(
                h + eps * (h1 * shift + 0.5 * h2 * excess), abs=1e-12
            )

    def test_count(self):
        t = 2.0
        for m in self.GRID_M:
            lam = m / t
            for shift in (-1.5, 0.0, 0.8):
                for sigma2 in (0.0, 0.3, 1.25):
                    for eps in self.GRID_EPS:
                        pmf = corrected_count_pmf(lam, shift, sigma2, eps, t)
                        self.assert_matches_hk(pmf, lam * t, shift, sigma2 * t, eps)

    def test_queue(self):
        t = 1.5
        for service in (ExponentialService(1.3), UniformService(0.2, 2.0)):
            survival = float(service.survival(t))
            for m in self.GRID_M:
                lam = m / service.survival_integral(t)
                for g_x0 in (-1.5, 0.0, 0.8):
                    for sigma2 in (0.0, 0.3, 1.25):
                        excess = eta_squared(sigma2, service, t)
                        for eps in self.GRID_EPS:
                            pmf = corrected_queue_pmf(lam, g_x0, sigma2, service, eps, t)
                            mean = mean_q0(lam, service, t)
                            self.assert_matches_hk(pmf, mean, g_x0 * survival, excess, eps)

    def test_periodic(self):
        t = 1.0
        for m in self.GRID_M:
            intensity = PeriodicIntensity([0.0, 0.3], [3.0 * m, 0.5 * m])
            for eps in (0.1, 0.35, 0.7):
                c = periodic_correction_integral(intensity, eps, t)
                pmf = corrected_count_pmf_periodic(intensity, eps, t)
                self.assert_matches_hk(pmf, intensity.average_rate * t, c, 0.0, eps)


class TestCompositions:
    def test_rows_are_sorted_brute_force_compositions(self):
        # the row order fixes the summation order of tv_limit_enumeration
        for parts in range(1, 7):
            for total in range(11):
                brute = sorted(
                    c
                    for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total
                )
                comps = _compositions(total, parts)
                assert comps.dtype == np.int64
                assert comps.tolist() == [list(c) for c in brute]


class TestTvLimit:
    def test_constant_rates_give_exact_zero(self):
        model = make_two_state(rates=(2.0, 2.0))
        assert tv_limit_exact(model, 1.0) == 0.0

    def test_zero_time_gives_zero(self, two_state_model):
        assert tv_limit_exact(two_state_model, 0.0) == 0.0

    def test_worked_two_state_closed_form(self, two_state_model):
        # given n draws the deviation is 2(1 - 2^-n), so the limit is 1 - e^(-t/2)
        for t in (1.0, 2.0, 10.0, 50.0, 60.0, 1e3, 1e5):
            val = tv_limit_exact(two_state_model, t)
            assert val == pytest.approx(-math.expm1(-t / 2.0), abs=1e-9)

    def test_bounds_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            model = random_irreducible_model(rng, max_states=4, max_rate=3.0)
            t = rng.uniform(0.2, 1.5)
            val = tv_limit_exact(model, t)
            assert 0.0 <= val <= 1.0
            if not np.all(model.rates == model.rates[0]):
                assert val > 0.0

    def test_agrees_with_composition_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            model = random_irreducible_model(rng, max_states=4, max_rate=3.0)
            t = rng.uniform(0.1, 2.0)
            for mass in (1e-10, 1e-6):
                diff = tv_limit_exact(model, t, mass) - tv_limit_enumeration(model, t, mass)
                assert abs(diff) <= 2 * mass

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 5.0), dt=st.floats(0.0, 5.0))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_bounded_and_nondecreasing_in_t(self, seed, t, dt):
        # restricting the paths to [0, t] cannot increase their distance
        mass = 1e-10
        model = random_irreducible_model(np.random.default_rng(seed), max_states=4, max_rate=3.0)
        val = tv_limit_exact(model, t, mass)
        assert 0.0 <= val <= 1.0
        assert tv_limit_exact(model, t + dt, mass) >= val - 2 * mass

    def test_guard_on_state_count(self):
        # seven states, and a Poisson truncation beyond 80 at t = 60, are
        # past what the reference enumeration accepts; the product grid is not
        rng = np.random.default_rng(8)
        q = np.full((7, 7), 1.0)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        model_big = make_two_state()
        from rapidpp import CtmcModel, validate_generator

        model7 = CtmcModel(validate_generator(q), rng.uniform(0, 2, 7))
        exact = tv_limit_exact(model7, 1.0)
        est, se = tv_limit_mc(model7, 1.0, 200_000, np.random.default_rng(0))
        assert abs(est - exact) <= 3 * se + 1e-10
        assert tv_limit_exact(model_big, 60.0) == pytest.approx(-math.expm1(-30.0), abs=1e-9)
        # rates 0..6 at t = 200: five ratio axes of about 200 counts each
        rates7 = CtmcModel(validate_generator(q), np.arange(7.0))
        with pytest.raises(EnumerationTooLargeError):
            tv_limit_exact(rates7, 200.0)

    def test_mc_constant_rates_exact_zero(self):
        model = make_two_state(rates=(2.0, 2.0))
        est, se = tv_limit_mc(model, 1.0, 1000, np.random.default_rng(0))
        assert est == 0.0 and se == 0.0

    def test_mc_agrees_with_exact(self, two_state_model):
        est, se = tv_limit_mc(two_state_model, 1.0, 200_000, np.random.default_rng(42))
        assert abs(est - (1 - math.exp(-0.5))) < 3 * se

    def test_mc_agreement_on_random_models(self):
        rng = np.random.default_rng(31)
        for seed in range(3):
            model = random_irreducible_model(rng, max_states=4, max_rate=3.0)
            exact = tv_limit_exact(model, 0.8)
            est, se = tv_limit_mc(model, 0.8, 200_000, np.random.default_rng(seed))
            assert abs(est - exact) <= 3 * se + 1e-10

    def test_mc_requires_minimum_reps(self, two_state_model):
        with pytest.raises(ValueError):
            tv_limit_mc(two_state_model, 1.0, 50, np.random.default_rng(0))

    def test_coloured_draw_has_the_per_factor_law(self):
        # |product - 1| is discrete: one atom per (zero hit, counts of 1/2 and 5/2)
        reps = 20_000
        coloured = np.abs(_products(FOUR_STATE, 1.5, reps, np.random.default_rng(71)) - 1.0)
        per_factor = per_factor_abs_deviations(FOUR_STATE, 1.5, reps, np.random.default_rng(72))
        atoms, cells = np.unique(np.round(np.concatenate([coloured, per_factor]), 9),
                                 return_inverse=True)
        table = np.stack([np.bincount(cells[:reps], minlength=atoms.size),
                          np.bincount(cells[reps:], minlength=atoms.size)])
        common = table.sum(axis=0) >= 20
        table = np.column_stack([table[:, common], table[:, ~common].sum(axis=1)])
        assert common.sum() >= 8
        assert stats.chi2_contingency(table).pvalue > 1e-3

    def test_mc_holds_at_a_large_mean_factor_count(self):
        # lambda_star t = 40: the rare huge products that make E[product] = 1
        # dominate the mean of |product - 1|, but not the mean of (1 - product)+
        est, se = tv_limit_mc(FOUR_STATE, 20.0, 200_000, np.random.default_rng(1))
        assert abs(est - tv_limit_exact(FOUR_STATE, 20.0)) < 0.01
        assert se < 0.01

    def test_mc_memory_does_not_grow_with_the_horizon(self):
        # lambda_star t = 400 factors per replication; a per-factor draw
        # would hold 8,000,000 states
        reps = 20_000
        tracemalloc.start()
        try:
            tv_limit_mc(FOUR_STATE, 200.0, reps, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * reps

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_t_below_zero_or_nan_is_an_argument_error(self, two_state_model, t):
        for call in (
            lambda: tv_limit_exact(two_state_model, t),
            lambda: tv_limit_mc(two_state_model, t, 100, np.random.default_rng(0)),
        ):
            with pytest.raises(ArgumentError) as info:
                call()
            assert info.value.path == "t"

    def test_infinite_t_is_a_guard_violation(self, two_state_model):
        with pytest.raises(EnumerationTooLargeError):
            tv_limit_exact(two_state_model, math.inf)
        with pytest.raises(EnumerationTooLargeError):
            tv_limit_mc(two_state_model, math.inf, 100, np.random.default_rng(0))

    def test_subnormal_lambda_star_is_a_numerical_failure(self):
        # pi = (1.48e-311, 1), so lambda_star = 1.48e-311 and rates[0] / lambda_star is
        # past the largest double; the limit is at most lambda_star t, not 1
        q = [[-2.7766894233684487e136, 2.7766894233684487e136],
             [4.1096006747559125e-175, -4.1096006747559125e-175]]
        model = CtmcModel(validate_generator(q), np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: tv_limit_exact(model, 1.0),
                lambda: tv_limit_mc(model, 1.0, 100, np.random.default_rng(0)),
            ):
                with pytest.raises(SingularSystemError, match="leave double range"):
                    call()
