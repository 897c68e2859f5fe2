"""Argument checks of the kernels, expansions and model constructors, and the one-state segment round."""

import math

import numpy as np
import pytest

from rapidpp import (
    ArgumentError,
    ConfigError,
    CtmcModel,
    ErlangService,
    ExperimentSpec,
    ExponentialService,
    GeneratorMatrix,
    PeriodicIntensity,
    PoissonBase,
    RenewalGammaBase,
    UniformService,
    convergence_study,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    estimate_pmf,
    eta_squared,
    mean_q0,
    periodic_correction_integral,
    poisson_pmf,
    sample_cox_counts,
    sample_occupation_integrals,
    sample_queue_counts,
    sample_thinned_counts,
    tv_limit_exact,
    tv_limit_mc,
)
from rapidpp.arrivals import periodic_mean_count
from rapidpp.expansions import MAX_KMAX
from rapidpp.markov_env import _segment_rounds

from conftest import make_two_state
from gof import construction_equivalence_test

MODEL = make_two_state()
HALF_ON = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])
SERVICE = ExponentialService(1.0)


def _rng():
    return np.random.default_rng(11)


# Each entry calls one public function with the given (eps, t).  The
# samplers form t/eps and need eps > 0; the rest accept eps 0.
SAMPLERS = {
    "sample_cox_counts": lambda eps, t: sample_cox_counts(MODEL, eps, t, 10, _rng()),
    "ExperimentSpec.sample_counts": lambda eps, t: ExperimentSpec(HALF_ON, t, eps).sample_counts(
        10, _rng()
    ),
    "sample_thinned_counts": lambda eps, t: sample_thinned_counts(
        RenewalGammaBase(2.0, 2.0), eps, t, 10, _rng()
    ),
    "sample_queue_counts": lambda eps, t: sample_queue_counts(MODEL, SERVICE, eps, t, 10, _rng()),
    "periodic_mean_count": lambda eps, t: periodic_mean_count(HALF_ON, eps, t),
    "periodic_correction_integral": lambda eps, t: periodic_correction_integral(HALF_ON, eps, t),
    "construction_equivalence_test": lambda eps, t: construction_equivalence_test(
        MODEL, eps, t, 100, 0
    ),
}
EXPANSIONS = {
    "corrected_count_pmf": lambda eps, t: corrected_count_pmf(1.0, -0.5, 1.0, eps, t),
    "corrected_count_pmf_periodic": lambda eps, t: corrected_count_pmf_periodic(HALF_ON, eps, t),
    "corrected_queue_pmf": lambda eps, t: corrected_queue_pmf(1.0, -0.5, 1.0, SERVICE, eps, t),
    "ExperimentSpec": lambda eps, t: ExperimentSpec(MODEL, t, eps),
}
EVERY = {**SAMPLERS, **EXPANSIONS}


class TestEpsAndTChecks:
    @pytest.mark.parametrize("name", list(EVERY))
    @pytest.mark.parametrize("eps", [-0.1, 1.5, math.nan])
    def test_eps_outside_unit_interval_rejected(self, name, eps):
        with pytest.raises(ValueError):
            EVERY[name](eps, 1.0)

    @pytest.mark.parametrize("name", list(EVERY))
    @pytest.mark.parametrize("t", [0.0, math.nan])
    def test_t_not_positive_rejected(self, name, t):
        with pytest.raises(ValueError):
            EVERY[name](0.5, t)

    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_samplers_reject_eps_zero(self, name):
        with pytest.raises(ValueError):
            SAMPLERS[name](0.0, 1.0)

    @pytest.mark.parametrize("name", list(EXPANSIONS))
    def test_expansions_accept_eps_zero(self, name):
        EXPANSIONS[name](0.0, 1.0)

    @pytest.mark.parametrize("horizon", [0.0, math.nan])
    def test_occupation_horizon_not_positive_rejected(self, horizon):
        with pytest.raises(ValueError):
            sample_occupation_integrals(MODEL, MODEL.rates, horizon, 10, _rng())

    # The renewal sampler is left out: its CDF table guard reports an
    # infinite horizon as EnumerationTooLargeError (see test_cli).
    @pytest.mark.parametrize("name", [n for n in SAMPLERS if n != "sample_thinned_counts"])
    def test_samplers_reject_infinite_horizon(self, name):
        # 1/1e-320 overflows to inf; the segment rounds would never end
        with pytest.raises(ValueError):
            SAMPLERS[name](1e-320, 1.0)

    def test_occupation_horizon_infinite_rejected(self):
        with pytest.raises(ValueError):
            sample_occupation_integrals(MODEL, MODEL.rates, math.inf, 10, _rng())


# Each entry is (parameter, call): the call passes one unusable value of it.
ARGUMENT_ERRORS = {
    "eps": ("eps", lambda: sample_cox_counts(MODEL, 1.5, 1.0, 10, _rng())),
    "t/eps": ("eps", lambda: sample_queue_counts(MODEL, SERVICE, 1e-320, 1.0, 10, _rng())),
    "t": ("t", lambda: sample_cox_counts(MODEL, 0.5, 0.0, 10, _rng())),
    "reps": ("reps", lambda: tv_limit_mc(MODEL, 1.0, 99, _rng())),
    "eps_grid": ("eps_grid", lambda: convergence_study(MODEL, None, [0.1, 0.4], 1.0, 100, 0)),
    "eps_grid t/eps": (
        "eps_grid", lambda: convergence_study(MODEL, None, [0.5, 1e-320], 1.0, 100, 0)
    ),
    "kmax poisson_pmf": ("kmax", lambda: poisson_pmf(1.0, -1)),
    "kmax above MAX_KMAX": ("kmax", lambda: poisson_pmf(1.0, MAX_KMAX + 1)),
    "kmax corrected_count_pmf": (
        "kmax", lambda: corrected_count_pmf(1.0, -0.5, 1.0, 0.5, 1.0, kmax=-1)
    ),
    "kmax convergence_study": (
        "kmax", lambda: convergence_study(MODEL, None, [0.5], 1.0, 100, 0, kmax=-1)
    ),
    "kmax estimate_pmf": (
        "kmax", lambda: estimate_pmf(ExperimentSpec(MODEL, 1.0, 0.5), 100, 0, -3)
    ),
    "reps estimate_pmf": ("reps", lambda: estimate_pmf(ExperimentSpec(MODEL, 1.0, 0.5), 0, 0)),
    "master_seed estimate_pmf": (
        "master_seed", lambda: estimate_pmf(ExperimentSpec(MODEL, 1.0, 0.5), 100, -1)
    ),
    "master_seed convergence_study": (
        "master_seed", lambda: convergence_study(MODEL, None, [0.5], 1.0, 100, -1)
    ),
    "workers": (
        "workers", lambda: estimate_pmf(ExperimentSpec(MODEL, 1.0, 0.5), 100, 0, workers=0)
    ),
    **{
        f"truncation_mass {mass}": (
            "truncation_mass", lambda mass=mass: tv_limit_exact(MODEL, 1.0, mass)
        )
        for mass in [2.0, math.nan, 0.0, -1.0]
    },
}


@pytest.mark.parametrize("name", list(ARGUMENT_ERRORS))
def test_argument_error_is_a_value_and_config_error_naming_the_parameter(name):
    path, call = ARGUMENT_ERRORS[name]
    with pytest.raises(ArgumentError) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, ConfigError)
    assert info.value.path == path


# Each entry calls one function with a NaN in one argument.
NAN_ARGUMENTS = {
    "eta_squared_t": lambda: eta_squared(1.0, SERVICE, math.nan),
    "eta_squared_sigma2": lambda: eta_squared(math.nan, SERVICE, 1.0),
    "mean_q0_t": lambda: mean_q0(1.0, SERVICE, math.nan),
    "mean_q0_lambda_star": lambda: mean_q0(math.nan, SERVICE, 1.0),
}
NON_FINITE_MODELS = {
    "ExponentialService(nan)": lambda: ExponentialService(math.nan),
    "ExponentialService(inf)": lambda: ExponentialService(math.inf),
    "ErlangService(2, nan)": lambda: ErlangService(2, math.nan),
    "ErlangService(nan, 1)": lambda: ErlangService(math.nan, 1.0),
    "ErlangService(inf, 1)": lambda: ErlangService(math.inf, 1.0),
    "UniformService(nan, 1)": lambda: UniformService(math.nan, 1.0),
    "UniformService(0, inf)": lambda: UniformService(0.0, math.inf),
    "PoissonBase(nan)": lambda: PoissonBase(math.nan),
    "RenewalGammaBase(nan, 1)": lambda: RenewalGammaBase(math.nan, 1.0),
    "RenewalGammaBase(2, inf)": lambda: RenewalGammaBase(2.0, math.inf),
    # rate/shape overflows to inf, so the long-run rate is not finite
    "RenewalGammaBase(1e-310, 1)": lambda: RenewalGammaBase(1e-310, 1.0),
    "RenewalGammaBase(1e-300, 1e10)": lambda: RenewalGammaBase(1e-300, 1e10),
    "PeriodicIntensity([0, nan], [1, 1])": lambda: PeriodicIntensity([0.0, math.nan], [1.0, 1.0]),
}


class TestNonFiniteArguments:
    @pytest.mark.parametrize("name", list(NAN_ARGUMENTS))
    def test_nan_argument_rejected(self, name):
        with pytest.raises(ValueError):
            NAN_ARGUMENTS[name]()

    @pytest.mark.parametrize("name", list(NON_FINITE_MODELS))
    def test_non_finite_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            NON_FINITE_MODELS[name]()


class TestOneStateChain:
    def test_one_segment_per_replication(self):
        model = CtmcModel(GeneratorMatrix([[0.0]]), [1.5])
        size, horizon = 1000, 7.25
        rng = np.random.default_rng(3)
        rounds = list(_segment_rounds(model, horizon, size, rng))
        assert len(rounds) == 1
        idx, state, start, end = rounds[0]
        np.testing.assert_array_equal(idx, np.arange(size))
        np.testing.assert_array_equal(state, np.zeros(size, dtype=np.int64))
        np.testing.assert_array_equal(start, np.zeros(size))
        np.testing.assert_array_equal(end, np.full(size, horizon))
        # the round consumes one exponential per replication, like a sojourn
        ref = np.random.default_rng(3)
        ref.exponential(size=size)
        assert rng.bit_generator.state == ref.bit_generator.state
