"""Closed-form baselines, first-order corrected pmfs, and total-variation limits.

Everything here is deterministic: Poisson baselines, the first-order
correction of the count distribution for a rapidly modulated arrival stream,
the analogous correction for the infinite-server queue occupancy, the
periodic-intensity correction, and the limiting path total-variation
distance between the modulated stream and its constant-rate approximation
(exact by enumeration, or Monte Carlo).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc, gammaln

from .arrivals import PeriodicIntensity
from .errors import DegenerateMeanError, EnumerationTooLargeError, QuadratureError
from .markov_env import CtmcModel, StationaryAnalysis, analyze

__all__ = [
    "PmfVector",
    "ExpansionInputs",
    "ExponentialService",
    "ErlangService",
    "UniformService",
    "ServiceModel",
    "default_kmax",
    "poisson_pmf",
    "hk_derivatives",
    "corrected_count_pmf",
    "periodic_correction_integral",
    "corrected_count_pmf_periodic",
    "mean_q0",
    "eta_squared",
    "eta_squared_exponential",
    "corrected_queue_pmf",
    "tv_limit_exact",
    "tv_limit_mc",
]

TAIL_MASS = 1e-12
QUAD_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# pmf container


@dataclass(frozen=True, eq=False)
class PmfVector:
    """Probability mass over counts 0..kmax with truncation metadata.

    Corrected pmfs are asymptotic objects and may carry small negative
    entries at extreme counts; they are reported as-is and flagged via
    :attr:`negative_indices` rather than clamped, so the normalization
    identities remain exactly testable.
    """

    probs: np.ndarray
    kmax: int
    truncation_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.kmax + 1,):
            raise ValueError("probs must have length kmax + 1")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        object.__setattr__(self, "probs", probs)

    @property
    def negative_indices(self) -> list[int]:
        return np.flatnonzero(self.probs < 0.0).tolist()


def default_kmax(mean: float) -> int:
    """Smallest K whose Poisson(mean) CDF is at least 1 - 1e-12."""
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if mean == 0:
        return 0
    return int(stats.poisson.ppf(1.0 - TAIL_MASS, mean))


def poisson_pmf(mean: float, kmax: int | None = None) -> PmfVector:
    """Poisson pmf over 0..kmax by stable upward recurrence."""
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if kmax is None:
        kmax = default_kmax(mean)
    probs = np.empty(kmax + 1)
    probs[0] = math.exp(-mean)
    for k in range(1, kmax + 1):
        probs[k] = probs[k - 1] * mean / k
    return PmfVector(probs, kmax, max(0.0, 1.0 - float(probs.sum())))


# ---------------------------------------------------------------------------
# Poisson weight function and derivatives


def hk_derivatives(k: int, y: float) -> tuple[float, float, float, float]:
    """The Poisson weight h(y) = e^-y y^k / k! and its first three y-derivatives.

    Uses the closed forms
    h' = h (k/y - 1),
    h'' = h (1 - 2k/y + k(k-1)/y^2),
    h''' = h (k(k-1)(k-2)/y^3 - 3k(k-1)/y^2 + 3k/y - 1).
    """
    if y <= 0:
        raise ValueError("y must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = math.exp(k * math.log(y) - y - gammaln(k + 1))
    h1 = h * (k / y - 1.0)
    h2 = h * (1.0 - 2.0 * k / y + k * (k - 1.0) / y**2)
    h3 = h * (
        k * (k - 1.0) * (k - 2.0) / y**3 - 3.0 * k * (k - 1.0) / y**2 + 3.0 * k / y - 1.0
    )
    return h, h1, h2, h3


# ---------------------------------------------------------------------------
# corrected count pmf (Markov-modulated case)


@dataclass(frozen=True)
class ExpansionInputs:
    """Ingredients of the first-order count correction.

    ``g_x0`` is the accumulated-deviation value g at the initial environment
    state; ``sigma2`` the time-average variance constant.
    """

    lambda_star: float
    g_x0: float
    sigma2: float
    t: float
    eps: float

    @classmethod
    def from_model(cls, model: CtmcModel, eps: float, t: float) -> "ExpansionInputs":
        analysis = analyze(model)
        g_x0 = float(analysis.g[model.initial_state])
        return cls(analysis.lambda_star, g_x0, analysis.sigma2, t, eps)


def _check_eps(eps: float):
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")


def corrected_count_pmf(inputs: ExpansionInputs, kmax: int | None = None) -> PmfVector:
    """First-order corrected pmf of the arrival count at time t.

    probs[k] = P0(k) * (1 + eps * [(k/(mu) - 1) g_x0
               + 1/2 (1 - 2k/mu + k(k-1)/mu^2) sigma2 t]),  mu = lambda_star t.
    """
    _check_eps(inputs.eps)
    mu = inputs.lambda_star * inputs.t
    if mu <= 0:
        raise DegenerateMeanError("lambda_star * t must be positive")
    base = poisson_pmf(mu, kmax)
    k = np.arange(base.kmax + 1, dtype=float)
    weight = (k / mu - 1.0) * inputs.g_x0 + 0.5 * (
        1.0 - 2.0 * k / mu + k * (k - 1.0) / mu**2
    ) * inputs.sigma2 * inputs.t
    probs = base.probs * (1.0 + inputs.eps * weight)
    return PmfVector(probs, base.kmax, base.truncation_mass)


# ---------------------------------------------------------------------------
# periodic case


def periodic_correction_integral(intensity: PeriodicIntensity, eps: float, t: float) -> float:
    """Integral of (rate - average rate) over the final fractional period.

    The trajectory covers t/eps periods; whole periods integrate to zero, so
    only the fractional remainder contributes.
    """
    if eps <= 0 or t <= 0:
        raise ValueError("eps and t must be positive")
    horizon = t / eps
    frac = horizon - math.floor(horizon)
    return intensity.cumulative(frac) - intensity.average_rate * frac


def corrected_count_pmf_periodic(
    intensity: PeriodicIntensity, eps: float, t: float, kmax: int | None = None
) -> PmfVector:
    """First-order corrected count pmf for a fast periodic intensity.

    At eps 0 the correction term is 0 and the pmf is the Poisson baseline.
    """
    _check_eps(eps)
    mu = intensity.average_rate * t
    if mu <= 0:
        raise DegenerateMeanError("average rate times t must be positive")
    base = poisson_pmf(mu, kmax)
    correction = periodic_correction_integral(intensity, eps, t) if eps > 0 else 0.0
    k = np.arange(base.kmax + 1, dtype=float)
    probs = base.probs * (1.0 + eps * (k / mu - 1.0) * correction)
    return PmfVector(probs, base.kmax, base.truncation_mass)


# ---------------------------------------------------------------------------
# service-time models


@dataclass(frozen=True)
class ExponentialService:
    """Exponential service times with the given rate."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def breakpoints(self) -> tuple:
        return ()

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.exp(-self.rate * x), 1.0)

    def survival_integral(self, t: float) -> float:
        if t <= 0:
            return 0.0
        return float(-np.expm1(-self.rate * t) / self.rate)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return -np.log1p(-rng.random(size)) / self.rate


@dataclass(frozen=True)
class ErlangService:
    """Erlang service times: sum of ``shape`` iid exponentials of the given rate."""

    shape: int
    rate: float

    def __post_init__(self):
        if self.shape < 1 or self.shape != int(self.shape):
            raise ValueError("shape must be a positive integer")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        object.__setattr__(self, "shape", int(self.shape))

    @property
    def breakpoints(self) -> tuple:
        return ()

    def density(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        xs = np.where(pos, x, 1.0)
        log_pdf = (
            self.shape * np.log(self.rate)
            + (self.shape - 1) * np.log(xs)
            - self.rate * xs
            - gammaln(self.shape)
        )
        return np.where(pos, np.exp(log_pdf), 0.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, gammaincc(self.shape, self.rate * x), 1.0)

    def survival_integral(self, t: float) -> float:
        if t <= 0:
            return 0.0
        js = np.arange(1, self.shape + 1)
        return float(np.sum(gammainc(js, self.rate * t)) / self.rate)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((size, self.shape))
        return -np.log1p(-u).sum(axis=1) / self.rate


@dataclass(frozen=True)
class UniformService:
    """Service times uniform on [a, b] with 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b <= self.a:
            raise ValueError("need 0 <= a < b")

    @property
    def breakpoints(self) -> tuple:
        return (self.a, self.b)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        mid = (self.b - x) / (self.b - self.a)
        return np.clip(np.where(x < self.a, 1.0, np.where(x > self.b, 0.0, mid)), 0.0, 1.0)

    def survival_integral(self, t: float) -> float:
        if t <= 0:
            return 0.0
        if t <= self.a:
            return float(t)
        tt = min(t, self.b)
        return float(self.a + ((self.b - self.a) ** 2 - (self.b - tt) ** 2) / (2 * (self.b - self.a)))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.a + (self.b - self.a) * rng.random(size)


ServiceModel = ExponentialService | ErlangService | UniformService


# ---------------------------------------------------------------------------
# infinite-server queue expansion


def mean_q0(lambda_star: float, service: ServiceModel, t: float) -> float:
    """Mean occupancy of the constant-rate infinite-server system at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if lambda_star < 0:
        raise ValueError("lambda_star must be nonnegative")
    return lambda_star * service.survival_integral(t)


def _quad_piecewise(fn, points: list[float], abs_tol: float) -> float:
    """Absolute-tolerance quadrature over consecutive intervals in ``points``."""
    total = 0.0
    err_total = 0.0
    budget = abs_tol / max(1, len(points) - 1)
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            try:
                val, err = integrate.quad(fn, a, b, epsabs=budget, epsrel=0.0, limit=500)
            except integrate.IntegrationWarning as exc:
                raise QuadratureError(f"quadrature on [{a}, {b}] failed: {exc}") from exc
        total += val
        err_total += err
    if err_total > abs_tol:
        raise QuadratureError(
            f"estimated quadrature error {err_total:.2e} exceeds tolerance {abs_tol:.2e}"
        )
    return total


def eta_squared(
    sigma2: float, service: ServiceModel, t: float, abs_tol: float = QUAD_ABS_TOL
) -> float:
    """Queue-side variance constant.

    eta^2 = 2 sigma2 * integral_0^t survival(s) density(s) s ds
            + sigma2 * t * survival(t)^2.
    The integral is evaluated by adaptive quadrature split at density
    breakpoints; for exponential services
    :func:`eta_squared_exponential` provides an independent closed form.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if sigma2 == 0.0:
        return 0.0
    points = sorted({0.0, t, *(p for p in service.breakpoints if 0.0 < p < t)})

    def integrand(s):
        return float(service.survival(s) * service.density(s) * s)

    integral = _quad_piecewise(integrand, points, abs_tol)
    tail = float(service.survival(t)) ** 2 * t
    return 2.0 * sigma2 * integral + sigma2 * tail


def eta_squared_exponential(sigma2: float, rate: float, t: float) -> float:
    """Closed form of :func:`eta_squared` for exponential services."""
    return sigma2 * -np.expm1(-2.0 * rate * t) / (2.0 * rate)


def corrected_queue_pmf(
    lambda_star: float,
    g_x0: float,
    sigma2: float,
    service: ServiceModel,
    eps: float,
    t: float,
    kmax: int | None = None,
) -> PmfVector:
    """First-order corrected pmf of the infinite-server occupancy at time t.

    probs[k] = P0(k) * (1 + eps * [(k/m - 1) g_x0 survival(t)
               + 1/2 (1 - 2k/m + k(k-1)/m^2) eta^2]),  m = mean_q0.
    """
    _check_eps(eps)
    m = mean_q0(lambda_star, service, t)
    if m <= 0:
        raise DegenerateMeanError("mean occupancy is zero (t = 0 or lambda_star = 0)")
    base = poisson_pmf(m, kmax)
    eta2 = eta_squared(sigma2, service, t)
    kbar_t = float(service.survival(t))
    k = np.arange(base.kmax + 1, dtype=float)
    weight = (k / m - 1.0) * g_x0 * kbar_t + 0.5 * (
        1.0 - 2.0 * k / m + k * (k - 1.0) / m**2
    ) * eta2
    probs = base.probs * (1.0 + eps * weight)
    return PmfVector(probs, base.kmax, base.truncation_mass)


# ---------------------------------------------------------------------------
# limiting total-variation distance


MAX_TV_STATES = 6
MAX_TV_KMAX = 80
MAX_TV_TERMS = 30_000_000


def _rate_ratios(model: CtmcModel, analysis: StationaryAnalysis) -> np.ndarray:
    f = model.rates
    if np.all(f == f[0]):
        # mathematically the ratio is exactly one; avoid rounding noise
        return np.ones(model.n)
    return f / analysis.lambda_star


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        first_col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([first_col, rest]))
    return np.vstack(blocks)


def tv_limit_exact(model: CtmcModel, t: float, truncation_mass: float = 1e-10) -> float:
    """Limiting path total-variation distance to the constant-rate approximation.

    Equals half the expected absolute deviation from one of the product of
    iid stationary rate ratios taken over a Poisson(lambda_star t) number of
    factors.  Evaluated by exact enumeration over state-count compositions
    with multinomial log-weights; the Poisson tail beyond the truncation is
    at most ``truncation_mass``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    analysis = analyze(model)
    ratios = _rate_ratios(model, analysis)
    if np.all(ratios == 1.0) or t == 0.0:
        return 0.0
    mu = analysis.lambda_star * t
    kmax = int(stats.poisson.ppf(1.0 - truncation_mass, mu))
    n_states = model.n
    if n_states > MAX_TV_STATES or kmax > MAX_TV_KMAX:
        raise EnumerationTooLargeError(
            f"enumeration supports up to {MAX_TV_STATES} states and Poisson "
            f"truncation {MAX_TV_KMAX}; got {n_states} states, truncation {kmax}"
        )
    if math.comb(kmax + n_states, n_states) > MAX_TV_TERMS:
        raise EnumerationTooLargeError(
            "composition count exceeds the supported enumeration budget"
        )
    log_pi = np.log(analysis.pi)
    zero = ratios == 0.0
    log_r = np.where(zero, 0.0, np.log(np.where(zero, 1.0, ratios)))
    pois = poisson_pmf(mu, kmax).probs
    total = 0.0
    for n in range(kmax + 1):
        comps = _compositions(n, n_states)
        logw = gammaln(n + 1) - gammaln(comps + 1).sum(axis=1) + comps @ log_pi
        log_prod = comps @ log_r
        hits_zero = (comps[:, zero] > 0).any(axis=1) if np.any(zero) else np.zeros(
            comps.shape[0], dtype=bool
        )
        absdev = np.where(hits_zero, 1.0, np.abs(np.expm1(log_prod)))
        total += pois[n] * float(np.exp(logw) @ absdev)
    return 0.5 * total


def tv_limit_mc(
    model: CtmcModel, t: float, reps: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of :func:`tv_limit_exact` with its standard error.

    Each replication draws a Poisson(lambda_star t) number of iid stationary
    states and forms |product of rate ratios - 1|.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    analysis = analyze(model)
    ratios = _rate_ratios(model, analysis)
    mu = analysis.lambda_star * t
    counts = rng.poisson(mu, reps)
    total = int(counts.sum())
    states = rng.choice(model.n, size=total, p=analysis.pi)
    zero = ratios == 0.0
    log_r = np.where(zero, 0.0, np.log(np.where(zero, 1.0, ratios)))
    cum_log = np.concatenate(([0.0], np.cumsum(log_r[states])))
    cum_zero = np.concatenate(([0], np.cumsum(zero[states].astype(np.int64))))
    ends = np.cumsum(counts)
    starts = ends - counts
    seg_zero = cum_zero[ends] - cum_zero[starts]
    seg_log = cum_log[ends] - cum_log[starts]
    prod = np.where(seg_zero > 0, 0.0, np.exp(seg_log))
    vals = np.abs(prod - 1.0)
    est = 0.5 * float(vals.mean())
    se = 0.5 * float(vals.std(ddof=1)) / math.sqrt(reps) if reps > 1 else 0.0
    return est, se
