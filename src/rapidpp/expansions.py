"""Closed-form baselines, first-order corrected pmfs, and total-variation limits.

Everything here is deterministic: Poisson baselines, the first-order
correction of the count distribution for a rapidly modulated arrival stream,
the analogous correction for the infinite-server queue occupancy, the
periodic-intensity correction, and the limiting path total-variation
distance between the modulated stream and its constant-rate approximation
(exact, as the distance between two product-Poisson laws, or Monte Carlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc, gammainc, gammaincc, gammaln, pdtr, pdtrc, pdtrik, xlogy

from .arrivals import PeriodicIntensity, _check_eps_t, _finite_horizon, _poisson
from .errors import ArgumentError, EnumerationTooLargeError, SingularSystemError
from .markov_env import CtmcModel, analyze

__all__ = [
    "PmfVector",
    "ExponentialService",
    "ErlangService",
    "UniformService",
    "ServiceModel",
    "default_kmax",
    "poisson_pmf",
    "corrected_count_pmf",
    "periodic_correction_integral",
    "corrected_count_pmf_periodic",
    "mean_q0",
    "eta_squared",
    "corrected_queue_pmf",
    "tv_limit_exact",
    "tv_limit_mc",
]

TAIL_MASS = 1e-12
# An explicit kmax sizes every pmf column and count histogram; above this the
# arrays alone would take gigabytes.  default_kmax keeps below it too.
MAX_KMAX = 2**20


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


def _check_kmax(kmax: int):
    if not 0 <= kmax <= MAX_KMAX:
        raise ArgumentError(f"kmax must lie in [0, {MAX_KMAX}]", "kmax")


def default_kmax(mean: float) -> int:
    """Smallest K whose Poisson(mean) CDF is at least 1 - 1e-12, at most MAX_KMAX."""
    kmax = _poisson_ppf(1.0 - TAIL_MASS, mean)
    if kmax > MAX_KMAX:
        raise EnumerationTooLargeError(f"default kmax {kmax} > {MAX_KMAX} at mean {mean:.3g}")
    return kmax


def _poisson_ppf(q: float, mean: float) -> int:
    """Smallest K with P(Poisson(mean) <= K) >= q, for 0 < q < 1 and mean >= 0.

    This is scipy's own ``poisson._ppf`` (an inverse from ``pdtrik``, then
    one ``pdtr`` step back), so it gives the bits of ``stats.poisson.ppf``
    without importing ``scipy.stats``.  ``pdtrik`` returns NaN from mean
    1e12 up; that raises EnumerationTooLargeError.
    """
    if not (0.0 < q < 1.0 and mean >= 0.0):
        raise ValueError("the Poisson quantile needs 0 < q < 1 and a nonnegative mean")
    inverse = pdtrik(q, mean)
    if math.isnan(inverse):
        raise EnumerationTooLargeError(f"the Poisson quantile at mean {mean:.3g} is not computable")
    above = math.ceil(inverse)
    below = max(above - 1, 0)
    return below if pdtr(below, mean) >= q else above


def _poisson_logpmf(n: int, mean: float) -> np.ndarray:
    """log P(Poisson(mean) = k) for k = 0..n-1, as ``stats.poisson.logpmf`` forms it."""
    k = np.arange(n)
    return xlogy(k, mean) - gammaln(k + 1) - mean


def poisson_pmf(mean: float, kmax: int | None = None) -> PmfVector:
    """Poisson pmf over 0..kmax by stable upward recurrence."""
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if kmax is None:
        kmax = default_kmax(mean)
    _check_kmax(kmax)
    if mean == math.inf:  # no mass on a finite count; the recurrence would form 0 * inf
        return PmfVector(np.zeros(kmax + 1), kmax, 1.0)
    probs = np.empty(kmax + 1)
    probs[0] = math.exp(-mean)
    for k in range(1, kmax + 1):
        probs[k] = probs[k - 1] * mean / k
    return PmfVector(probs, kmax, max(0.0, 1.0 - float(probs.sum())))


# ---------------------------------------------------------------------------
# first-order corrected pmfs


def _baseline(mean: float, eps: float, t: float, kmax: int | None, degenerate: str) -> PmfVector:
    """Poisson(mean) pmf; a mean that is not positive raises SingularSystemError before eps/t."""
    if not mean > 0:
        raise SingularSystemError(degenerate)
    _check_eps_t(eps, t, eps_zero=True)
    return poisson_pmf(mean, kmax)


def _first_order_pmf(base: PmfVector, eps: float, shift: float, excess: float) -> PmfVector:
    """p + eps (shift (p1 - p) + 1/2 excess (p2 - 2 p1 + p)): the one first-order kernel.

    p is ``base.probs``, and p1, p2 are p shifted right by one and two counts with zeros
    in front.  For the Poisson weight h(m) = e^-m m^k / k!, h' = h(k-1) - h(k), so the two
    backward differences are h' and h'' at the baseline mean, and no k/m or m^2 is formed.
    Callers build ``base`` with _baseline before their pair, so the pair's checks come
    last.  An entry that leaves double range raises SingularSystemError: an infinite
    shift or excess meeting a zero difference (inf * 0, as at an infinite mean), or a
    finite shift and excess whose terms sum past the largest double.
    """
    p = base.probs
    p1 = np.concatenate(([0.0], p[:-1]))
    p2 = np.concatenate(([0.0], p1[:-1]))
    with np.errstate(invalid="ignore", over="ignore"):
        probs = p + eps * (shift * (p1 - p) + 0.5 * excess * (p2 - 2.0 * p1 + p))
    if not np.all(np.isfinite(probs)):
        raise SingularSystemError("the first-order pmf leaves double range")
    return PmfVector(probs, base.kmax, base.truncation_mass)


def corrected_count_pmf(
    lambda_star: float,
    g_x0: float,
    sigma2: float,
    eps: float,
    t: float,
    kmax: int | None = None,
) -> PmfVector:
    """First-order corrected pmf of the Markov-modulated arrival count at time t.

    probs[k] = P0(k) + eps * [g_x0 D1(k) + 1/2 sigma2 t D2(k)],
    P0 the Poisson(lambda_star t) pmf, D1(k) = P0(k-1) - P0(k) and
    D2(k) = P0(k-2) - 2 P0(k-1) + P0(k) its backward differences (P0 = 0 below
    count 0), g_x0 the accumulated-deviation value g at the initial environment
    state and sigma2 the time-average variance constant: the occupancy's pmf at S = 1.
    """
    mean = lambda_star * t
    base = _baseline(mean, eps, t, kmax, "lambda_star * t must be positive")
    return _first_order_pmf(base, eps, g_x0, sigma2 * t)


# ---------------------------------------------------------------------------
# periodic case


def periodic_correction_integral(intensity: PeriodicIntensity, eps: float, t: float) -> float:
    """Integral of (rate - average rate) over the final fractional period.

    The trajectory covers t/eps periods; whole periods integrate to zero, so
    only the fractional remainder contributes.
    """
    horizon = _finite_horizon(eps, t)
    frac = horizon - math.floor(horizon)
    return intensity.cumulative(frac) - intensity.average_rate * frac


def corrected_count_pmf_periodic(
    intensity: PeriodicIntensity, eps: float, t: float, kmax: int | None = None
) -> PmfVector:
    """First-order corrected count pmf for a fast periodic intensity.

    probs[k] = P0(k) + eps * c (P0(k-1) - P0(k)),  P0 the Poisson(average rate * t)
    pmf (0 below count 0), with c the :func:`periodic_correction_integral`.  At
    eps 0 the correction term is 0 and the pmf is the Poisson baseline.
    """
    mean = intensity.average_rate * t
    base = _baseline(mean, eps, t, kmax, "average rate times t must be positive")
    shift = periodic_correction_integral(intensity, eps, t) if eps > 0 else 0.0
    return _first_order_pmf(base, eps, shift, 0.0)


# ---------------------------------------------------------------------------
# service-time models


# Every service's survival_integral(t) takes a scalar or an array of t and
# works elementwise; it is 0 for t <= 0.  Its survival_pieces() gives the
# survival function as pieces (lo, hi, alpha, T, c): S(s) = alpha exp(T (s - lo)) c
# on [lo, hi), in increasing order, covering [0, inf); a piece with no phases is
# S = 0.  Its ``phases`` is the largest T's size, known before any piece is built.


# Up to this shape the Erlang survival integral is a sum over the shape's
# Poisson weights; above it, two incomplete gamma functions cost less.
MAX_ERLANG_SUM_SHAPE = 32
# The integral of S^2 sums 2 shape - 1 terms; at this shape eta_squared takes
# about 0.5 s and 80 MiB above the interpreter's own (2 vCPU).
MAX_ERLANG_SHAPE = 2**20


@dataclass(frozen=True)
class ErlangService:
    """Erlang service times: sum of ``shape`` iid exponentials of the given rate."""

    shape: int
    rate: float

    def __post_init__(self):
        # compared before int(): a NaN or an inf fails the range, and no huge int meets a float
        if not (1 <= self.shape <= MAX_ERLANG_SHAPE and self.shape == int(self.shape)):
            raise ValueError(f"shape must be an integer in [1, {MAX_ERLANG_SHAPE}]")
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        object.__setattr__(self, "shape", int(self.shape))

    @property
    def phases(self) -> int:
        return self.shape

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # a rate x past the largest double is inf: S = 0
            y = self.rate * x
        return np.where(x >= 0, gammaincc(self.shape, y), 1.0)

    def survival_integral(self, t):
        """Integral of survival over [0, t]: E[min(N, shape)] / rate, N ~ Poisson(rate t).

        survival(s) = P(N_s < shape) with N_s ~ Poisson(rate s), so the
        integral is sum_{j=1..shape} P(N >= j) / rate; let y = rate t.  Up to
        MAX_ERLANG_SUM_SHAPE that sum is shape (1 - e^-y) minus
        sum_{0<i<shape} (shape - i) w_i, Poisson weights w_i = e^-y y^i / i!
        built as w_{i-1} y / i so that no y^i overflows; it loses about
        log2(shape) bits to cancellation at small y.  Above it the mean is
        y P(N < shape) + shape P(N > shape), two positive terms.  y is capped
        at the largest double, so an overflowing rate t gives shape / rate.
        """
        k, t = self.shape, np.maximum(t, 0.0)
        with np.errstate(over="ignore"):  # a rate t past the largest double is inf
            y = np.minimum(self.rate * t, np.finfo(float).max)
        if k > MAX_ERLANG_SUM_SHAPE:
            return (y * pdtr(k - 1, y) + k * pdtrc(k, y)) / self.rate
        w = np.exp(-y)
        mean = k * -np.expm1(-y)
        for i in range(1, k):
            w = w * y / i
            mean = mean - (k - i) * w
        return mean / self.rate

    def survival_square_integral(self, t: float) -> float:
        """Integral of survival^2 over [0, t], in O(shape).

        survival(s)^2 = e^{-2 rate s} sum_{i,j<shape} (rate s)^{i+j} / (i! j!).  Grouped
        by n = i + j, the terms are c_n (2 rate s)^n / n! with c_n = P(Binomial(n, 1/2)
        in [n-shape+1, shape-1]), and each integrates to P(n+1, 2 rate t) / (2 rate),
        P the regularized lower incomplete gamma.  By symmetry c_n = P(B <= m) - P(B > m),
        m = min(shape-1, n), which keeps both bdtr arguments in [0, n].
        """
        if t <= 0:
            return 0.0
        n = np.arange(2 * self.shape - 1)
        m = np.minimum(self.shape - 1, n)
        c = bdtr(m, n, 0.5) - bdtrc(m, n, 0.5)
        return float(np.sum(c * gammainc(n + 1, 2.0 * self.rate * t)) / (2.0 * self.rate))

    def survival_pieces(self):
        """One piece: the chance that ``shape`` phases of the given rate are not all done."""
        k = self.shape
        phases = self.rate * (np.eye(k, k, 1) - np.eye(k))
        return [(0.0, math.inf, np.eye(1, k)[0], phases, np.ones(k))]


class ExponentialService(ErlangService):
    """Exponential service times with the given rate: ``ErlangService(1, rate)``, whose
    survival quantities at shape one are the exponential's closed forms."""

    def __init__(self, rate: float):
        super().__init__(1, rate)


@dataclass(frozen=True)
class UniformService:
    """Service times uniform on [a, b] with 0 <= a < b < inf."""

    a: float
    b: float
    phases = 2

    def __post_init__(self):
        if not 0 <= self.a < self.b < math.inf:
            raise ValueError("need 0 <= a < b < inf")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # only where x lies outside [a, b]
            mid = (self.b - x) / (self.b - self.a)
        return np.clip(np.where(x < self.a, 1.0, np.where(x > self.b, 0.0, mid)), 0.0, 1.0)

    # Past a, the integrals of survival and survival^2 are a + (b - a) (1 - r^p) / p,
    # p = 2 and 3, with r = 1 - u and u the passed share of [a, b].  They are
    # evaluated as a + (tt - a) * (1 - (1 - u)^p) / (p u), free of cancellation.

    def survival_integral(self, t):
        t = np.asarray(t, dtype=float)
        tt = np.clip(t, self.a, self.b)
        u = (tt - self.a) / (self.b - self.a)
        past_a = self.a + (tt - self.a) * (1.0 - u / 2.0)
        return np.where(t <= self.a, np.maximum(t, 0.0), past_a)

    def survival_square_integral(self, t: float) -> float:
        if t <= 0:
            return 0.0
        if t <= self.a:
            return float(t)
        tt = min(t, self.b)
        u = (tt - self.a) / (self.b - self.a)
        return float(self.a + (tt - self.a) * (1.0 - u + u * u / 3.0))

    def survival_pieces(self):
        """1 on [0, a]; then 1 - (s - a)/(b - a) on [a, b], as (1, 0) exp(T w) (1, -1/(b - a))
        with T nilpotent: exp(T w) = [[1, w], [0, 1]]; then 0 past b."""
        slope = np.array([1.0, -1.0 / (self.b - self.a)])
        return [
            (0.0, self.a, np.ones(1), np.zeros((1, 1)), np.ones(1)),
            (self.a, self.b, np.eye(1, 2)[0], np.eye(2, 2, 1), slope),
            (self.b, math.inf, np.ones(0), np.zeros((0, 0)), np.ones(0)),
        ]


ServiceModel = ErlangService | UniformService


# ---------------------------------------------------------------------------
# infinite-server queue expansion


def mean_q0(lambda_star: float, service: ServiceModel, t: float) -> float:
    """Mean occupancy of the constant-rate infinite-server system at time t."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if not lambda_star >= 0:
        raise ValueError("lambda_star must be nonnegative")
    return lambda_star * float(service.survival_integral(t))


def eta_squared(sigma2: float, service: ServiceModel, t: float) -> float:
    """Queue-side variance constant eta^2 = sigma2 * integral_0^t S(s)^2 ds.

    The first-order occupancy term defines it as
    2 sigma2 * integral_0^t S(s) g(s) s ds + sigma2 * t * S(t)^2, with S the
    service survival function and g = -S' its pdf.  Since 2 S g = -(S^2)',
    integration by parts turns the integral into
    integral_0^t S(s)^2 ds - t * S(t)^2, whose boundary term cancels the
    second summand.  Each service evaluates integral_0^t S^2 in closed form.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if math.isnan(sigma2):  # analyze's sum of an inf and a -inf term
        raise SingularSystemError("sigma2 is not a number")
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative")
    return sigma2 * service.survival_square_integral(t)


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

    probs[k] = P0(k) + eps * [g_x0 survival(t) D1(k) + 1/2 eta^2 D2(k)],
    P0 the Poisson(mean_q0) pmf and D1, D2 its backward differences as in
    :func:`corrected_count_pmf`.
    """
    mean = mean_q0(lambda_star, service, t)
    base = _baseline(mean, eps, t, kmax, "mean occupancy is zero (t = 0 or lambda_star = 0)")
    shift = g_x0 * float(service.survival(t))
    return _first_order_pmf(base, eps, shift, eta_squared(sigma2, service, t))


# ---------------------------------------------------------------------------
# limiting total-variation distance


MAX_TV_TERMS = 30_000_000


def _ratio_axes(model: CtmcModel, t: float) -> tuple[float, list[tuple[float, float]]]:
    """Poisson colouring of the factors of the product of rate ratios.

    The ratio of state i is rates[i] / lambda_star.  Returns log_stay, the log
    chance that no factor has ratio zero, and a (log r_v, mass_v) pair for
    each distinct ratio r_v other than 0 and 1, in ``np.unique`` order:
    factors of ratio r_v come as independent Poisson(mass_v) counts,
    mass_v = lambda_star t pi_v.  A constant rate, or t = 0, gives (0.0, []).  A
    ratio past the largest double (a subnormal lambda_star) raises SingularSystemError.
    """
    if not t >= 0:
        raise ArgumentError(f"must be nonnegative, got {t}", "t")
    analysis = analyze(model)
    f = model.rates
    if t == 0.0 or np.all(f == f[0]):  # every ratio is exactly one
        return 0.0, []
    with np.errstate(over="ignore"):
        ratios = f / analysis.lambda_star
    if not np.all(np.isfinite(ratios)):
        raise SingularSystemError(
            f"rate ratios to lambda_star = {analysis.lambda_star:.3g} leave double range"
        )
    zero = ratios == 0.0
    mu = analysis.lambda_star * t
    log_stay = -mu * float(analysis.pi[zero].sum())
    values, groups = np.unique(np.log(ratios[~zero]), return_inverse=True)
    masses = mu * np.bincount(groups, weights=analysis.pi[~zero])
    return log_stay, [(v, m) for v, m in zip(values, masses) if v != 0.0]


def _check_truncation_mass(truncation_mass: float):
    if not 0.0 < truncation_mass < 1.0:
        raise ArgumentError("truncation_mass must lie in (0, 1)", "truncation_mass")


def tv_limit_exact(model: CtmcModel, t: float, truncation_mass: float = 1e-10) -> float:
    """Limiting path total-variation distance to the constant-rate approximation.

    Equals half the expected absolute deviation from one of the product of
    iid stationary rate ratios over a Poisson(mu) number of factors,
    mu = lambda_star t.  The product depends only on how many factors carry
    each distinct ratio r_v, and by Poisson colouring those counts are
    independent: Poisson(mu pi_v) under the approximation and
    Poisson(mu pi_v r_v) under the modulated stream.  The limit is the
    distance between these two product laws; a zero ratio enters as the
    approximation's chance e^(-mu pi_0) of none, and a ratio of one drops out.

    Each other ratio is an axis of counts up to the Poisson quantile 1 - tail
    of its larger mean, tail = truncation_mass / (2 axes) floored at 2**-52
    (below it the quantile is infinite).  The axes form a grid, shortest
    first; before each is added, the lightest points are dropped while they
    carry at most tail under each law.  Truncation and dropping lower the
    result by at most 2 axes tail, which is truncation_mass above the floor.
    A grid that would exceed MAX_TV_TERMS points raises
    EnumerationTooLargeError.
    """
    _check_truncation_mass(truncation_mass)
    log_stay, axes = _ratio_axes(model, t)
    means = [(m, m * math.exp(v)) for v, m in axes]
    tail = max(truncation_mass / (2 * max(len(means), 1)), 2.0**-52)
    lengths = [_poisson_ppf(1.0 - tail, max(m)) + 1 for m in means]
    log_p, log_q = np.array([log_stay]), np.array([0.0])
    for n, (approx, modulated) in sorted(zip(lengths, means)):
        order = np.argsort(np.maximum(log_p, log_q))
        light = min(
            np.searchsorted(np.exp(log_p[order]).cumsum(), tail, side="right"),
            np.searchsorted(np.exp(log_q[order]).cumsum(), tail, side="right"),
        )
        log_p, log_q = log_p[order[light:]], log_q[order[light:]]
        if log_p.size * n > MAX_TV_TERMS:
            raise EnumerationTooLargeError(f"the product grid exceeds {MAX_TV_TERMS} points")
        log_p = np.add.outer(log_p, _poisson_logpmf(n, approx)).ravel()
        log_q = np.add.outer(log_q, _poisson_logpmf(n, modulated)).ravel()
    hi, lo = np.maximum(log_p, log_q), np.minimum(log_p, log_q)
    total = -math.expm1(log_stay) + math.fsum(np.exp(hi) * -np.expm1(lo - hi))
    return min(1.0, 0.5 * total)  # pmf rounding at large means can pass 1


# tv_limit_mc holds about 24 bytes per replication at once, about 400 MiB at this cap.
MAX_TV_REPS = 2**24


def _products(model: CtmcModel, t: float, reps: int, rng: np.random.Generator) -> np.ndarray:
    """``reps`` iid draws of the product of rate ratios.

    Each axis draws a Poisson(mass_v) count per replication, in turn; then a uniform per
    replication zeroes the product with probability 1 - e^log_stay.
    """
    log_stay, axes = _ratio_axes(model, t)
    log_prod = np.zeros(reps)
    for v, m in axes:
        log_prod += v * _poisson(rng, m, reps)
    return np.where(rng.random(reps) < -math.expm1(log_stay), 0.0, np.exp(log_prod))


def tv_limit_mc(
    model: CtmcModel, t: float, reps: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of :func:`tv_limit_exact` with its standard error.

    Each replication draws the coloured factor counts of :func:`_ratio_axes` and forms the
    product P of rate ratios.  As E[P] = 1, the limit 1/2 E|P - 1| is E[(1 - P)+], a mean of
    values in [0, 1] that, unlike a mean of |P - 1|, does not rest on rare huge products.
    Over MAX_TV_REPS reps raises EnumerationTooLargeError before any draw.
    """
    if reps < 100:
        raise ArgumentError("the Monte Carlo estimate needs at least 100 reps", "reps")
    if reps > MAX_TV_REPS:
        raise EnumerationTooLargeError(f"{reps} Monte Carlo reps > {MAX_TV_REPS}")
    vals = np.maximum(1.0 - _products(model, t, reps, rng), 0.0)
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(reps)
