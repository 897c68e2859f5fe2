"""Arrival-process models and their vectorized time-t count kernels.

Four models are covered: a constant-rate Poisson stream, a Markov-modulated
stream whose intensity at time s is rates[X(s/eps)] for an environment chain
X, a fast periodic-intensity Poisson stream, and the speed-up-plus-thinning
construction that runs a base stream on [0, t/eps], keeps each point
independently with probability eps, and rescales time.

The kernels draw many iid copies of the time-t count exactly, without
materializing paths or streams: given the environment, the modulated count
is Poisson with the time-scaled occupation integral as its mean, and a
thinned count is a binomial draw from the base count.  A gamma renewal base
count R is drawn by inverting its exact CDF, P(R >= n) = P(S_n <= horizon)
with S_n ~ gamma(n*shape, rate) its n-th point: one uniform per replication.
The per-path stream construction they stand in for is kept as the test
suite's reference, in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .errors import EnumerationTooLargeError
from .markov_env import CtmcModel, _segment_rounds, sample_occupation_integrals

__all__ = [
    "PeriodicIntensity",
    "PoissonBase",
    "RenewalGammaBase",
    "CoxBase",
    "BaseProcessSpec",
    "sample_cox_counts",
    "sample_periodic_counts",
    "sample_thinned_counts",
    "periodic_mean_count",
]

MIN_PIECE_WIDTH = 1e-3


@dataclass(frozen=True, eq=False)
class PeriodicIntensity:
    """Piecewise-constant rate on [0, 1), repeated with period one.

    ``breakpoints`` are the left endpoints of the pieces (the first must be
    0, all must be below 1); ``values`` holds one nonnegative rate per piece.
    Piece widths below 1e-3 are rejected so that double-precision phase
    arithmetic stays well inside a piece over long horizons.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.shape != bp.shape or bp.size == 0:
            raise ValueError("breakpoints and values must be equal-length 1-d sequences")
        if not (bp[0] == 0.0 and np.all(np.diff(bp) > 0) and np.all(bp < 1.0)):
            raise ValueError("breakpoints must start at 0, increase strictly, and stay below 1")
        widths = np.diff(np.append(bp, 1.0))
        if np.any(widths < MIN_PIECE_WIDTH):
            raise ValueError(f"piece widths must be at least {MIN_PIECE_WIDTH}")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("piece rates must be finite and nonnegative")
        if not np.any(vals > 0):
            raise ValueError("at least one piece rate must be positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.append(self.breakpoints, 1.0))

    @property
    def average_rate(self) -> float:
        """Rate averaged over one period."""
        return float(np.sum(self.values * self.widths))

    def cumulative(self, x: float) -> float:
        """Integral of the rate over [0, x] for 0 <= x <= 1."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        cum = np.concatenate(([0.0], np.cumsum(self.values * self.widths)))
        i = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return float(cum[i] + self.values[i] * (x - self.breakpoints[i]))


@dataclass(frozen=True)
class PoissonBase:
    """Constant-rate Poisson base stream."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")


@dataclass(frozen=True)
class RenewalGammaBase:
    """Renewal base stream with gamma(shape, rate) interarrival times.

    The long-run rate is rate/shape; it must be finite, which also bounds rate.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate and self.rate / self.shape < math.inf):
            raise ValueError("shape, rate and rate/shape must be positive and finite")

    @property
    def long_run_rate(self) -> float:
        return self.rate / self.shape


@dataclass(frozen=True, eq=False)
class CoxBase:
    """Markov-modulated base stream with intensity rates[X(s)]."""

    model: CtmcModel


BaseProcessSpec = PoissonBase | RenewalGammaBase | CoxBase


def _check_eps_t(eps: float, t: float, eps_zero: bool = False):
    """Raise ValueError unless t > 0 and eps lies in (0, 1], or [0, 1] with ``eps_zero``.

    The samplers form t/eps and need eps > 0; the expansions and
    ``ExperimentSpec`` accept eps 0, where the corrected pmf is the baseline.
    Every comparison is written so that NaN fails it.
    """
    if not (0.0 < eps <= 1.0 or (eps_zero and eps == 0.0)):
        raise ValueError(f"eps must lie in {'[' if eps_zero else '('}0, 1], got {eps}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")


def periodic_mean_count(intensity: PeriodicIntensity, eps: float, t: float) -> float:
    """Exact mean of the time-t count for the fast periodic stream."""
    _check_eps_t(eps, t)
    horizon = t / eps
    whole = math.floor(horizon)
    frac = horizon - whole
    return eps * (whole * intensity.cumulative(1.0) + intensity.cumulative(frac))


# ---------------------------------------------------------------------------
# vectorized count kernels


def sample_cox_counts(
    model: CtmcModel,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
    return_means: bool = False,
):
    """Draw ``size`` iid copies of the modulated count at time t.

    Conditional on the environment, the count is Poisson with mean equal to
    the time-scaled occupation integral of the rates, so segments are
    streamed and only that integral is accumulated per replication.  With
    ``return_means`` the per-path conditional means are returned as well.
    """
    _check_eps_t(eps, t)
    occ = sample_occupation_integrals(model, model.rates, t / eps, size, rng)
    means = eps * occ
    counts = rng.poisson(means)
    if return_means:
        return counts, means
    return counts


def sample_periodic_counts(
    intensity: PeriodicIntensity, eps: float, t: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` iid copies of the fast-periodic count at time t."""
    return rng.poisson(periodic_mean_count(intensity, eps, t), size)


MAX_RENEWAL_TABLE = 2**24


def _renewal_cdf(base: RenewalGammaBase, horizon: float) -> tuple[int, np.ndarray]:
    """(lo, q), q[i] = P(R <= lo + i - 1) = gammaincc((lo + i)*shape, rate*horizon).

    The window starts 10 sd either side of the mean count on [0, horizon] and
    doubles until at most 2**-64 lies below it (or lo = 1) and q[-1] == 1.
    A window over MAX_RENEWAL_TABLE entries, or NaN, raises EnumerationTooLargeError.
    """
    mean = horizon * base.long_run_rate
    half = 10.0 * (math.sqrt(mean / base.shape) + 1.0)
    while True:
        if not 2.0 * half <= MAX_RENEWAL_TABLE:
            raise EnumerationTooLargeError(
                f"renewal CDF table of {2 * half:.3g} entries > {MAX_RENEWAL_TABLE}"
            )
        lo = max(1, math.floor(mean - half))
        q = gammaincc(np.arange(lo, math.ceil(mean + half) + 1) * base.shape, base.rate * horizon)
        if (q[0] <= 2.0**-64 or lo == 1) and q[-1] == 1.0:
            return lo, np.maximum.accumulate(q)  # like _jump_cdf's cap: no rounding dips
        half *= 2.0


def _renewal_counts(
    base: RenewalGammaBase, horizon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` base counts on [0, horizon] by inverting their exact CDF."""
    lo, q = _renewal_cdf(base, horizon)
    return (lo - 1) + np.searchsorted(q, rng.random(size), side="right")


def sample_thinned_counts(
    base: BaseProcessSpec,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
    return_base_counts: bool = False,
):
    """Draw ``size`` iid copies of the thinned, sped-up count at time t.

    The base count on [0, t/eps] is drawn first (a renewal count R by inverting
    P(R >= n) = P(S_n <= t/eps), S_n ~ gamma(n*shape, rate)); independent
    keep/drop decisions then reduce it binomially with success probability eps.
    """
    _check_eps_t(eps, t)
    horizon = t / eps
    if isinstance(base, PoissonBase):
        base_counts = rng.poisson(base.rate * horizon, size)
    elif isinstance(base, RenewalGammaBase):
        base_counts = _renewal_counts(base, horizon, size, rng)
    elif isinstance(base, CoxBase):
        occ = sample_occupation_integrals(
            base.model, base.model.rates, horizon, size, rng
        )
        base_counts = rng.poisson(occ)
    else:
        raise TypeError(f"unsupported base process {base!r}")
    thinned = rng.binomial(base_counts, eps)
    if return_base_counts:
        return thinned, base_counts
    return thinned


# An alias of _segment_rounds, kept because bench/tracer.py patches queue_sim.cox_segments.
def cox_segments(model: CtmcModel, horizon: float, size: int, rng: np.random.Generator):
    """Stream (replication, state, start, end) sojourn segments; see queue kernels."""
    return _segment_rounds(model, horizon, size, rng)
