"""Exact simulation of the arrival processes.

Four generators are provided: a constant-rate Poisson stream, a Markov-
modulated stream whose intensity at time s is rates[X(s/eps)] for an
environment chain X, a fast periodic-intensity Poisson stream, and the
speed-up-plus-thinning construction that runs any base stream on [0, t/eps],
keeps each point independently with probability eps, and rescales time.

Piecewise-constant intensities are simulated exactly by per-segment Poisson
counts with uniform placement; no rejection step is involved.  Alongside the
stream-level generators, vectorized count kernels draw many iid copies of
the time-t count without materializing paths or streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov_env import (
    CtmcModel,
    EnvironmentPath,
    _segment_rounds,
    sample_occupation_integrals,
    sample_path,
)

__all__ = [
    "ArrivalStream",
    "PeriodicIntensity",
    "PoissonBase",
    "RenewalGammaBase",
    "CoxBase",
    "BaseProcessSpec",
    "simulate_constant_poisson",
    "simulate_cox",
    "simulate_periodic",
    "simulate_base",
    "thin_and_speed",
    "sample_cox_counts",
    "sample_periodic_counts",
    "sample_thinned_counts",
    "periodic_mean_count",
]

MIN_PIECE_WIDTH = 1e-3


@dataclass(frozen=True, eq=False)
class ArrivalStream:
    """Strictly increasing arrival epochs on (0, horizon]."""

    horizon: float
    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size:
            if not np.all(np.diff(times) > 0):
                raise ValueError("arrival times must be strictly increasing")
            if times[0] <= 0 or times[-1] > self.horizon:
                raise ValueError("arrival times must lie in (0, horizon]")
        object.__setattr__(self, "times", times)

    @property
    def count(self) -> int:
        return self.times.size

    def count_before(self, t: float) -> int:
        """Number of arrivals in (0, t]."""
        return int(np.searchsorted(self.times, t, side="right"))


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
        if bp[0] != 0.0 or np.any(bp >= 1.0) or np.any(np.diff(bp) <= 0):
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
        if self.rate <= 0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class RenewalGammaBase:
    """Renewal base stream with gamma(shape, rate) interarrival times.

    The long-run rate is rate/shape.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    @property
    def long_run_rate(self) -> float:
        return self.rate / self.shape


@dataclass(frozen=True, eq=False)
class CoxBase:
    """Markov-modulated base stream with intensity rates[X(s)]."""

    model: CtmcModel


BaseProcessSpec = PoissonBase | RenewalGammaBase | CoxBase


def _check_eps_t(eps: float, t: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")


# ---------------------------------------------------------------------------
# stream-level generators


def simulate_constant_poisson(rate: float, t: float, rng: np.random.Generator) -> ArrivalStream:
    """Poisson stream on (0, t]: Poisson(rate t) points placed as sorted uniforms."""
    if rate <= 0 or t <= 0:
        raise ValueError("rate and t must be positive")
    n = rng.poisson(rate * t)
    return ArrivalStream(t, t * np.sort(rng.random(n)))


def simulate_cox(
    model: CtmcModel, eps: float, t: float, rng: np.random.Generator
) -> tuple[ArrivalStream, EnvironmentPath]:
    """Arrival stream with intensity rates[X(s/eps)] on (0, t].

    The environment is simulated on [0, t/eps]; each sojourn segment
    contributes a Poisson count proportional to its time-scaled length, with
    points placed uniformly inside the segment and all epochs scaled by eps.
    The path is returned for diagnostics.
    """
    _check_eps_t(eps, t)
    path = sample_path(model, t / eps, rng)
    bounds = np.concatenate(([0.0], path.jump_times, [path.horizon]))
    starts = bounds[:-1]
    lengths = np.diff(bounds)
    seg_rates = model.rates[path.states]
    counts = rng.poisson(seg_rates * eps * lengths)
    total = int(counts.sum())
    u = rng.random(total)
    pos = np.repeat(starts, counts) + u * np.repeat(lengths, counts)
    times = eps * np.sort(pos)
    return ArrivalStream(t, times), path


def periodic_mean_count(intensity: PeriodicIntensity, eps: float, t: float) -> float:
    """Exact mean of the time-t count for the fast periodic stream."""
    _check_eps_t(eps, t)
    horizon = t / eps
    whole = math.floor(horizon)
    frac = horizon - whole
    return eps * (whole * intensity.cumulative(1.0) + intensity.cumulative(frac))


def simulate_periodic(
    intensity: PeriodicIntensity, eps: float, t: float, rng: np.random.Generator
) -> ArrivalStream:
    """Poisson stream with rate intensity(s/eps) on (0, t], simulated exactly.

    Points are drawn piece by piece: each piece of the period contributes a
    Poisson count over its total (possibly fractional) exposure on [0, t/eps]
    and the points land uniformly on that exposure.
    """
    _check_eps_t(eps, t)
    horizon = t / eps
    whole = math.floor(horizon)
    frac = horizon - whole
    bp = intensity.breakpoints
    widths = intensity.widths
    positions = []
    for b, w, rate in zip(bp, widths, intensity.values):
        if rate == 0.0:
            continue
        partial = min(max(frac - b, 0.0), w)
        exposure = whole * w + partial
        if exposure <= 0.0:
            continue
        n = rng.poisson(rate * eps * exposure)
        u = exposure * rng.random(n)
        in_full = u < whole * w
        # clamp the period index so rounding can never push a point past
        # its piece boundary into a neighbouring (possibly dead) piece
        period = np.where(
            in_full, np.minimum(np.floor(u / w), max(whole - 1, 0)), float(whole)
        )
        positions.append(period + b + (u - period * w))
    if positions:
        pos = np.concatenate(positions)
    else:
        pos = np.empty(0)
    return ArrivalStream(t, eps * np.sort(pos))


def _renewal_times(base: RenewalGammaBase, horizon: float, rng: np.random.Generator) -> np.ndarray:
    expected = horizon * base.long_run_rate
    block = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    times = rng.gamma(base.shape, 1.0 / base.rate, block).cumsum()
    while times[-1] <= horizon:
        more = rng.gamma(base.shape, 1.0 / base.rate, block)
        times = np.concatenate([times, times[-1] + more.cumsum()])
    return times[times <= horizon]


def simulate_base(base: BaseProcessSpec, horizon: float, rng: np.random.Generator) -> ArrivalStream:
    """Simulate a base stream at its natural speed on (0, horizon]."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if isinstance(base, PoissonBase):
        return simulate_constant_poisson(base.rate, horizon, rng)
    if isinstance(base, RenewalGammaBase):
        return ArrivalStream(horizon, _renewal_times(base, horizon, rng))
    if isinstance(base, CoxBase):
        stream, _ = simulate_cox(base.model, 1.0, horizon, rng)
        return stream
    raise TypeError(f"unsupported base process {base!r}")


def thin_and_speed(
    base: BaseProcessSpec, eps: float, t: float, rng: np.random.Generator
) -> ArrivalStream:
    """Run the base on [0, t/eps], keep points with probability eps, rescale time.

    One uniform is consumed per base arrival, in arrival order, so a fixed
    stream reproduces the thinning decisions exactly; with eps = 1 the output
    is the base stream itself.
    """
    _check_eps_t(eps, t)
    stream = simulate_base(base, t / eps, rng)
    keep = rng.random(stream.count) < eps
    return ArrivalStream(t, eps * stream.times[keep])


# ---------------------------------------------------------------------------
# vectorized count kernels (no stream materialization)


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


def _renewal_counts(
    base: RenewalGammaBase, horizon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    expected = horizon * base.long_run_rate
    block = max(8, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    # The first block is drawn in row groups of about 2**20 doubles, so
    # memory stays bounded as horizon grows; the gamma stream is consumed
    # in the same order as one (size, block) draw.
    rows = max(1, 2**20 // block)
    counts = np.empty(size, dtype=np.int64)
    last = np.empty(size)
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        totals = rng.gamma(base.shape, 1.0 / base.rate, (hi - lo, block)).cumsum(axis=1)
        counts[lo:hi] = (totals <= horizon).sum(axis=1)
        last[lo:hi] = totals[:, -1]
    alive = np.flatnonzero(last <= horizon)
    while alive.size:
        more = rng.gamma(base.shape, 1.0 / base.rate, (alive.size, block)).cumsum(axis=1)
        more += last[alive][:, None]
        counts[alive] += (more <= horizon).sum(axis=1)
        last_alive = more[:, -1]
        still = last_alive <= horizon
        last[alive] = last_alive
        alive = alive[still]
    return counts


def sample_thinned_counts(
    base: BaseProcessSpec,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
    return_base_counts: bool = False,
):
    """Draw ``size`` iid copies of the thinned, sped-up count at time t.

    The base count on [0, t/eps] is drawn first; independent keep/drop
    decisions then reduce it binomially with success probability eps.
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
