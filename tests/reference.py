"""Per-path reference simulators that the vectorized kernels are tested against.

The package computes time-t marginals with vectorized count kernels that
stream environment segments and never build a path.  This module keeps the
path-level construction those kernels stand in for: exact environment
trajectories, arrival streams of every model type (constant-rate Poisson,
Markov-modulated, fast periodic, and a base stream sped up by 1/eps and
thinned with keep probability eps), the gamma renewal count summed from
gamma blocks, and the infinite-server occupancy counted arrival by arrival,
with one service time drawn per arrival.
Tests check the kernels' laws and the constructions' equivalences against
it.  It also keeps the limiting total-variation distance computed by
enumerating state-count compositions, which the package's product-Poisson
form is checked against; the per-factor Monte Carlo draw of the product of
rate ratios, which the package's coloured draw stands in for; and the
Poisson weight with its derivatives, which the first-order expansions are
built from, with a high-precision first-order pmf that holds at any mean.

Piecewise-constant intensities are simulated exactly by per-segment Poisson
counts with uniform placement; no rejection step is involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import stats
from scipy.special import gammaln

from rapidpp.arrivals import (
    BaseProcessSpec,
    CoxBase,
    PeriodicIntensity,
    PoissonBase,
    RenewalGammaBase,
    _check_eps_t,
)
from rapidpp.errors import EnumerationTooLargeError, RapidppError
from rapidpp.expansions import (
    ErlangService,
    ExponentialService,
    ServiceModel,
    UniformService,
    poisson_pmf,
)
from rapidpp.markov_env import CtmcModel, StationaryAnalysis, _jump_cdf, analyze


class LengthMismatchError(RapidppError):
    """Paired sequences (arrivals and service draws) differ in length."""


# ---------------------------------------------------------------------------
# environment paths


@dataclass(frozen=True, eq=False)
class EnvironmentPath:
    """Piecewise-constant environment trajectory on [0, horizon].

    ``states`` has one more entry than ``jump_times``; segment i occupies
    [jump_times[i-1], jump_times[i]) in state states[i], with jump_times[-1]
    read as 0 and the final segment ending at the horizon.
    """

    horizon: float
    jump_times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.states, dtype=np.int64)
        if st.shape != (jt.size + 1,):
            raise ValueError("states must be one longer than jump_times")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "states", st)

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size


def sample_path(model: CtmcModel, horizon: float, rng: np.random.Generator) -> EnvironmentPath:
    """Exact CTMC trajectory on [0, horizon].

    Sojourns are exponential with the state's exit rate; the next state is
    drawn proportionally to the off-diagonal rates of the current row.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    exit_rates = model.generator.exit_rates
    cum = _jump_cdf(model.generator)

    times = []
    states = [model.initial_state]
    t = 0.0
    state = model.initial_state
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        state = int(np.searchsorted(cum[state], rng.random(), side="right"))
        times.append(t)
        states.append(state)
    return EnvironmentPath(horizon, np.array(times), np.array(states, dtype=np.int64))


def occupation_integral(path: EnvironmentPath, weights) -> float:
    """Exact integral of weights[X(s)] over [0, horizon] along the path."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    bounds = np.concatenate(([0.0], path.jump_times, [path.horizon]))
    durations = np.diff(bounds)
    return float(np.sum(weights[path.states] * durations))


# ---------------------------------------------------------------------------
# arrival streams


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


def gamma_block_renewal_counts(
    base: RenewalGammaBase, horizon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` gamma renewal counts on [0, horizon] by summing gamma draws.

    Each replication's interarrival times are drawn in blocks and summed, so
    the cost grows linearly with horizon; the package's kernel inverts the
    count's exact CDF instead.
    """
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


# ---------------------------------------------------------------------------
# infinite-server queue


def sample_service(service: ServiceModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` iid service times by inversion, one uniform per exponential phase."""
    if isinstance(service, ExponentialService):
        return -np.log1p(-rng.random(size)) / service.rate
    if isinstance(service, ErlangService):
        u = rng.random((size, service.shape))
        return -np.log1p(-u).sum(axis=1) / service.rate
    if isinstance(service, UniformService):
        return service.a + (service.b - service.a) * rng.random(size)
    raise TypeError(f"unsupported service {service!r}")


def number_in_system(arrivals: ArrivalStream, services, t: float) -> int:
    """Count arrivals still in service at time t.

    ``services`` must hold one duration per arrival, in arrival order.
    """
    services = np.asarray(services, dtype=float)
    if services.shape != arrivals.times.shape:
        raise LengthMismatchError(
            f"{services.size} service draws for {arrivals.count} arrivals"
        )
    if t > arrivals.horizon:
        raise ValueError("query time exceeds the simulated horizon")
    in_system = (arrivals.times <= t) & (arrivals.times + services > t)
    return int(np.count_nonzero(in_system))


def simulate_queue_at_t(
    model: CtmcModel,
    service: ServiceModel,
    eps: float,
    t: float,
    rng: np.random.Generator,
) -> int:
    """Simulate the modulated arrivals and return the occupancy at time t.

    Service draws are consumed in arrival order from the given stream.
    """
    if t == 0:
        return 0
    stream, _ = simulate_cox(model, eps, t, rng)
    services = sample_service(service, stream.count, rng)
    return number_in_system(stream, services, t)


# ---------------------------------------------------------------------------
# limiting total-variation distance by composition enumeration


MAX_TV_STATES = 6
MAX_TV_KMAX = 80
MAX_TV_TERMS = 30_000_000


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``.

    Rows come in lexicographic order.  Stars and bars: each choice of
    ``parts - 1`` bar positions among ``total + parts - 1`` slots is one
    vector, whose parts are the gaps between consecutive bars, and
    ``itertools.combinations`` yields the choices in lexicographic order.
    """
    slots = total + parts - 1
    rows = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def _log_ratios(model: CtmcModel) -> tuple[StationaryAnalysis, np.ndarray, np.ndarray]:
    """The model's analysis, its zero-rate mask and its log rate ratios.

    The ratio of state i is rates[i] / lambda_star; its log is set to 0 where
    the rate is zero, and every ratio is exactly one for a constant rate.
    """
    analysis = analyze(model)
    f = model.rates
    if np.all(f == f[0]):
        # mathematically the ratio is exactly one; avoid rounding noise
        ratios = np.ones(model.n)
    else:
        ratios = f / analysis.lambda_star
    zero = ratios == 0.0
    log_r = np.where(zero, 0.0, np.log(np.where(zero, 1.0, ratios)))
    return analysis, zero, log_r


def tv_limit_enumeration(model: CtmcModel, t: float, truncation_mass: float = 1e-10) -> float:
    """Limiting path total-variation distance to the constant-rate approximation.

    Equals half the expected absolute deviation from one of the product of
    iid stationary rate ratios taken over a Poisson(lambda_star t) number of
    factors.  Evaluated by exact enumeration over state-count compositions
    with multinomial log-weights; the Poisson tail beyond the truncation is
    at most ``truncation_mass``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    analysis, zero, log_r = _log_ratios(model)
    if t == 0.0 or not (np.any(zero) or np.any(log_r)):  # every ratio is one
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
    pois = poisson_pmf(mu, kmax).probs
    total = 0.0
    for n in range(kmax + 1):
        comps = _compositions(n, n_states)
        logw = gammaln(n + 1) - gammaln(comps + 1).sum(axis=1) + comps @ log_pi
        log_prod = comps @ log_r
        hits_zero = (comps[:, zero] > 0).any(axis=1)
        absdev = np.where(hits_zero, 1.0, np.abs(np.expm1(log_prod)))
        total += pois[n] * float(np.exp(logw) @ absdev)
    return 0.5 * total


def per_factor_abs_deviations(
    model: CtmcModel, t: float, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """``reps`` iid draws of |product of rate ratios - 1|, one factor at a time.

    Each replication draws a Poisson(lambda_star t) number of iid stationary
    states; the product of their rate ratios is zero if any rate is.  The
    states of all replications are drawn at once, so memory grows with
    reps * lambda_star t.
    """
    analysis, zero, log_r = _log_ratios(model)
    counts = rng.poisson(analysis.lambda_star * t, reps)
    states = rng.choice(model.n, size=int(counts.sum()), p=analysis.pi)
    cum_log = np.concatenate(([0.0], np.cumsum(log_r[states])))
    cum_zero = np.concatenate(([0], np.cumsum(zero[states].astype(np.int64))))
    ends = np.cumsum(counts)
    starts = ends - counts
    seg_zero = cum_zero[ends] - cum_zero[starts]
    seg_log = cum_log[ends] - cum_log[starts]
    return np.abs(np.where(seg_zero > 0, 0.0, np.exp(seg_log)) - 1.0)


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


def first_order_mp(mean: float, kmax: int, eps: float, shift: float, excess: float) -> np.ndarray:
    """h + eps (h' shift + h''/2 excess) at counts 0..kmax, by mpmath at 40 digits.

    h is the Poisson weight at ``mean`` and h', h'' are the closed forms of
    :func:`hk_derivatives`.  mpmath's exponent range holds k/m and m^2 at any positive
    double mean, so this serves the tiny means where :func:`hk_derivatives` forms 0/0.
    """
    with mp.workdps(40):
        m = mp.mpf(mean)
        h = mp.exp(-m)
        out = []
        for k in range(kmax + 1):
            if k:
                h = h * m / k
            h1 = h * (k / m - 1)
            h2 = h * (1 - 2 * k / m + k * (k - 1) / m**2)
            out.append(float(h + eps * (h1 * shift + h2 * excess / 2)))
    return np.array(out)
