"""Arrival-process models and their vectorized time-t count kernels.

Four models are covered: a constant-rate Poisson stream, a Markov-modulated
stream whose intensity at time s is rates[X(s/eps)] for an environment chain
X, a fast periodic-intensity Poisson stream, and a gamma renewal stream run
on [0, t/eps], each point kept independently with probability eps, and time
rescaled.  ``harness.ExperimentSpec`` draws the constant-rate and periodic
counts as Poisson at their exact mean; the other two have a sampler each
here.  Thinning a Poisson or a modulated base this way gives exactly the
constant-rate or the modulated law, so only the renewal base is thinned
here; the Poisson and modulated constructions are the test suite's
equivalence oracle (``tests/reference.py`` and ``tests/gof.py``).

The kernels draw many iid copies of the time-t count exactly, without
materializing paths or streams: given the environment, the modulated count
is Poisson with the time-scaled occupation integral as its mean, and a
thinned count is a binomial draw from the base count.  Two counts are drawn
by inverting an exact CDF table, one uniform per replication:

- the modulated count, from one matrix exponential of the (count, state)
  chain (Fischer & Meier-Hellstern, "The MMPP cookbook", 1993), at a cost
  that grows only with log(t/eps); above the table's size cap the
  environment is streamed instead;
- a gamma renewal base count R, from P(R >= n) = P(S_n <= horizon) with
  S_n ~ gamma(n*shape, rate) its n-th point, at a cost that does not grow
  with t/eps.

The per-path stream construction they stand in for is kept as the test
suite's reference, in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import expm, poisson_window
from .errors import ArgumentError, EnumerationTooLargeError, SingularSystemError
from .markov_env import CtmcModel, sample_occupation_integrals

__all__ = [
    "PeriodicIntensity",
    "PoissonBase",
    "RenewalGammaBase",
    "Model",
    "sample_cox_counts",
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


Model = CtmcModel | PeriodicIntensity | PoissonBase | RenewalGammaBase


def _check_eps_t(eps: float, t: float, eps_zero: bool = False):
    """Raise ArgumentError unless t > 0 and eps lies in (0, 1], or [0, 1] with ``eps_zero``.

    The samplers form t/eps and need eps > 0; the expansions and
    ``ExperimentSpec`` accept eps 0, where the corrected pmf is the baseline.
    Every comparison is written so that NaN fails it.
    """
    if not (0.0 < eps <= 1.0 or (eps_zero and eps == 0.0)):
        raise ArgumentError(f"must lie in {'[' if eps_zero else '('}0, 1], got {eps}", "eps")
    if not t > 0:
        raise ArgumentError(f"must be positive, got {t}", "t")


def _check_eps_grid(eps_grid) -> list[float]:
    """eps_grid as floats; ArgumentError unless nonempty, in (0, 1] and strictly decreasing."""
    grid = [float(e) for e in eps_grid]
    if not grid or any(not 0.0 < e <= 1.0 for e in grid):
        raise ArgumentError("entries must lie in (0, 1]", "eps_grid")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ArgumentError("entries must decrease strictly", "eps_grid")
    return grid


def _finite_horizon(eps: float, t: float) -> float:
    """t/eps after the sampler form of :func:`_check_eps_t`; ArgumentError unless finite.

    The modulated, queue and periodic kernels walk, tabulate or floor
    environment time, so they need it finite (NaN fails too).  The renewal
    kernel does not call it: its CDF table guard already reports an infinite
    horizon as :class:`EnumerationTooLargeError`.
    """
    _check_eps_t(eps, t)
    horizon = t / eps
    if not horizon < math.inf:
        raise ArgumentError(f"t/eps must be finite, got {t}/{eps}", "eps")
    return horizon


def periodic_mean_count(intensity: PeriodicIntensity, eps: float, t: float) -> float:
    """Exact mean of the time-t count for the fast periodic stream."""
    horizon = _finite_horizon(eps, t)
    whole = math.floor(horizon)
    frac = horizon - whole
    return eps * (whole * intensity.cumulative(1.0) + intensity.cumulative(frac))


# ---------------------------------------------------------------------------
# vectorized count kernels


# numpy's Poisson sampler refuses a larger mean (int64 max less 10 sd).
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _poisson(rng: np.random.Generator, mean, size: int | None = None) -> np.ndarray:
    """``rng.poisson(mean, size)``, raising EnumerationTooLargeError above numpy's limit."""
    if np.max(mean, initial=0.0) > MAX_POISSON_MEAN:
        raise EnumerationTooLargeError(f"Poisson mean {np.max(mean):.3g} > {MAX_POISSON_MEAN:.3g}")
    return rng.poisson(mean, size)


def _invert_cdf(q: np.ndarray, offset: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of offset + (the number of entries of q that are <= u), u uniform.

    With q[i] = P(X <= offset + i), nondecreasing and ending at exactly 1.0,
    that is ``size`` iid copies of X: one uniform per copy.
    """
    return offset + np.searchsorted(q, rng.random(size), side="right")


MAX_COX_TABLE = 512
MAX_RENEWAL_TABLE = 2**24
# The smallest entry a scaled generator may hold and keep full precision.
MIN_SCALED_ENTRY = np.finfo(float).tiny / np.finfo(float).eps


def _cox_count_pmf(model: CtmcModel, eps: float, t: float) -> np.ndarray | None:
    """P(N = j) for j = 0..J, N the time-t modulated count started in
    ``model.initial_state``; None when the table needs over MAX_COX_TABLE rows.

    N is stochastically below Poisson(max(rates)*t), so J, the smallest count
    with P(Poisson(max(rates)*t) > J) <= 2**-64, bounds its tail.  Over environment
    time T = t/eps the (count, state) chain has the block upper-bidiagonal
    generator B with Q - eps*F on the diagonal and eps*F above it,
    F = diag(rates) (T*B is formed as T*Q - t*F and t*F).  Counts above J
    are merged into one absorbing block; B is block upper-triangular, so
    this leaves P(N = j, X_T = y | X_0 = x0) exact for j <= J, and row x0
    summed over y is the pmf.

    exp(T*B) is ``expm`` of T*B / 2**s, norm below 1, squared s times.
    Every row of the exponential of this generator sums to 1, so each
    square is renormalized to that: otherwise a row-sum error doubles with
    each of the log2(t/eps) squarings (a plain ``expm`` is off in mass by
    1e-4 at eps 1e-12 on a two-state chain).  A generator that is not
    finite, or a scaled entry below MIN_SCALED_ENTRY (eps*rate/exit rate
    below about 1e-292), raises SingularSystemError.
    """
    n = model.n
    with np.errstate(over="ignore"):  # a mean past the largest double fits no table
        mean = float(model.rates.max() * t)
    rows = _table_rows(mean, MAX_COX_TABLE // n)
    if rows is None:
        return None
    arrivals = np.diag(t * model.rates)
    gen = np.kron(np.eye(rows + 1), t / eps * model.generator.q - arrivals)
    gen += np.kron(np.eye(rows + 1, k=1), arrivals)
    gen[rows * n :] = 0.0  # the block of counts above J absorbs
    norm = np.abs(gen).sum(axis=1).max()
    squarings = max(0, math.frexp(norm)[1])  # norm / 2**squarings < 1; 0 for inf and NaN
    scaled = np.ldexp(gen, -squarings)
    if not (norm < math.inf and np.abs(scaled[scaled != 0]).min() >= MIN_SCALED_ENTRY):
        raise SingularSystemError(
            f"count table at t/eps = {t / eps:.3g} needs generator entries beyond double precision"
        )
    p = expm(scaled)
    for _ in range(squarings):
        p = p @ p
        p /= p.sum(axis=1, keepdims=True)
    return p[model.initial_state, : rows * n].reshape(rows, n).sum(axis=1)


def _table_rows(mean: float, cap: int) -> int | None:
    """J + 1, J the smallest count below ``cap`` with P(Poisson(mean) > J) <= 2**-64,
    or None if there is none (as for every mean above cap, inf included)."""
    if not (cap and mean <= cap):  # above cap, P(N > cap - 1) is about 1/2 or more
        return None
    fits = poisson_window(mean, 0, cap - 1)[2][:cap] <= 2.0**-64
    return int(np.argmax(fits)) + 1 if fits.any() else None


@functools.lru_cache(maxsize=8)
def _cox_count_cdf(model: CtmcModel, eps: float, t: float) -> np.ndarray | None:
    """Exact CDF q[j] = P(N <= j) of :func:`_cox_count_pmf`, or None above its cap.

    As in :func:`_renewal_cdf`, the cumsum is capped by its running maximum
    and at 1.0, and its last entry is set to exactly 1.0.

    Built once per (model, eps, t) and shared read-only by every chunk of a
    run.  ``CtmcModel`` compares by identity and its arrays are read-only;
    the cache holds the model, so its id is not reused while the entry lives.
    """
    pmf = _cox_count_pmf(model, eps, t)
    if pmf is None:
        return None
    q = np.minimum(np.maximum.accumulate(np.cumsum(pmf)), 1.0)
    q[-1] = 1.0
    q.flags.writeable = False
    return q


def sample_cox_counts(
    model: CtmcModel,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` iid copies of the modulated count at time t.

    The count is drawn by inverting its exact CDF (:func:`_cox_count_cdf`),
    one uniform per replication, at a cost that grows only with log(t/eps).
    Above the table's size cap, segments are streamed instead: conditional
    on the environment, the count is Poisson with mean equal to the
    time-scaled occupation integral of the rates.
    """
    horizon = _finite_horizon(eps, t)
    q = _cox_count_cdf(model, eps, t)
    if q is not None:
        return _invert_cdf(q, 0, size, rng)
    return _poisson(rng, eps * sample_occupation_integrals(model, model.rates, horizon, size, rng))


def _gamma_survival(orders: np.ndarray, shape: float, x: float) -> np.ndarray:
    """gammaincc(orders * shape, x) for increasing integer orders: P(Poisson(x) < a) at
    each order a = orders * shape, from :func:`_numerics.poisson_window` when shape is
    an integer and the orders span fewer than MAX_RENEWAL_TABLE counts (the window's
    memory), else from scipy.special."""
    counts = orders * shape - 1
    if shape == int(shape) and counts[-1] - counts[0] < MAX_RENEWAL_TABLE:
        start, cdf, _ = poisson_window(x, int(counts[0]), int(counts[-1]))
        return cdf[(counts - start).astype(np.int64)]
    from scipy.special import gammaincc

    return gammaincc(orders * shape, x)


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
        orders = np.arange(lo, math.ceil(mean + half) + 1)
        q = _gamma_survival(orders, base.shape, base.rate * horizon)
        if (q[0] <= 2.0**-64 or lo == 1) and q[-1] == 1.0:
            return lo, np.maximum.accumulate(q)  # like _jump_table's cap: no rounding dips
        half *= 2.0


def _renewal_counts(
    base: RenewalGammaBase, horizon: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` base counts on [0, horizon] by inverting their exact CDF."""
    lo, q = _renewal_cdf(base, horizon)
    return _invert_cdf(q, lo - 1, size, rng)


def sample_thinned_counts(
    base: RenewalGammaBase,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` iid copies of the thinned, sped-up renewal count at time t.

    The base count on [0, t/eps] is drawn first (R by inverting
    P(R >= n) = P(S_n <= t/eps), S_n ~ gamma(n*shape, rate)); independent
    keep/drop decisions then reduce it binomially with success probability eps.
    """
    _check_eps_t(eps, t)
    if not isinstance(base, RenewalGammaBase):
        raise TypeError(f"unsupported base process {base!r}")
    return rng.binomial(_renewal_counts(base, t / eps, size, rng), eps)
