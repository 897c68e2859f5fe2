"""Finite-state Markov environments and their stationary analysis.

The environment is an irreducible continuous-time Markov chain X on states
{0, ..., n-1} with generator Q, together with a nonnegative per-state arrival
rate vector f.  This module computes the stationary distribution pi, the
long-run rate lambda_star = pi . f, the centered rate vector f - lambda_star,
the accumulated-deviation vector g solving Q g = -(f - lambda_star) with
pi . g = 0, and the time-average variance constant sigma2, by numpy solves
that any thread may run.  It also draws exact occupation integrals of many
independent trajectories at once by streaming their sojourn segments, without
holding any path; the path-by-path sampler in ``tests/reference.py`` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EnumerationTooLargeError, SingularSystemError

__all__ = [
    "GeneratorMatrix",
    "CtmcModel",
    "StationaryAnalysis",
    "stationary_distribution",
    "analyze",
    "sample_occupation_integrals",
]

ROW_SUM_TOL = 1e-12
# Largest horizon * max exit rate a segment walk accepts; the product bounds
# the walk's mean number of jumps, one less than its rounds, from above.
MAX_SEGMENT_ROUNDS = 2**24


def _strong_components(adjacency: np.ndarray) -> int:
    """The number of strongly connected components of a boolean adjacency matrix.

    Breadth-first searches from state 0, along the edges and against them,
    settle the strongly connected case in O(n^2).  Otherwise the count is the
    number of distinct rows of mutual reachability, from a transitive closure by
    repeated squaring: k squarings cover every path of up to 2^k edges, and the
    float32 products are exact counts of at most n.
    """
    n = len(adjacency)
    reached = []
    for edges in (adjacency, adjacency.T):
        seen = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        reached.append(seen.all())
    if n and all(reached):
        return 1
    reach = (adjacency | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(n.bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    closed = reach > 0
    return len(np.unique(closed & closed.T, axis=0))


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated transition-rate matrix of an irreducible finite CTMC, as a read-only copy.

    Raises ValueError on a matrix that is not square, has a non-finite entry or a
    negative off-diagonal rate, has a row that does not sum to zero, or is reducible.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"rate matrix must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("rate matrix entries must be finite")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            i, j = np.argwhere(off < 0)[0]
            raise ValueError(f"off-diagonal rate q[{i}][{j}] = {q[i, j]} is negative")
        row_sums = q.sum(axis=1)
        bad = np.abs(row_sums) > ROW_SUM_TOL
        if np.any(bad):
            i = int(np.argmax(np.abs(row_sums)))
            raise ValueError(f"row {i} sums to {row_sums[i]:.3e}, expected 0")
        n_comp = _strong_components(off > 0)
        if n_comp != 1:
            raise ValueError(
                "positive-rate graph is not strongly connected "
                f"({n_comp} strongly connected components)"
            )
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Sojourn-ending rate per state, -q[i][i]; +0.0, not -0.0, for a state with no exit."""
        return 0.0 - np.diag(self.q)


@dataclass(frozen=True, eq=False)
class CtmcModel:
    """Markov environment plus the per-state arrival rate vector f.

    ``rates`` is a read-only copy: tables cached by model identity stay valid.
    """

    generator: GeneratorMatrix
    rates: np.ndarray
    initial_state: int = 0

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        n = self.generator.n
        if rates.shape != (n,):
            raise ValueError(f"rates must have shape ({n},), got {rates.shape}")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ValueError("rates must be finite and nonnegative")
        if not np.any(rates > 0):
            raise ValueError("at least one state must have a positive rate")
        if not (0 <= self.initial_state < n):
            raise ValueError(f"initial_state {self.initial_state} out of range [0, {n})")
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "initial_state", int(self.initial_state))

    @property
    def n(self) -> int:
        return self.generator.n


@dataclass(frozen=True, eq=False)
class StationaryAnalysis:
    """All stationary quantities of a model.

    ``g`` accumulates the expected transient deviation of the rate from its
    long-run mean when started in each state; ``sigma2`` is the time-average
    variance constant 2 sum_i pi[i] f_centered[i] g[i].
    """

    pi: np.ndarray
    lambda_star: float
    f_centered: np.ndarray
    g: np.ndarray
    sigma2: float


def _solve_refined(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Dense LU solve with one step of iterative refinement.

    An exactly zero pivot (numpy's LinAlgError), a residual that is not
    finite or a step that leaves double range raises one SingularSystemError
    naming the ``name`` solve; nothing is warned and no process-wide state set.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            x = np.linalg.solve(a, b)
            x += np.linalg.solve(a, np.asarray_chkfinite(b - a @ x))
    except (ValueError, FloatingPointError) as exc:
        raise SingularSystemError(f"the {name} solve is singular or leaves double range") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"the {name} solve produced non-finite values")
    return x


def stationary_distribution(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary probability vector pi with pi Q = 0 and sum(pi) = 1.

    One redundant balance equation is replaced by the normalization row and
    the resulting dense system is solved directly.
    """
    n = gen.n
    a = gen.q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = _solve_refined(a, b, "stationary")
    if np.any(pi <= 0):
        raise SingularSystemError("stationary solve produced nonpositive entries")
    return pi / pi.sum()


def analyze(model: CtmcModel) -> StationaryAnalysis:
    """Compute pi, lambda_star, the centered rates, g and sigma2.

    g solves the singular system Q g = -(f - lambda_star) with one equation
    replaced by the centering constraint pi . g = 0.
    """
    pi = stationary_distribution(model.generator)
    f = model.rates
    lambda_star = float(pi @ f)
    if lambda_star <= 0.0:
        raise SingularSystemError("pi . f must be positive")
    if np.all(f == f[0]):
        # constant rate: the centered system is exactly zero
        n = model.n
        return StationaryAnalysis(pi, lambda_star, np.zeros(n), np.zeros(n), 0.0)
    f_centered = f - lambda_star
    a = model.generator.q.copy()
    a[-1, :] = pi
    b = -f_centered.copy()
    b[-1] = 0.0
    g = _solve_refined(a, b, "deviation (g)")
    # rates and g near the largest double give inf, and an inf and a -inf term give NaN;
    # eta_squared and the CLI's JSON writer report either
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2 = 2.0 * float(np.sum(pi * f_centered * g))
    if sigma2 < 0.0:
        if sigma2 < -1e-12:
            raise SingularSystemError(f"sigma2 = {sigma2:.3e} is negative beyond tolerance")
        sigma2 = 0.0
    return StationaryAnalysis(pi, lambda_star, f_centered, g, sigma2)


def _jump_table(generator: GeneratorMatrix) -> tuple[np.ndarray, int]:
    """Flat next-state search table of :func:`_next_state`; returns (table, W).

    Row i holds the cdf of the state a jump from i lands in, q[i][j] / exit
    rate summed over j < n - 1, padded to W, the next power of two at least
    n, and the rows are laid end to end.  Rounding can carry a partial sum
    past 1.0, so entries are capped at 1.0; that moves no lookup for u in
    [0, 1).  The last column and the padding hold 2.0, above every such u:
    the full row sums to 1, so its last entry never counts.  A state with
    no exit, a one-state chain's, has a row of 2.0 alone.
    """
    n = generator.n
    off = generator.q.copy()
    np.fill_diagonal(off, 0.0)
    width = 1 << (n - 1).bit_length()
    table = np.full((n, width), 2.0)
    cum = np.cumsum(off[:, : n - 1] / generator.exit_rates[:, None], axis=1)
    table[:, : n - 1] = np.minimum(cum, 1.0)
    return table.ravel(), width


def _next_state(table: np.ndarray, width: int, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next state of each chain: the count of entries of its cdf row that are <= u.

    A branchless binary search over the padded rows of :func:`_jump_table`,
    one 1-d gather per halving of W.  Every row is nondecreasing: partial
    sums of nonnegative terms, capped at 1.0, then 2.0.  So after the steps
    W/2, ..., 1 the offset of ``pos`` in its row is exactly the count
    ``(u[:, None] >= cum[state]).sum(axis=1)``, ties included.
    """
    pos = state * width
    step = width >> 1
    while step:
        pos += (u >= table[step - 1 :][pos]) * step
        step >>= 1
    return pos & (width - 1)


def _segment_rounds(
    model: CtmcModel, horizon: float, size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Stream sojourn segments of ``size`` independent trajectories.

    Yields (replication_index, state, start, end) arrays, one sojourn per
    replication per round, so consumers never hold full paths in memory.
    Replications whose trajectory has reached the horizon drop out; a round
    in which every replication jumps keeps its arrays as they are.  A state
    with no exit (a one-state chain's) has exit rate +0.0, and ``np.fmin``
    ends its sojourn, draw / 0 = inf or NaN, at the horizon.  The next
    state comes from :func:`_next_state` on a :func:`_jump_table` built once
    per call.  A horizon times maximum exit rate above MAX_SEGMENT_ROUNDS
    raises EnumerationTooLargeError before the first draw.
    """
    exit_rates = model.generator.exit_rates
    with np.errstate(over="ignore"):  # a product past the largest double is past the guard
        rounds = horizon * exit_rates.max()
    if rounds > MAX_SEGMENT_ROUNDS:
        raise EnumerationTooLargeError(
            f"segment walk: horizon times the largest exit rate is {rounds:.3g} > {MAX_SEGMENT_ROUNDS}"
        )
    idx = np.arange(size)
    state = np.full(size, model.initial_state, dtype=np.int64)
    t_now = np.zeros(size)
    table, width = _jump_table(model.generator)
    while idx.size:
        draws = rng.exponential(size=idx.size)
        with np.errstate(divide="ignore", invalid="ignore"):  # a state with no exit
            end = np.fmin(t_now + draws / exit_rates[state], horizon)
        yield idx, state, t_now, end
        jumped = end < horizon
        if not np.any(jumped):
            return
        if not np.all(jumped):
            idx, end, state = idx[jumped], end[jumped], state[jumped]
        t_now = end
        u = rng.random(size=idx.size)
        state = _next_state(table, width, state, u)


def _segment_sums(segments, weights: np.ndarray, level, size: int) -> np.ndarray:
    """Per replication, the sum of weights[state] (level(start) - level(end)) over its segments.

    A walk starts at 0 and a segment where its replication's last one ended, so
    ``level`` runs once a round, at the ends.  A full round adds without scattering.
    """
    out, left = np.zeros(size), level(np.zeros(size))
    for idx, state, _, end in segments:
        right = level(end)
        with np.errstate(over="ignore"):  # a sum past the largest double is inf
            if idx.size == size:
                out += weights[state] * (left - right)
                left = right
            else:
                out[idx] += weights[state] * (left[idx] - right)
                left[idx] = right
    return out


def sample_occupation_integrals(
    model: CtmcModel,
    weights,
    horizon: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` iid copies of the occupation integral of ``weights``.

    Streams segments instead of materializing paths, so memory stays O(size) regardless of
    the horizon.  A segment adds weights[state] (end - start), the :func:`_segment_sums` of -s.
    """
    if not 0 < horizon < np.inf:  # an infinite horizon would never end the rounds
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    weights = np.asarray(weights, dtype=float)
    return _segment_sums(_segment_rounds(model, horizon, size, rng), weights, np.negative, size)
