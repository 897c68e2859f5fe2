"""Monte Carlo pmf estimation with deterministic seeding, and the residual-order study.

Replications are processed in fixed-size chunks; chunk c draws its random
stream from ``SeedSequence(master_seed, spawn_key=(..., c))``, and chunk
results are merged in chunk order (drawn counts by exact integer addition).
Outputs are therefore byte-identical for any worker count and any execution
order.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .arrivals import (
    Model,
    PeriodicIntensity,
    PoissonBase,
    _check_eps_grid,
    _check_eps_t,
    _poisson,
    periodic_mean_count,
    sample_cox_counts,
    sample_thinned_counts,
)
from .errors import ArgumentError, SingularSystemError
from .expansions import (
    PmfVector,
    ServiceModel,
    _check_kmax,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    default_kmax,
    mean_q0,
    poisson_pmf,
)
from .markov_env import CtmcModel, GeneratorMatrix, analyze
from .queue_sim import _occupancy_mean, sample_queue_counts

__all__ = [
    "CHUNK_SIZE",
    "ExperimentSpec",
    "PmfEstimate",
    "ResidualEntry",
    "ResidualReport",
    "estimate_pmf",
    "convergence_study",
]

CHUNK_SIZE = 16_384
MIN_BASELINE_PROB = 1e-4
Z99 = 2.5758293035489004  # the standard normal 0.995 quantile


@functools.lru_cache(maxsize=8)
def _analysis(model: CtmcModel):
    """``analyze(model)``, once per model, so a study over an eps grid analyzes its model
    once.  As for ``arrivals._cox_count_cdf``, ``CtmcModel`` compares by identity and its
    arrays are read-only.  ``analyze`` is looked up at call time, so a patch of
    ``harness.analyze`` sees every model's first analysis."""
    return analyze(model)


@functools.lru_cache(maxsize=8)
def _one_state_chain(base: PoissonBase) -> CtmcModel:
    """A constant rate as a one-state chain, built once per rate, so that a queue study
    over an eps grid hits :func:`_analysis`' cache and analyzes it once."""
    return CtmcModel(GeneratorMatrix([[0.0]]), np.array([base.rate]), 0)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One experiment at time t; the type of ``model`` decides which.

    - ``CtmcModel``: count of the Markov-modulated stream;
    - ``PeriodicIntensity``: count of the fast periodic stream;
    - ``PoissonBase``: constant-rate count; a constant rate has no speed
      parameter, so ``eps`` is ignored (and set to 1), while every other
      model needs one: an ``eps`` of None raises ArgumentError;
    - ``RenewalGammaBase``: count of the renewal stream sped up by 1/eps
      and thinned with keep probability eps;
    - with a ``service``: infinite-server occupancy fed by the stream.  The
      model must be a ``CtmcModel`` or a ``PoissonBase``, which the spec
      wraps as a one-state chain; any other raises ArgumentError.

    :meth:`baseline_mean` and :meth:`expansion` give the constant-rate
    Poisson approximation and its first-order eps-correction, and
    :meth:`sample_counts` draws the exact law (or, for an occupancy, its
    conditional Poisson means).  At eps 0 the corrected pmf equals the
    baseline; sampling needs eps > 0.
    """

    model: Model
    t: float
    eps: float | None = 1.0
    service: ServiceModel | None = None

    def __post_init__(self):
        model = self.model
        if not isinstance(model, Model):
            raise ValueError(f"unsupported model {model!r}")
        if self.service is not None and not isinstance(model, (CtmcModel, PoissonBase)):
            raise ArgumentError("queue experiments require an mmpp or constant model", "model")
        if isinstance(model, PoissonBase):
            object.__setattr__(self, "eps", 1.0)
            if self.service is not None:
                object.__setattr__(self, "model", _one_state_chain(model))
        elif self.eps is None:
            raise ArgumentError("missing required field", "eps")
        _check_eps_t(self.eps, self.t, eps_zero=True)

    def _first_order(self):
        """(baseline mean, corrected pmf or None, its leading arguments): the one model-type
        dispatch.  A constant rate needs no correction, and no renewal correction is
        implemented."""
        model = self.model
        if isinstance(model, CtmcModel):
            res = _analysis(model)
            env = (res.lambda_star, float(res.g[model.initial_state]), res.sigma2)
            if self.service is None:
                return res.lambda_star * self.t, corrected_count_pmf, env
            mean = mean_q0(res.lambda_star, self.service, self.t)
            return mean, corrected_queue_pmf, (*env, self.service)
        if isinstance(model, PeriodicIntensity):
            return model.average_rate * self.t, corrected_count_pmf_periodic, (model,)
        if isinstance(model, PoissonBase):
            return model.rate * self.t, None, ()
        return model.long_run_rate * self.t, None, ()

    def baseline_mean(self) -> float:
        """Mean of the constant-rate approximation of this experiment."""
        return self._first_order()[0]

    def expansion(self, kmax: int | None = None) -> tuple[PmfVector, PmfVector]:
        """The baseline Poisson pmf and the first-order corrected pmf at eps, over 0..kmax
        (by default the baseline's :func:`default_kmax`); without a correction, both are the
        baseline."""
        mean, corrected, args = self._first_order()
        base = poisson_pmf(mean, kmax)
        return base, corrected(*args, self.eps, self.t, base.kmax) if corrected else base

    def occupancy_mean(self) -> float | None:
        """The exact mean of an occupancy's conditional Poisson means at eps > 0 (see
        :func:`queue_sim._occupancy_mean`), or None above the kernel's block-size cap."""
        return _occupancy_mean(self.model, self.service, self.eps, self.t)

    # Defined on this class and looked up by name: bench/tracer.py patches
    # ExperimentSpec.sample_counts and the sampler names bound in this module.
    def sample_counts(
        self, size: int, rng: np.random.Generator, *, conditional: bool = False
    ) -> np.ndarray:
        """``size`` draws of the experiment's count; with ``conditional``, an occupancy's
        conditional Poisson means instead (any other experiment raises ValueError)."""
        model = self.model
        if self.service is not None:
            return sample_queue_counts(
                model, self.service, self.eps, self.t, size, rng, conditional=conditional
            )
        if conditional:
            raise ValueError("only an occupancy experiment has conditional Poisson means")
        if isinstance(model, CtmcModel):
            return sample_cox_counts(model, self.eps, self.t, size, rng)
        if isinstance(model, PeriodicIntensity):
            return _poisson(rng, periodic_mean_count(model, self.eps, self.t), size)
        if isinstance(model, PoissonBase):
            return _poisson(rng, model.rate * self.t, size)
        return sample_thinned_counts(model, self.eps, self.t, size, rng)


@dataclass(frozen=True, eq=False)
class PmfEstimate:
    """Estimated pmf over 0..kmax, its per-bin standard error ``se`` and the
    99% Wald intervals p̂ ± Z99·se, clipped to [0, 1].

    For drawn counts ``se`` is the binomial √(p̂(1 − p̂)/reps); for a
    conditional-Poisson estimate it is the residual standard error of the
    control-variate regression (see :func:`estimate_pmf`).  For drawn counts,
    ``counts`` holds how many replications drew each of 0..kmax and, in one
    last overflow bin, how many drew more (so it sums to ``reps``); a
    conditional-Poisson estimate draws no count and has None.  The
    probability, se and interval arrays cover 0..kmax.
    """

    counts: np.ndarray | None
    reps: int
    kmax: int
    probs: np.ndarray
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray

    @classmethod
    def _wald(cls, counts, reps: int, kmax: int, probs, se) -> "PmfEstimate":
        ci_low = np.clip(probs - Z99 * se, 0.0, 1.0)
        ci_high = np.clip(probs + Z99 * se, 0.0, 1.0)
        return cls(counts, reps, kmax, probs, se, ci_low, ci_high)

    @classmethod
    def from_counts(cls, counts, reps: int, kmax: int) -> "PmfEstimate":
        """The empirical pmf of drawn counts, with the binomial se."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.sum() != reps:
            raise ValueError("counts must sum to reps")
        if counts.size < kmax + 1:
            raise ValueError("counts must cover 0..kmax")
        probs = counts[: kmax + 1] / reps
        return cls._wald(counts, reps, kmax, probs, np.sqrt(probs * (1.0 - probs) / reps))


def _poisson_terms(means: np.ndarray, kmax: int) -> np.ndarray:
    """Per column, the sum of one chunk's terms, the sum of their squared deviations from
    their mean, and the sum of their deviations times those of ``means``: a
    (3, kmax + 2) array.  Columns 0..kmax hold the Poisson(k; M) terms, and column
    kmax + 1 holds the means M themselves.

    Each term is exp(k·log M − M − lgamma(k + 1)), so it stays right where exp(−M)
    underflows (M above about 745).  The terms are built one k at a time, so memory is
    one row of the chunk; centring each row on its own mean keeps cancellation from
    setting a floor under the standard error.  Past the largest mean every term falls
    with k, so once a row there is all zeros, the columns left stay zero.
    """
    out = np.zeros((3, kmax + 2))
    total_m = means.sum()
    dev_m = means - total_m / means.size
    top = means.max()
    with np.errstate(divide="ignore"):
        log_m = np.log(means)
    row = np.empty_like(means)
    for k in range(kmax + 1):
        if k:
            np.multiply(log_m, k, out=row)
            row -= means
            row -= gammaln(k + 1)
        else:
            np.negative(means, out=row)
        np.exp(row, out=row)
        total = row.sum()
        if total == 0.0 and k > top:
            break
        row -= total / means.size
        co = row @ dev_m
        row *= row
        out[:, k] = total, row.sum(), co
    square = dev_m @ dev_m
    out[:, -1] = total_m, square, square
    return out


def _check_workers(workers: int):
    if workers < 1:
        raise ArgumentError("workers must be at least 1", "workers")


def _check_reps(reps: int):
    if reps < 1:
        raise ArgumentError("reps must be at least 1", "reps")


def _check_seed(master_seed: int):
    if master_seed < 0:
        raise ArgumentError("master_seed must be nonnegative", "master_seed")


def estimate_pmf(
    spec: ExperimentSpec,
    reps: int,
    master_seed: int,
    kmax: int | None = None,
    *,
    workers: int = 1,
    stream_key: tuple[int, ...] = (),
    conditional: bool = False,
) -> PmfEstimate:
    """Estimate the count pmf from ``reps`` independent replications.

    By default each replication draws one count, and the estimate is the
    empirical pmf.  With ``conditional`` (an occupancy only, and at least 3
    reps), each replication contributes the whole Poisson pmf at its
    conditional mean M_i, a term P_k,i = Poisson(k; M_i) per bin, whose
    average has the same expectation as the drawn-count pmf and a far smaller
    variance.  The exact E[M] (:meth:`ExperimentSpec.occupancy_mean`) then
    serves as a control variate (Asmussen & Glynn, *Stochastic Simulation*,
    2007, ch. V): per bin, p̂(k) = P̄_k − β_k·(M̄ − E[M]) with
    β_k = C_PM/C_MM, the regression slope of the terms on M, and
    se_k = √(RSS_k/(reps − 2))/√reps from the residual sum of squares
    RSS_k = C_PP − β_k·C_PM.  β_k is 0 when no exact mean is available
    (a block above ``queue_sim.MAX_OCCUPANCY_BLOCK``) or every M_i is equal.

    Chunk streams are a pure function of (master_seed, stream_key, chunk
    index), and chunk results are merged in index order, so the estimate
    does not depend on ``workers``.
    """
    _check_reps(reps)
    _check_seed(master_seed)
    if conditional and reps < 3:
        raise ArgumentError("must be at least 3 for a conditional estimate", "reps")
    if kmax is None:
        kmax = default_kmax(spec.baseline_mean())
    _check_kmax(kmax)
    _check_workers(workers)
    n_chunks = math.ceil(reps / CHUNK_SIZE)

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, reps - c * CHUNK_SIZE)
        seq = np.random.SeedSequence(master_seed, spawn_key=(*stream_key, c))
        rng = np.random.default_rng(seq)
        if conditional:
            return _poisson_terms(spec.sample_counts(size, rng, conditional=True), kmax)
        draws = np.minimum(spec.sample_counts(size, rng), kmax + 1)
        return np.bincount(draws, minlength=kmax + 2)

    if workers <= 1:
        parts = [run_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    if conditional:
        return _control_variate(np.array(parts), reps, kmax, spec.occupancy_mean())
    return PmfEstimate.from_counts(np.sum(parts, axis=0), reps, kmax)


def _control_variate(parts: np.ndarray, reps: int, kmax: int, exact_mean) -> PmfEstimate:
    """Merge the chunks' :func:`_poisson_terms` in index order, then regress each bin on
    M (see :func:`estimate_pmf`).  Each chunk's moments are centred on its own means;
    the between-chunk terms centre them all on the overall means."""
    sums, squares, co = parts.transpose(1, 0, 2)
    sizes = np.diff(np.minimum(np.arange(len(parts) + 1) * CHUNK_SIZE, reps))[:, None]
    means = sums.sum(axis=0) / reps
    dev = sums / sizes - means
    c_pp = (squares + sizes * dev**2).sum(axis=0)
    c_pm = (co + sizes * dev * dev[:, -1:]).sum(axis=0)
    c_mm = c_pm[-1]
    if exact_mean is None or c_mm == 0:
        beta, exact_mean = 0.0, means[-1]
    else:
        beta = c_pm[:-1] / c_mm
    probs = means[:-1] - beta * (means[-1] - exact_mean)
    rss = np.maximum(c_pp[:-1] - beta * c_pm[:-1], 0.0)
    return PmfEstimate._wald(None, reps, kmax, probs, np.sqrt(rss / (reps - 2) / reps))


# ---------------------------------------------------------------------------
# residual-order study


@dataclass(frozen=True)
class ResidualEntry:
    """Max-over-k pmf residuals at one eps, with the standard error of the
    estimate at each maximizing bin."""

    eps: float
    zeroth: float
    zeroth_se: float
    first: float
    first_se: float

    @property
    def ratio(self) -> float:
        """First-order residual divided by eps."""
        return self.first / self.eps

    @property
    def ratio_se(self) -> float:
        return self.first_se / self.eps

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "zeroth_order_residual": self.zeroth,
            "zeroth_order_se": self.zeroth_se,
            "first_order_residual": self.first,
            "first_order_se": self.first_se,
            "ratio": self.ratio,
            "ratio_se": self.ratio_se,
        }


@dataclass(frozen=True)
class ResidualReport:
    eps_grid: list[float]
    reps: int
    kmax: int
    kind: str
    entries: list[ResidualEntry] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eps_grid": list(self.eps_grid),
            "reps": self.reps,
            "kmax": self.kmax,
            "entries": [e.to_json_dict() for e in self.entries],
        }


def _max_residual(est: PmfEstimate, ref: PmfVector, mask: np.ndarray) -> tuple[float, float]:
    diff = np.abs(est.probs - ref.probs)[mask]
    ses = est.se[mask]
    i = int(np.argmax(diff))
    return float(diff[i]), float(ses[i])


def convergence_study(
    model: Model,
    service: ServiceModel | None,
    eps_grid,
    t: float,
    reps: int,
    master_seed: int,
    kmax: int | None = None,
    *,
    workers: int = 1,
) -> ResidualReport:
    """Estimate pmfs along a decreasing eps grid and report how far they sit
    from the constant-rate baseline (zeroth order) and from the first-order
    corrected pmf, in max-over-k absolute error.  ``model`` and ``service``
    are any pair :class:`ExperimentSpec` accepts; where it has no correction,
    the two residuals are equal.

    The max is restricted to bins whose baseline probability is at least
    1e-4 so tail bins dominated by Monte Carlo noise are ignored; with no
    such bin up to ``kmax`` (ArgumentError), or a baseline that underflows
    to zero (SingularSystemError), it raises before the first estimate.  A count
    pmf is estimated from drawn counts, an occupancy pmf by conditional
    Poisson with the exact mean occupancy as a control variate (see
    :func:`estimate_pmf`), which needs ``reps`` of at least 3.  That control
    resolves the O(eps²) first-order residual: on the worked model with
    Erlang(2, 2) service at t = 1 and 131,072 reps, residual/eps² reads
    0.055 to 0.08 from eps 0.2 down to 0.02.  A Markov model is analyzed once.
    """
    grid = _check_eps_grid(eps_grid)
    specs = [ExperimentSpec(model, t, eps, service) for eps in grid]
    if not all(t / eps < math.inf for eps in grid):  # checked before the first estimate
        raise ArgumentError("t/eps must be finite for every entry", "eps_grid")
    if kmax is None:
        kmax = default_kmax(specs[0].baseline_mean())
    pmfs = [spec.expansion(kmax) for spec in specs]
    p0 = pmfs[0][0].probs  # the baseline, the same at every eps
    if not p0.any():  # poisson_pmf's e^-mean underflows from mean 745
        raise SingularSystemError("the Poisson baseline underflows to zero")
    mask = p0 >= MIN_BASELINE_PROB
    if not mask.any():
        raise ArgumentError(
            f"every count up to {kmax} has baseline probability below {MIN_BASELINE_PROB:g}", "kmax"
        )
    entries = []
    for i, (eps, spec, (baseline, corrected)) in enumerate(zip(grid, specs, pmfs)):
        est = estimate_pmf(
            spec, reps, master_seed, kmax, workers=workers, stream_key=(i,),
            conditional=service is not None,
        )
        r0, se0 = _max_residual(est, baseline, mask)
        r1, se1 = _max_residual(est, corrected, mask)
        entries.append(ResidualEntry(eps, r0, se0, r1, se1))
    kind = "counts" if service is None else "queue"
    return ResidualReport(grid, reps, kmax, kind, entries)
