"""Monte Carlo pmf estimation with deterministic seeding, plus validation studies.

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
from scipy.special import chdtrc, gammaln, ndtri

from .arrivals import (
    BaseProcessSpec,
    CoxBase,
    PeriodicIntensity,
    PoissonBase,
    _check_eps_t,
    _poisson,
    sample_cox_counts,
    sample_periodic_counts,
    sample_thinned_counts,
)
from .errors import ArgumentError
from .expansions import (
    PmfVector,
    ServiceModel,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    default_kmax,
    mean_q0,
    poisson_pmf,
)
from .markov_env import CtmcModel, analyze, validate_generator
from .queue_sim import sample_queue_counts

__all__ = [
    "CHUNK_SIZE",
    "ExperimentSpec",
    "PmfEstimate",
    "GofResult",
    "ResidualEntry",
    "ResidualReport",
    "estimate_pmf",
    "marginal_tv_distance",
    "chi_square_gof",
    "chi_square_two_sample",
    "construction_equivalence_test",
    "convergence_study",
]

CHUNK_SIZE = 16_384
MIN_BASELINE_PROB = 1e-4
MIN_EXPECTED = 5.0
Z99 = float(ndtri(0.995))

Model = CtmcModel | PeriodicIntensity | BaseProcessSpec


@functools.lru_cache(maxsize=8)
def _analysis(model: CtmcModel):
    """``analyze(model)``, once per model, so a study over an eps grid analyzes its model
    once.  As for ``arrivals._cox_count_cdf``, ``CtmcModel`` compares by identity and its
    arrays are read-only.  ``analyze`` is looked up at call time, so a patch of
    ``harness.analyze`` sees every model's first analysis."""
    return analyze(model)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One experiment at time t; the type of ``model`` decides which.

    - ``CtmcModel``: count of the Markov-modulated stream;
    - ``PeriodicIntensity``: count of the fast periodic stream;
    - ``PoissonBase``: constant-rate count; a constant rate has no speed
      parameter, so ``eps`` is ignored (and set to 1), while every other
      model needs one: an ``eps`` of None raises ArgumentError;
    - ``RenewalGammaBase`` or ``CoxBase``: count of the base stream sped up
      by 1/eps and thinned with keep probability eps;
    - with a ``service``: infinite-server occupancy fed by the stream.  The
      model must be a ``CtmcModel`` or a ``PoissonBase``, which the spec
      wraps as a one-state chain.

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
        if isinstance(model, PoissonBase):
            object.__setattr__(self, "eps", 1.0)
            if self.service is not None:
                chain = CtmcModel(validate_generator([[0.0]]), np.array([model.rate]), 0)
                object.__setattr__(self, "model", chain)
        elif self.eps is None:
            raise ArgumentError("missing required field", "eps")
        _check_eps_t(self.eps, self.t, eps_zero=True)
        if self.service is not None and not isinstance(self.model, CtmcModel):
            raise ValueError("occupancy experiments need a CtmcModel or a PoissonBase")

    def _first_order(self):
        """(baseline mean, corrected pmf or None, its leading arguments): the one model-type
        dispatch.  A thinned ``CoxBase`` has the modulated stream's law and takes its
        correction; a constant rate needs none, and no renewal correction is implemented."""
        model = self.model.model if isinstance(self.model, CoxBase) else self.model
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
            return sample_periodic_counts(model, self.eps, self.t, size, rng)
        if isinstance(model, PoissonBase):
            return _poisson(rng, model.rate * self.t, size)
        return sample_thinned_counts(model, self.eps, self.t, size, rng)


@dataclass(frozen=True, eq=False)
class PmfEstimate:
    """Estimated pmf over 0..kmax, its per-bin standard error ``se`` and the
    99% Wald intervals p̂ ± Z99·se, clipped to [0, 1].

    ``counts`` covers every observed count (so it always sums to ``reps``);
    a conditional-Poisson estimate draws no count and has None.  The
    probability, se and interval arrays are truncated at ``kmax``.
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
            counts = np.concatenate([counts, np.zeros(kmax + 1 - counts.size, np.int64)])
        probs = counts[: kmax + 1] / reps
        return cls._wald(counts, reps, kmax, probs, np.sqrt(probs * (1.0 - probs) / reps))


def _poisson_terms(means: np.ndarray, kmax: int) -> np.ndarray:
    """Per k = 0..kmax, the sum over ``means`` of the Poisson(k; M) pmf, and the sum of
    the squared deviations of those terms from their mean: a (2, kmax + 1) array.

    Each term is exp(k·log M − M − lgamma(k + 1)), so it stays right where exp(−M)
    underflows (M above about 745).  The terms are built one k at a time, so memory is
    one row of the chunk; centring each row on its own mean keeps cancellation from
    setting a floor under the standard error.
    """
    out = np.empty((2, kmax + 1))
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
        row -= total / means.size
        row *= row
        out[:, k] = total, row.sum()
    return out


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
    empirical pmf.  With ``conditional`` (an occupancy only), each
    replication contributes the whole Poisson pmf at its conditional mean
    M_i, and p̂(k) = mean_i Poisson(k; M_i), with the sample standard error
    of that mean (Asmussen & Glynn, *Stochastic Simulation*, 2007): the
    same law, with a far smaller variance per bin.

    Chunk streams are a pure function of (master_seed, stream_key, chunk
    index), and chunk results are merged in index order, so the estimate
    does not depend on ``workers``.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if kmax is None:
        kmax = default_kmax(spec.baseline_mean())
    n_chunks = math.ceil(reps / CHUNK_SIZE)

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, reps - c * CHUNK_SIZE)
        seq = np.random.SeedSequence(master_seed, spawn_key=(*stream_key, c))
        rng = np.random.default_rng(seq)
        if conditional:
            return _poisson_terms(spec.sample_counts(size, rng, conditional=True), kmax)
        return np.bincount(spec.sample_counts(size, rng), minlength=kmax + 1)

    if workers <= 1:
        parts = [run_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    if conditional:
        # each chunk's squares are centred on its own mean; add back the
        # between-chunk part to centre them all on the overall mean
        sums, squares = np.array(parts).transpose(1, 0, 2)
        probs = sums.sum(axis=0) / reps
        sizes = np.diff(np.minimum(np.arange(n_chunks + 1) * CHUNK_SIZE, reps))[:, None]
        m2 = (squares + sizes * (sums / sizes - probs) ** 2).sum(axis=0)
        return PmfEstimate._wald(None, reps, kmax, probs, np.sqrt(m2) / reps)
    width = max(p.size for p in parts)
    merged = np.zeros(width, dtype=np.int64)
    for p in parts:
        merged[: p.size] += p
    return PmfEstimate.from_counts(merged, reps, kmax)


def marginal_tv_distance(est: PmfEstimate, ref: PmfVector) -> float:
    """Half the L1 distance between the estimate and a reference pmf on 0..kmax."""
    if est.kmax != ref.kmax:
        raise ValueError("estimate and reference must share kmax")
    return 0.5 * float(np.abs(est.probs - ref.probs).sum())


# ---------------------------------------------------------------------------
# chi-square machinery


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    p_value: float


def _counts_with_overflow(counts: np.ndarray, kmax: int) -> np.ndarray:
    out = np.zeros(kmax + 2, dtype=np.int64)
    head = min(counts.size, kmax + 1)
    out[:head] = counts[:head]
    if counts.size > kmax + 1:
        out[-1] = counts[kmax + 1:].sum()
    return out


def _pool(table: np.ndarray, size, sparse: str) -> np.ndarray:
    """Pool adjacent rows of ``table`` (one row per count, one column per
    series) until ``size(*row)`` reaches ``MIN_EXPECTED``; the remainder
    joins the last pooled row.  Needs at least two pooled rows."""
    bins = []
    acc = [0] * table.shape[1]
    for row in table.tolist():
        acc = [a + x for a, x in zip(acc, row)]
        if size(*acc) >= MIN_EXPECTED:
            bins.append(acc)
            acc = [0] * table.shape[1]
    if any(acc):
        if not bins:
            raise ValueError(f"{sparse} too little mass for the pooling rule")
        bins[-1] = [b + a for b, a in zip(bins[-1], acc)]
    if len(bins) < 2:
        raise ValueError("need at least two pooled categories")
    return np.asarray(bins, dtype=float).T


def _chi2_result(statistic: float, n_bins: int) -> GofResult:
    return GofResult(statistic, n_bins - 1, float(chdtrc(n_bins - 1, statistic)))


def chi_square_gof(counts, ref: PmfVector) -> GofResult:
    """One-sample chi-square of observed counts against a reference pmf.

    Counts beyond the reference support go into an overflow category whose
    probability is the reference truncation mass; adjacent categories are
    pooled until every expected count reaches ``MIN_EXPECTED``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    reps = int(counts.sum())
    observed = _counts_with_overflow(counts, ref.kmax)
    probs = np.concatenate([ref.probs, [max(0.0, 1.0 - ref.probs.sum())]])
    if np.any(probs < 0):
        raise ValueError("reference pmf must be nonnegative for a chi-square test")
    table = np.column_stack([observed, reps * probs])
    obs, exp = _pool(table, lambda o, e: e, "reference pmf has")
    return _chi2_result(float(np.sum((obs - exp) ** 2 / exp)), obs.size)


def chi_square_two_sample(counts_a, counts_b) -> GofResult:
    """Two-sample chi-square test that two count samples share one law."""
    a = np.asarray(counts_a, dtype=np.int64)
    b = np.asarray(counts_b, dtype=np.int64)
    width = max(a.size, b.size)
    a = np.pad(a, (0, width - a.size))
    b = np.pad(b, (0, width - b.size))
    n_a, n_b = int(a.sum()), int(b.sum())
    total = n_a + n_b
    if total == 0:
        raise ValueError("both samples are empty")
    share = min(n_a, n_b) / total
    table = np.column_stack([a, b])
    oa, ob = _pool(table, lambda x, y: share * (x + y), "samples have")
    pooled = (oa + ob) / total
    ea = n_a * pooled
    eb = n_b * pooled
    statistic = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
    return _chi2_result(statistic, oa.size)


def construction_equivalence_test(
    model: CtmcModel,
    eps: float,
    t: float,
    reps: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> GofResult:
    """Two-sample chi-square between the thin-and-speed construction and the
    directly modulated stream, both built over the same environment law.

    The two draws share no code path: the thinned count streams environment
    segments and thins a Poisson base count binomially, while the direct
    count is inverted from its exact table (:func:`sample_cox_counts`).
    """
    thin_spec = ExperimentSpec(CoxBase(model), t, eps)
    cox_spec = ExperimentSpec(model, t, eps)
    est_thin = estimate_pmf(thin_spec, reps, master_seed, workers=workers, stream_key=(1,))
    est_cox = estimate_pmf(cox_spec, reps, master_seed, workers=workers, stream_key=(2,))
    return chi_square_two_sample(est_thin.counts, est_cox.counts)


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
    model: CtmcModel,
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
    corrected pmf, in max-over-k absolute error.

    The max is restricted to bins whose baseline probability is at least
    1e-4 so tail bins dominated by Monte Carlo noise are ignored.  A count
    pmf is estimated from drawn counts, an occupancy pmf by conditional
    Poisson (see :func:`estimate_pmf`).  The model is analyzed once.
    """
    grid = [float(e) for e in eps_grid]
    if not grid or any(not 0.0 < e <= 1.0 for e in grid):
        raise ArgumentError("entries must lie in (0, 1]", "eps_grid")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ArgumentError("entries must decrease strictly", "eps_grid")
    specs = [ExperimentSpec(model, t, eps, service) for eps in grid]
    if not all(t / eps < math.inf for eps in grid):  # checked before the first estimate
        raise ArgumentError("t/eps must be finite for every entry", "eps_grid")
    if kmax is None:
        kmax = default_kmax(specs[0].baseline_mean())
    entries = []
    for i, (eps, spec) in enumerate(zip(grid, specs)):
        baseline, corrected = spec.expansion(kmax)
        mask = baseline.probs >= MIN_BASELINE_PROB
        est = estimate_pmf(
            spec, reps, master_seed, kmax, workers=workers, stream_key=(i,),
            conditional=service is not None,
        )
        r0, se0 = _max_residual(est, baseline, mask)
        r1, se1 = _max_residual(est, corrected, mask)
        entries.append(ResidualEntry(eps, r0, se0, r1, se1))
    kind = "counts" if service is None else "queue"
    return ResidualReport(grid, reps, kmax, kind, entries)
