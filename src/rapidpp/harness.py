"""Monte Carlo pmf estimation with deterministic seeding, plus validation studies.

Replications are processed in fixed-size chunks; chunk c draws its random
stream from ``SeedSequence(master_seed, spawn_key=(..., c))``, and chunk
results are merged by exact integer addition in chunk order.  Outputs are
therefore byte-identical for any worker count and any execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .arrivals import (
    BaseProcessSpec,
    CoxBase,
    PeriodicIntensity,
    PoissonBase,
    sample_cox_counts,
    sample_periodic_counts,
    sample_thinned_counts,
)
from .expansions import (
    ExpansionInputs,
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
Z99 = float(stats.norm.ppf(0.995))

Model = CtmcModel | PeriodicIntensity | BaseProcessSpec


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One experiment at time t; the type of ``model`` decides which.

    - ``CtmcModel``: count of the Markov-modulated stream;
    - ``PeriodicIntensity``: count of the fast periodic stream;
    - ``PoissonBase``: constant-rate count; a constant rate has no speed
      parameter, so ``eps`` is ignored (and set to 1);
    - ``RenewalGammaBase`` or ``CoxBase``: count of the base stream sped up
      by 1/eps and thinned with keep probability eps;
    - with a ``service``: infinite-server occupancy fed by the stream.  The
      model must be a ``CtmcModel`` or a ``PoissonBase``, which the spec
      wraps as a one-state chain.

    :meth:`baseline_mean` and :meth:`expansion` give the constant-rate
    Poisson approximation and its first-order eps-correction, and
    :meth:`sample_counts` draws the exact law.  At eps 0 the corrected pmf
    equals the baseline; sampling needs eps > 0.
    """

    model: Model
    t: float
    eps: float = 1.0
    service: ServiceModel | None = None

    def __post_init__(self):
        model = self.model
        if not isinstance(model, Model):
            raise ValueError(f"unsupported model {model!r}")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if isinstance(model, PoissonBase):
            object.__setattr__(self, "eps", 1.0)
            if self.service is not None:
                chain = CtmcModel(validate_generator([[0.0]]), np.array([model.rate]), 0)
                object.__setattr__(self, "model", chain)
        elif not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.service is not None and not isinstance(self.model, CtmcModel):
            raise ValueError("occupancy experiments need a CtmcModel or a PoissonBase")

    def baseline_mean(self) -> float:
        """Mean of the constant-rate approximation of this experiment."""
        model = self.model
        if self.service is not None:
            return mean_q0(analyze(model).lambda_star, self.service, self.t)
        if isinstance(model, CoxBase):
            model = model.model
        if isinstance(model, CtmcModel):
            rate = analyze(model).lambda_star
        elif isinstance(model, PeriodicIntensity):
            rate = model.average_rate
        elif isinstance(model, PoissonBase):
            rate = model.rate
        else:
            rate = model.long_run_rate
        return rate * self.t

    def expansion(self, kmax: int | None = None) -> tuple[PmfVector, PmfVector]:
        """The baseline Poisson pmf and the first-order corrected pmf at eps.

        Both cover 0..kmax (by default the baseline's :func:`default_kmax`).
        A thinned ``CoxBase`` has the law of the modulated stream and takes
        its correction; constant-rate and renewal streams carry none, so
        their corrected pmf is the baseline.
        """
        model = self.model
        if self.service is not None:
            analysis = analyze(model)
            lam = analysis.lambda_star
            base = poisson_pmf(mean_q0(lam, self.service, self.t), kmax)
            g_x0 = float(analysis.g[model.initial_state])
            corrected = corrected_queue_pmf(
                lam, g_x0, analysis.sigma2, self.service, self.eps, self.t, base.kmax
            )
            return base, corrected
        if isinstance(model, CoxBase):
            model = model.model
        if isinstance(model, CtmcModel):
            inputs = ExpansionInputs.from_model(model, self.eps, self.t)
            base = poisson_pmf(inputs.lambda_star * self.t, kmax)
            return base, corrected_count_pmf(inputs, base.kmax)
        base = poisson_pmf(self.baseline_mean(), kmax)
        if isinstance(model, PeriodicIntensity):
            return base, corrected_count_pmf_periodic(model, self.eps, self.t, base.kmax)
        return base, base

    # Defined on this class and looked up by name: bench/tracer.py patches
    # ExperimentSpec.sample_counts and the sampler names bound in this module.
    def sample_counts(self, size: int, rng: np.random.Generator) -> np.ndarray:
        model = self.model
        if self.service is not None:
            return sample_queue_counts(model, self.service, self.eps, self.t, size, rng)
        if isinstance(model, CtmcModel):
            return sample_cox_counts(model, self.eps, self.t, size, rng)
        if isinstance(model, PeriodicIntensity):
            return sample_periodic_counts(model, self.eps, self.t, size, rng)
        if isinstance(model, PoissonBase):
            return rng.poisson(model.rate * self.t, size)
        return sample_thinned_counts(model, self.eps, self.t, size, rng)


@dataclass(frozen=True, eq=False)
class PmfEstimate:
    """Empirical pmf over 0..kmax with 99% Wald intervals.

    ``counts`` covers every observed count (so it always sums to ``reps``);
    the probability and interval arrays are truncated at ``kmax``.
    """

    counts: np.ndarray
    reps: int
    kmax: int
    probs: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray

    @classmethod
    def from_counts(cls, counts, reps: int, kmax: int) -> "PmfEstimate":
        counts = np.asarray(counts, dtype=np.int64)
        if counts.sum() != reps:
            raise ValueError("counts must sum to reps")
        if counts.size < kmax + 1:
            counts = np.concatenate([counts, np.zeros(kmax + 1 - counts.size, np.int64)])
        probs = counts[: kmax + 1] / reps
        se = np.sqrt(probs * (1.0 - probs) / reps)
        ci_low = np.clip(probs - Z99 * se, 0.0, 1.0)
        ci_high = np.clip(probs + Z99 * se, 0.0, 1.0)
        return cls(counts, reps, kmax, probs, ci_low, ci_high)

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(self.probs * (1.0 - self.probs) / self.reps)


def estimate_pmf(
    spec: ExperimentSpec,
    reps: int,
    master_seed: int,
    kmax: int | None = None,
    *,
    workers: int = 1,
    stream_key: tuple[int, ...] = (),
) -> PmfEstimate:
    """Estimate the count pmf from ``reps`` independent replications.

    Chunk streams are a pure function of (master_seed, stream_key, chunk
    index), and chunk results are merged as exact integers in index order,
    so the estimate does not depend on ``workers``.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if kmax is None:
        kmax = default_kmax(spec.baseline_mean())
    n_chunks = math.ceil(reps / CHUNK_SIZE)

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, reps - c * CHUNK_SIZE)
        seq = np.random.SeedSequence(master_seed, spawn_key=(*stream_key, c))
        counts = spec.sample_counts(size, np.random.default_rng(seq))
        return np.bincount(counts, minlength=kmax + 1)

    if workers <= 1:
        parts = [run_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
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


def chi_square_gof(counts, ref: PmfVector, min_expected: float = 5.0) -> GofResult:
    """One-sample chi-square of observed counts against a reference pmf.

    Counts beyond the reference support go into an overflow category whose
    probability is the reference truncation mass; adjacent categories are
    pooled until every expected count reaches ``min_expected``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    reps = int(counts.sum())
    observed = _counts_with_overflow(counts, ref.kmax)
    probs = np.concatenate([ref.probs, [max(0.0, 1.0 - ref.probs.sum())]])
    if np.any(probs < 0):
        raise ValueError("reference pmf must be nonnegative for a chi-square test")
    expected = reps * probs
    obs_bins, exp_bins = [], []
    o_acc = 0
    e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += int(o)
        e_acc += float(e)
        if e_acc >= min_expected:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = 0
            e_acc = 0.0
    if o_acc or e_acc:
        if not obs_bins:
            raise ValueError("reference pmf has too little mass for the pooling rule")
        obs_bins[-1] += o_acc
        exp_bins[-1] += e_acc
    if len(obs_bins) < 2:
        raise ValueError("need at least two pooled categories")
    obs_arr = np.asarray(obs_bins, dtype=float)
    exp_arr = np.asarray(exp_bins, dtype=float)
    statistic = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(obs_bins) - 1
    return GofResult(statistic, dof, float(stats.chi2.sf(statistic, dof)))


def chi_square_two_sample(counts_a, counts_b, min_expected: float = 5.0) -> GofResult:
    """Two-sample chi-square test that two count samples share one law."""
    a = np.asarray(counts_a, dtype=np.int64)
    b = np.asarray(counts_b, dtype=np.int64)
    width = max(a.size, b.size)
    a = np.pad(a, (0, width - a.size))
    b = np.pad(b, (0, width - b.size))
    n_a, n_b = int(a.sum()), int(b.sum())
    total = n_a + n_b
    share = min(n_a, n_b) / total
    bins_a, bins_b = [], []
    acc_a = acc_b = 0
    for oa, ob in zip(a, b):
        acc_a += int(oa)
        acc_b += int(ob)
        if share * (acc_a + acc_b) >= min_expected:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if not bins_a:
            raise ValueError("samples have too little mass for the pooling rule")
        bins_a[-1] += acc_a
        bins_b[-1] += acc_b
    if len(bins_a) < 2:
        raise ValueError("need at least two pooled categories")
    oa = np.asarray(bins_a, dtype=float)
    ob = np.asarray(bins_b, dtype=float)
    pooled = (oa + ob) / total
    ea = n_a * pooled
    eb = n_b * pooled
    statistic = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
    dof = len(bins_a) - 1
    return GofResult(statistic, dof, float(stats.chi2.sf(statistic, dof)))


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
    directly modulated stream, both built over the same environment law."""
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
    ses = est.standard_errors()[mask]
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
    1e-4 so tail bins dominated by Monte Carlo noise are ignored.
    """
    grid = [float(e) for e in eps_grid]
    if not grid or any(not 0.0 < e <= 1.0 for e in grid):
        raise ValueError("eps grid entries must lie in (0, 1]")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    specs = [ExperimentSpec(model, t, eps, service) for eps in grid]
    if kmax is None:
        kmax = default_kmax(specs[0].baseline_mean())
    entries = []
    for i, (eps, spec) in enumerate(zip(grid, specs)):
        baseline, corrected = spec.expansion(kmax)
        mask = baseline.probs >= MIN_BASELINE_PROB
        est = estimate_pmf(
            spec, reps, master_seed, kmax, workers=workers, stream_key=(i,)
        )
        r0, se0 = _max_residual(est, baseline, mask)
        r1, se1 = _max_residual(est, corrected, mask)
        entries.append(ResidualEntry(eps, r0, se0, r1, se1))
    kind = "counts" if service is None else "queue"
    return ResidualReport(grid, reps, kmax, kind, entries)
