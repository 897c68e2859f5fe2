"""Goodness-of-fit tests that the package's samplers and estimates are checked with.

The package estimates pmfs; this module tests them.  It holds the marginal
total-variation distance of an estimate to a reference pmf, one- and
two-sample chi-square tests on count histograms, and the test that the
thin-and-speed construction and the directly modulated stream share one
law.  Sparse categories are pooled until every expected count reaches
``MIN_EXPECTED``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from rapidpp import (
    CtmcModel,
    ExperimentSpec,
    PmfEstimate,
    PmfVector,
    estimate_pmf,
    sample_occupation_integrals,
)
from rapidpp.arrivals import _finite_horizon

MIN_EXPECTED = 5.0


def marginal_tv_distance(est: PmfEstimate, ref: PmfVector) -> float:
    """Half the L1 distance between the estimate and a reference pmf on 0..kmax."""
    if est.kmax != ref.kmax:
        raise ValueError("estimate and reference must share kmax")
    return 0.5 * float(np.abs(est.probs - ref.probs).sum())


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
    pooled until every expected count reaches ``MIN_EXPECTED``.  The
    ``counts`` of a :class:`PmfEstimate` end in an overflow bin at kmax + 1,
    so an estimate must share the reference's kmax.
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
    """Two-sample chi-square test that two count samples share one law.

    Both must count on one support: two estimates' ``counts`` must share kmax.
    """
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


@dataclass(frozen=True, eq=False)
class _ThinnedModulated:
    """The modulated base run on [0, horizon] and thinned with keep probability eps, as a
    spec that :func:`estimate_pmf` draws from.  Given the environment, the base count is
    Poisson with the occupation integral of the rates as its mean; each point is then kept
    independently.  Its baseline is the directly modulated experiment's."""

    direct: ExperimentSpec
    horizon: float

    def baseline_mean(self) -> float:
        return self.direct.baseline_mean()

    def sample_counts(self, size: int, rng: np.random.Generator) -> np.ndarray:
        model = self.direct.model
        occupation = sample_occupation_integrals(model, model.rates, self.horizon, size, rng)
        return rng.binomial(rng.poisson(occupation), self.direct.eps)


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
    cox_spec = ExperimentSpec(model, t, eps)
    thin_spec = _ThinnedModulated(cox_spec, _finite_horizon(eps, t))
    est_thin = estimate_pmf(thin_spec, reps, master_seed, workers=workers, stream_key=(1,))
    est_cox = estimate_pmf(cox_spec, reps, master_seed, workers=workers, stream_key=(2,))
    return chi_square_two_sample(est_thin.counts, est_cox.counts)
