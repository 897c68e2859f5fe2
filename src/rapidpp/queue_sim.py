"""Infinite-server queue fed by a Markov-modulated stream with iid service times.

Every arrival enters service immediately; the number in system at a query
time t counts arrivals whose service has not yet finished.  The system
starts empty at time zero.  Given the environment path, the arrivals form a
Poisson process with intensity f(X(u/eps)), and each one is still in service
at t with probability S(t - u), S the service survival function.  By the
marking theorem the occupancy is then exactly Poisson with mean
integral_0^t f(X(u/eps)) S(t - u) du.  On a sojourn in state x over
environment time [a, b] that mean gains f[x] (SI(t - eps a) - SI(t - eps b)),
SI the service's ``survival_integral``, so the kernel draws no arrival and
no service time.  With ``conditional=True`` the kernel returns those means
instead of drawing, for the conditional-Poisson pmf estimate of
``harness.estimate_pmf``, which uses their exact expectation from
:func:`_occupancy_mean` as a control variate.  The arrival-by-arrival
simulation of one path is kept as the test suite's reference, in
``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from ._numerics import expm
from .arrivals import _finite_horizon, _poisson
from .expansions import ServiceModel
from .markov_env import CtmcModel, _segment_sums, analyze
from .markov_env import _segment_rounds as cox_segments  # bench/tracer.py patches it

__all__ = ["sample_queue_counts"]

# Largest block (states plus service phases) whose exponential _occupancy_mean forms;
# one expm of a 512-square block takes about 0.14 s (one BLAS thread, 2 vCPU).
MAX_OCCUPANCY_BLOCK = 512


def sample_queue_counts(
    model: CtmcModel,
    service: ServiceModel,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
    *,
    conditional: bool = False,
) -> np.ndarray:
    """Draw ``size`` iid copies of the occupancy at time t, one Poisson draw per replication.

    The means are the :func:`markov_env._segment_sums` of the level SI(t - eps s).  SI is
    monotone only to rounding, so a mean that sums to a hair below zero is taken as zero.
    With ``conditional`` the means themselves are returned, and nothing is drawn.
    """
    si = service.survival_integral
    segments = cox_segments(model, _finite_horizon(eps, t), size, rng)
    means = np.maximum(_segment_sums(segments, model.rates, lambda s: si(t - eps * s), size), 0.0)
    return means if conditional else _poisson(rng, means)


def _occupancy_mean(model: CtmcModel, service: ServiceModel, eps: float, t: float):
    """E[M] = integral_0^t e_x0 exp(Q u/eps) f S(t - u) du, the mean of the conditional
    Poisson means, or None when states plus ``service.phases`` exceed
    ``MAX_OCCUPANCY_BLOCK`` or Q/eps or the result is not finite.

    As pi exp(Q u/eps) = pi, E[M] is lambda_star SI(t) plus the same integral from the
    row e_x0 - pi.  On a service piece S(s) = alpha exp(T (s - lo)) c, the part of that
    integral over s = t - u in [lo, min(hi, t)], of width h, is r X c: r = (e_x0 - pi)
    exp(Q u0/eps) with u0 = t - min(hi, t), and X the top right block of
    exp(h [[Q/eps, f alpha], [0, T]]) (Van Loan, IEEE TAC 23, 1978).  Its top left block
    exp(Q h/eps) carries r to the next piece, so the pieces are taken in decreasing s,
    one expm each; a piece with no phases only carries r.  The squarings in expm build
    up an error along the exponential's eigenvalue 1, the same in each of the top n rows
    and growing with h/eps (1e-12 at eps 1e-3); r sums to zero, so it cancels.
    """
    n = model.n
    if n + service.phases > MAX_OCCUPANCY_BLOCK:  # before any k-square phase matrix exists
        return None
    pieces = [p for p in service.survival_pieces() if p[0] < min(p[1], t)]
    with np.errstate(over="ignore"):
        q = model.generator.q / eps
    if not np.all(np.isfinite(q)):  # Q/eps past the largest double
        return None
    res = analyze(model)
    row = np.eye(1, n, model.initial_state)[0] - res.pi
    total = res.lambda_star * float(service.survival_integral(t))
    for lo, hi, alpha, phases, c in reversed(pieces):
        block = np.zeros((n + alpha.size,) * 2)
        block[:n, :n] = q
        block[:n, n:] = np.outer(model.rates, alpha)
        block[n:, n:] = phases
        e = expm((min(hi, t) - lo) * block)
        total += row @ e[:n, n:] @ c
        row = row @ e[:n, :n]
    return float(total) if np.isfinite(total) else None
