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
no service time.  The arrival-by-arrival simulation of one path is kept as
the test suite's reference, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .arrivals import _finite_horizon, _poisson
from .expansions import ServiceModel
from .markov_env import CtmcModel, _segment_rounds as cox_segments  # bench/tracer.py patches it

__all__ = ["sample_queue_counts"]


def sample_queue_counts(
    model: CtmcModel,
    service: ServiceModel,
    eps: float,
    t: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` iid copies of the occupancy at time t.

    Streams environment segments for all replications at once.  ``left``
    holds SI(t - eps start) of each replication's current segment, so each
    round costs one SI evaluation per replication; after the walk, one
    Poisson draw per replication.  SI is monotone only to rounding, so a
    mean that sums to a hair below zero is drawn as zero.
    """
    horizon = _finite_horizon(eps, t)
    rates = model.rates
    means = np.zeros(size)
    left = np.full(size, service.survival_integral(t))
    for idx, state, _, end in cox_segments(model, horizon, size, rng):
        right = service.survival_integral(t - eps * end)
        means[idx] += rates[state] * (left[idx] - right)
        left[idx] = right
    return _poisson(rng, np.maximum(means, 0.0))
