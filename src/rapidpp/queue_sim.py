"""Infinite-server queue fed by a Markov-modulated stream with iid service times.

Every arrival enters service immediately; the number in system at a query
time t counts arrivals whose service has not yet finished.  The system
starts empty at time zero.  The kernel draws many iid copies of that
occupancy at once from streamed environment segments; the arrival-by-arrival
simulation of one path is kept as the test suite's reference, in
``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .arrivals import _finite_horizon, cox_segments
from .expansions import ServiceModel
from .markov_env import CtmcModel

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

    Streams environment segments for all replications at once; every arrival
    still receives an explicit service draw, so this is the discrete event
    logic of the per-path reference, vectorized.
    """
    horizon = _finite_horizon(eps, t)
    occupancy = np.zeros(size, dtype=np.int64)
    rates = model.rates
    for idx, state, start, end in cox_segments(model, horizon, size, rng):
        seg_len = end - start
        arrivals = rng.poisson(rates[state] * eps * seg_len)
        total = int(arrivals.sum())
        if total == 0:
            continue
        rep = np.repeat(idx, arrivals)
        pos = eps * (np.repeat(start, arrivals) + rng.random(total) * np.repeat(seg_len, arrivals))
        still_in = pos + service.sample(total, rng) > t
        occupancy += np.bincount(rep[still_in], minlength=size)
    return occupancy
