"""Infinite-server queue fed by an arrival stream with iid service times.

Every arrival enters service immediately; the number in system at a query
time t counts arrivals whose service has not yet finished.  The system
starts empty at time zero.
"""

from __future__ import annotations

import numpy as np

from .arrivals import ArrivalStream, _check_eps_t, cox_segments, simulate_cox
from .errors import LengthMismatchError
from .expansions import ServiceModel
from .markov_env import CtmcModel

__all__ = [
    "number_in_system",
    "simulate_queue_at_t",
    "sample_queue_counts",
]


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
    services = service.sample(stream.count, rng)
    return number_in_system(stream, services, t)


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
    still receives an explicit service draw, so this is the same discrete
    event logic as :func:`simulate_queue_at_t`, vectorized.
    """
    _check_eps_t(eps, t)
    occupancy = np.zeros(size, dtype=np.int64)
    rates = model.rates
    for idx, state, start, end in cox_segments(model, t / eps, size, rng):
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
