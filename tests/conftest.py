import numpy as np
import pytest

from rapidpp import CtmcModel, GeneratorMatrix


def make_two_state(a=1.0, b=1.0, rates=(0.0, 2.0), initial_state=0):
    """Two-state model with generator [[-a, a], [b, -b]]."""
    gen = GeneratorMatrix([[-a, a], [b, -b]])
    return CtmcModel(gen, np.array(rates, dtype=float), initial_state)


def random_irreducible_model(rng, max_states=20, max_rate=10.0):
    """Random sparse irreducible model; a full cycle guarantees connectivity."""
    n = int(rng.integers(2, max_states + 1))
    q = rng.uniform(0.0, max_rate, (n, n))
    q = np.where(rng.random((n, n)) < 0.6, q, 0.0)
    for i in range(n):
        j = (i + 1) % n
        if q[i, j] == 0.0:
            q[i, j] = rng.uniform(0.1, max_rate)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    rates = rng.uniform(0.0, max_rate, n)
    if not np.any(rates > 0):
        rates[0] = 1.0
    return CtmcModel(GeneratorMatrix(q), rates, int(rng.integers(0, n)))


@pytest.fixture
def two_state_model():
    """The standard worked example: a = b = 1, rates (0, 2), started in state 0."""
    return make_two_state()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
