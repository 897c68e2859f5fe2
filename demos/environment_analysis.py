"""Analyze a two-state Markov environment.

The environment alternates between a silent state (rate 0) and a busy state
(rate 2) with unit switching rates.  The long-run rate is 1, and the
analysis produces everything the first-order count correction needs: the
stationary law, the accumulated-deviation vector g, and the time-average
variance constant sigma2.
"""

import numpy as np

from rapidpp import CtmcModel, analyze, sample_occupation_integrals, validate_generator

model = CtmcModel(validate_generator([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])
res = analyze(model)

print("stationary distribution:", res.pi)
print("long-run rate lambda*:  ", res.lambda_star)
print("centered rates:         ", res.f_centered)
print("deviation vector g:     ", res.g)
print("variance constant s2:   ", res.sigma2)

# g[x] is the expected total deviation of the rate from lambda* when the
# chain starts in x; check it by averaging over simulated trajectories.
rng = np.random.default_rng(1)
horizon = 25.0  # ~50 relaxation times for this chain
draws = sample_occupation_integrals(model, res.f_centered, horizon, 20_000, rng)
se = draws.std(ddof=1) / np.sqrt(draws.size)
print(f"\nMonte Carlo check of g[0]: {draws.mean():+.4f} +/- {se:.4f}  (exact {res.g[0]:+.4f})")
