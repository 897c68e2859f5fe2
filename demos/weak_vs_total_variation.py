"""Marginal convergence without path-level total-variation convergence.

As the fluctuation speed grows (eps down), the time-t count distribution
approaches the constant-rate Poisson law.  The path laws do not: the total
variation distance between the modulated stream and the constant-rate
stream on [0, t] converges to a strictly positive limit, computed here both
exactly and by Monte Carlo.
"""

import numpy as np

from rapidpp import (
    CtmcModel,
    ExperimentSpec,
    GeneratorMatrix,
    estimate_pmf,
    poisson_pmf,
    tv_limit_exact,
    tv_limit_mc,
)

model = CtmcModel(GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])
ref = poisson_pmf(1.0)

print("eps     marginal tv to Poisson(1)")
for i, eps in enumerate((0.5, 0.2, 0.1, 0.05)):
    spec = ExperimentSpec(model, 1.0, eps)
    est = estimate_pmf(spec, 400_000, master_seed=11, kmax=ref.kmax, stream_key=(i,))
    print(f"{eps:<7} {0.5 * np.abs(est.probs - ref.probs).sum():.4f}")

exact = tv_limit_exact(model, 1.0)
est, se = tv_limit_mc(model, 1.0, 500_000, np.random.default_rng(2))
print(f"\npath-level tv limit: exact {exact:.6f}, Monte Carlo {est:.6f} +/- {se:.6f}")
print("the marginal distance heads to zero; the path distance does not")
