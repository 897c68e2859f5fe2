"""Two routes to the same fast-modulated stream.

Route one simulates the modulated stream directly with intensity
rates[X(s/eps)].  Route two runs the base stream on [0, t/eps], keeps each
arrival with probability eps, and rescales time.  For a modulated base the
two constructions share one law: estimates from both lie within Monte Carlo
noise of the modulated count's exact law.  The thinning route also accepts
bases that are not conditionally Poisson, such as a gamma renewal stream.
"""

import numpy as np

from rapidpp import (
    CoxBase,
    CtmcModel,
    ExperimentSpec,
    RenewalGammaBase,
    estimate_pmf,
    poisson_pmf,
    sample_thinned_counts,
    validate_generator,
)
from rapidpp.arrivals import _cox_count_pmf

model = CtmcModel(validate_generator([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])

exact = _cox_count_pmf(model, 0.2, 1.0)  # the modulated count's pmf at eps 0.2, t 1
print("route            tv of 200,000 counts to the exact law")
for key, (route, m) in enumerate([("direct", model), ("thin-and-speed", CoxBase(model))]):
    spec = ExperimentSpec(m, 1.0, 0.2)
    est = estimate_pmf(spec, 200_000, master_seed=5, kmax=exact.size - 1, stream_key=(key,))
    print(f"{route:<16} {0.5 * np.abs(est.probs - exact).sum():.4f}")

# a renewal base thins toward the same constant-rate Poisson limit
base = RenewalGammaBase(2.0, 2.0)  # long-run rate 1
ref = poisson_pmf(1.0, 9)
rng = np.random.default_rng(0)
print("\neps     tv of thinned gamma-renewal counts to Poisson(1)")
for eps in (0.5, 0.1, 0.02):
    counts = sample_thinned_counts(base, eps, 1.0, 300_000, rng)
    emp = np.bincount(counts, minlength=10)[:10] / counts.size
    print(f"{eps:<7} {0.5 * np.abs(emp - ref.probs).sum():.4f}")
