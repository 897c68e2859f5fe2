"""Two routes to the same fast-modulated stream.

Route one draws the modulated count with intensity rates[X(s/eps)]
directly.  Route two runs the modulated base on [0, t/eps], keeps each
arrival with probability eps, and rescales time; it is built here by hand
from public calls: the environment's occupation integrals on [0, t/eps],
a Poisson base count with that mean, then a binomial thinning.  The two
constructions share one law: estimates from both lie within Monte Carlo
noise of the modulated count's exact law.  The thinning route also accepts
bases that are not conditionally Poisson, such as a gamma renewal stream,
which ``sample_thinned_counts`` draws.
"""

import numpy as np

from rapidpp import (
    CtmcModel,
    ExperimentSpec,
    GeneratorMatrix,
    RenewalGammaBase,
    estimate_pmf,
    poisson_pmf,
    sample_occupation_integrals,
    sample_thinned_counts,
)
from rapidpp.arrivals import _cox_count_pmf

model = CtmcModel(GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])
eps, t, reps = 0.2, 1.0, 200_000

exact = _cox_count_pmf(model, eps, t)  # the modulated count's pmf at eps 0.2, t 1
direct = estimate_pmf(ExperimentSpec(model, t, eps), reps, master_seed=5, kmax=exact.size - 1)

rng = np.random.default_rng(5)
occupation = sample_occupation_integrals(model, model.rates, t / eps, reps, rng)
thinned = rng.binomial(rng.poisson(occupation), eps)
thinned_pmf = np.bincount(thinned, minlength=exact.size)[: exact.size] / reps

print("route            tv of 200,000 counts to the exact law")
for route, probs in (("direct", direct.probs), ("thin-and-speed", thinned_pmf)):
    print(f"{route:<16} {0.5 * np.abs(probs - exact).sum():.4f}")

# a renewal base thins toward the same constant-rate Poisson limit
base = RenewalGammaBase(2.0, 2.0)  # long-run rate 1
ref = poisson_pmf(1.0, 9)
rng = np.random.default_rng(0)
print("\neps     tv of thinned gamma-renewal counts to Poisson(1)")
for eps in (0.5, 0.1, 0.02):
    counts = sample_thinned_counts(base, eps, 1.0, 300_000, rng)
    emp = np.bincount(counts, minlength=10)[:10] / counts.size
    print(f"{eps:<7} {0.5 * np.abs(emp - ref.probs).sum():.4f}")
