"""Infinite-server occupancy under a rapidly modulated arrival stream.

With exponential services the occupancy at time t is approximately Poisson
with the classic transient mean; the first-order correction adjusts for the
modulation through g and the filtered variance constant eta^2.
"""

import numpy as np

from rapidpp import (
    CtmcModel,
    ExperimentSpec,
    ExponentialService,
    GeneratorMatrix,
    analyze,
    corrected_queue_pmf,
    estimate_pmf,
    eta_squared,
    mean_q0,
    poisson_pmf,
)

model = CtmcModel(GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])
service = ExponentialService(1.0)
t, eps = 1.0, 0.2

res = analyze(model)
m = mean_q0(res.lambda_star, service, t)
eta2 = eta_squared(res.sigma2, service, t)
print(f"baseline mean occupancy E Q0({t}) = {m:.6f}")
print(f"queue variance constant eta^2    = {eta2:.6f}")

baseline = poisson_pmf(m, kmax=7)
corrected = corrected_queue_pmf(
    res.lambda_star, float(res.g[model.initial_state]), res.sigma2, service, eps, t, kmax=7
)
spec = ExperimentSpec(model, t, eps, service)
est = estimate_pmf(spec, 300_000, master_seed=3, kmax=7)

print("\n k   empirical   poisson    corrected")
for k in range(8):
    print(f"{k:>2}   {est.probs[k]:.5f}     {baseline.probs[k]:.5f}    {corrected.probs[k]:.5f}")
print(f"\nmax residual vs poisson:   {np.abs(est.probs - baseline.probs).max():.5f}")
print(f"max residual vs corrected: {np.abs(est.probs - corrected.probs).max():.5f}")
