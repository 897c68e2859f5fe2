"""First-order count correction versus simulation.

For a rapidly modulated arrival stream, the count over [0, t] is close to
Poisson(lambda* t); the first-order correction in the speed parameter eps
captures most of what is left.  This script estimates the count pmf at a
few eps values and tabulates both residuals.
"""

import numpy as np

from rapidpp import (
    CtmcModel,
    ExperimentSpec,
    estimate_pmf,
    poisson_pmf,
    validate_generator,
)

model = CtmcModel(validate_generator([[-1.0, 1.0], [1.0, -1.0]]), [0.0, 2.0])
t = 1.0
baseline = poisson_pmf(1.0, kmax=8)

print("eps    max|emp - poisson|   max|emp - corrected|")
for i, eps in enumerate((0.4, 0.2, 0.1, 0.05)):
    spec = ExperimentSpec(model, t, eps)
    est = estimate_pmf(spec, 300_000, master_seed=7, kmax=8, stream_key=(i,))
    _, corrected = spec.expansion(kmax=8)
    r0 = np.abs(est.probs - baseline.probs).max()
    r1 = np.abs(est.probs - corrected.probs).max()
    print(f"{eps:<6} {r0:<20.5f} {r1:.5f}")

print("\nThe corrected column shrinks roughly like eps^2; the baseline like eps.")
