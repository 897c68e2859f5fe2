"""Fast periodic intensity: on for half a period, off for the other half.

Arrivals only ever land in the on-phase, yet once the period is short the
count over [0, t] is nearly Poisson with the period-average rate.  The
first-order correction involves only the fractional final period.
"""

import numpy as np

from rapidpp import (
    ExperimentSpec,
    PeriodicIntensity,
    corrected_count_pmf_periodic,
    periodic_correction_integral,
    poisson_pmf,
)

intensity = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])
print("period-average rate:", intensity.average_rate)

# with t/eps = 2.5 periods, half an on-piece is left over
eps, t = 0.4, 1.0
integral = periodic_correction_integral(intensity, eps, t)
print(f"\nfractional-period correction integral at eps={eps}: {integral}")

reps = 200_000
rng = np.random.default_rng(4)
counts = ExperimentSpec(intensity, t, eps).sample_counts(reps, rng)
empirical = np.bincount(counts, minlength=7) / reps

baseline = poisson_pmf(intensity.average_rate * t, kmax=6)
corrected = corrected_count_pmf_periodic(intensity, eps, t, kmax=6)
print(f"\nsimulated pmf from {reps} reps next to the expansions")
print(" k   simulated  poisson    corrected")
for k in range(7):
    print(f"{k:>2}   {empirical[k]:.5f}    {baseline.probs[k]:.5f}    {corrected.probs[k]:.5f}")
