"""The matrix exponential and the Poisson sums behind every special function, on numpy
and ``math`` alone, so that importing rapidpp loads no scipy.

- :func:`expm`: scaling and squaring with a Padé approximant of degree 3 to 13
  (Higham, 2005; Al-Mohy and Higham, 2009).
- :func:`log_factorial` and :func:`log_factorials`: cephes' ``lgam(k + 1)``, the
  function behind ``scipy.special.gammaln``, bit for bit at integer k.
- :func:`poisson_window`: the Poisson CDF and survival function over a window of
  counts, each a direct sum of the pmf on its own side.
- :func:`poisson_weights`: the first few Poisson weights at any mean, without
  forming e^-y, which underflows from y = 745.
"""

from __future__ import annotations

import math

import numpy as np

# Padé numerator coefficients b_0..b_m of exp, and the largest 1-norm (for degree 13,
# the largest eta of _squarings) at which the degree-m approximant is accurate to
# double precision without scaling.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
# 1 / |c_27|, the leading coefficient of degree 13's backward error series.
_ERROR_13 = 113250775606021113483283660800000000.0


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max(initial=0.0))


def _squarings(a: np.ndarray, a4: np.ndarray, a6: np.ndarray) -> int:
    """The squarings s of degree 13 (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl.
    31, 2009, Algorithm 5.1): eta = min(max(d6, d8), max(d8, d10)), d_k = ||A^k||^(1/k),
    which stays far below ||A|| for a nonnormal A (0 for a nilpotent one), scaled into
    theta_13; then as many more as keep the backward error bound, from ||A|^27||, within
    unit roundoff."""
    d8 = _norm1(a4 @ a4) ** (1 / 8)
    eta = min(max(_norm1(a6) ** (1 / 6), d8), max(d8, _norm1(a4 @ a6) ** 0.1))
    s = max(0, math.ceil(math.log2(eta / _THETA[13]))) if eta > 0 else 0
    v, log2_power, abs_a = np.ones(len(a)), 0.0, np.abs(a)
    for _ in range(27):  # the column sums of |A|^27, kept in range by a running scale
        v = v @ abs_a
        top = v.max()
        if top == 0.0:
            return s
        v /= top
        log2_power += math.log2(top)
    log2_alpha = log2_power - 26 * s - math.log2(_ERROR_13) - math.log2(_norm1(a))
    return s + max(0, math.ceil((log2_alpha + 53) / 26))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square float matrix; a non-finite entry gives a matrix of NaN.

    The lowest degree m in 3..9 whose bound covers the 1-norm is used (Higham, SIAM
    J. Matrix Anal. Appl. 26, 2005); past degree 9's, degree 13 with a scaling by 2**-s
    (see :func:`_squarings`), the approximant then squared s times.  Each squaring can
    double an error along an eigenvalue of modulus one, so a result needing s squarings
    is good to about 2**s ulps there.  The even powers are stacked, so that each sum of
    them is one matrix-vector product.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    norm = _norm1(a)
    if not norm < math.inf:
        return np.full(a.shape, math.nan)
    degree = next((m for m in (3, 5, 7, 9) if norm <= _THETA[m]), 13)
    b = np.array(_PADE[degree])
    powers = np.empty(((degree // 2 if degree < 13 else 3) + 1, n, n))  # I, A^2, A^4, ...
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    squarings = _squarings(a, powers[2], powers[3]) if degree == 13 else 0
    if squarings:
        a = np.ldexp(a, -squarings)
        for j in (1, 2, 3):
            powers[j] = np.ldexp(powers[j], -2 * j * squarings)
    flat = powers.reshape(len(powers), n * n)
    if degree < 13:
        odd = (b[1::2] @ flat).reshape(n, n)  # sum_j b_{2j+1} A^{2j}
        v = (b[0::2] @ flat).reshape(n, n)
    else:  # b13 A^12 + ... as A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + ... + b1 I
        a6 = powers[3]
        odd = a6 @ (b[9::2] @ flat[1:]).reshape(n, n) + (b[1:9:2] @ flat).reshape(n, n)
        v = a6 @ (b[8::2] @ flat[1:]).reshape(n, n) + (b[0:8:2] @ flat).reshape(n, n)
    u = np.matmul(a, odd, out=powers[0])  # the powers are spent: reuse their memory
    r = np.linalg.solve(np.subtract(v, u, out=odd), np.add(v, u, out=v))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge norm leaves double range
        for _ in range(squarings):
            r = r @ r
    return r


# cephes lgam's Stirling branch: log sqrt(2 pi) and the coefficients of its series
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _stirling(x, log_x):
    """cephes lgam(x) for x >= 13, elementwise, from log(x) given."""
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    big = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
           + 0.0833333333333333333333) / x
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * p + c
    return np.where(x > 1e8, q, q + np.where(x >= 1000.0, big, series / x))


def log_factorial(k: int) -> float:
    """log(k!) for an integer k >= 0, as cephes ``lgam(k + 1)`` forms it.

    Below 12 that is the log of the exact product; from there on Stirling's series.
    The log is ``math.log``, the C library's, as cephes calls it: numpy's own log
    differs from it in the last bit on a few integers in 10^5.
    """
    if k < 12:
        return math.log(math.factorial(k))
    x = float(k + 1)
    return float(_stirling(x, math.log(x)))


def log_factorials(n: int) -> np.ndarray:
    """[log_factorial(k) for k in range(n)], with the Stirling branch vectorized."""
    head = [log_factorial(k) for k in range(min(n, 12))]
    x = np.arange(13.0, n + 1.0)
    logs = np.fromiter(map(math.log, range(13, n + 1)), float, len(x))
    return np.concatenate((head, _stirling(x, logs)))


# Poisson(mean) mass beyond this many sd, plus the margin, of the mean is below 1e-40
# of the total: the windows of poisson_window drop it.
WINDOW_SD = 20.0
WINDOW_MARGIN = 110.0


def poisson_window(mean: float, lo: int | None = None, hi: int | None = None):
    """(start, cdf, sf): cdf[i] = P(N <= start + i) and sf[i] = P(N > start + i),
    N ~ Poisson(mean), for finite mean >= 0, over counts that cover
    mean ± (WINDOW_SD sd + WINDOW_MARGIN) and [lo, hi], if given.

    The pmf is built relative to its mode by the ratios mean/k, so nothing under- or
    overflows that matters, and normalized by its sum.  sf sums the pmf from above;
    cdf sums it from below while it is the smaller, and is 1.0 - sf, rounded as a
    double, past that, like a CDF that a library computes as one minus its upper
    tail.  Each sum is accurate to a few ulps times its distance from the mode.
    Mass outside the window is dropped.
    """
    spread = WINDOW_SD * math.sqrt(mean) + WINDOW_MARGIN
    mode = math.floor(mean)
    start, stop = max(0, math.floor(mean - spread)), math.ceil(mean + spread)
    if lo is not None:
        start = min(start, lo)
    if hi is not None:
        stop = max(stop, hi)
    up = np.cumprod(mean / np.arange(mode + 1.0, stop + 1.0))
    down = np.cumprod(np.arange(float(mode), start, -1.0) / mean)[::-1]
    pmf = np.concatenate((down, [1.0], up))
    pmf /= pmf.sum()
    sf = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
    below = np.cumsum(pmf)
    return start, np.where(sf < below, 1.0 - sf, below), sf


def poisson_quantile(q: float, mean: float) -> int:
    """The Poisson(mean) quantile at 0 < q < 1 as scipy's ``poisson._ppf`` forms it,
    with an exact inverse: K, the smallest count whose upper tail is at most 1 - q
    (for q > 1/2; else whose CDF reaches q), or K - 1 if the CDF of
    :func:`poisson_window` already reaches q there.  As the rounded CDF stays flat
    within 2**-53 of 1, that can be above the smallest count whose rounded CDF reaches q.
    """
    start, cdf, sf = poisson_window(mean)
    k = int(np.argmax(sf <= 1.0 - q if q > 0.5 else cdf >= q))
    return start + (k - 1 if k and cdf[k - 1] >= q else k)


def poisson_weights(x, n: int) -> list:
    """[w_0..w_{n-1}], the Poisson(x) weights w_j = e^-x x^j / j!, elementwise in x >= 0,
    formed as h u_j with u_j = h x^j / j! and h = e^(-x/2), so that they stay exact to
    a few ulps past x = 745, where e^-x underflows.  For a small n: the cost grows with n."""
    x = np.minimum(x, np.finfo(float).max)  # h is 0 there, and 0 * x must stay 0
    h = np.exp(-0.5 * x)
    u, weights = h, []
    for j in range(n):
        if j:
            u = u * x / j
        weights.append(u * h)
    return weights
