"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
runtime budget and prints a single pass line (run with ``pytest -v -s`` to
see them as they complete).
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from rapidpp import (
    ErlangService,
    ExperimentSpec,
    ExponentialService,
    PeriodicIntensity,
    PoissonBase,
    RenewalGammaBase,
    UniformService,
    analyze,
    convergence_study,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    estimate_pmf,
    eta_squared,
    poisson_pmf,
    tv_limit_exact,
    tv_limit_mc,
)
from rapidpp.cli import main

from conftest import make_two_state, random_irreducible_model
from gof import construction_equivalence_test, marginal_tv_distance
from reference import hk_derivatives, simulate_base, thin_and_speed
from test_markov_env import two_state_closed_form

WORKED_MODEL = make_two_state()  # a = b = 1, rates (0, 2), started in state 0
TV_CLOSED_FORM = 1 - math.exp(-0.5)


def _report(name, elapsed, budget, detail):
    print(f"{name} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


def test_A1_analysis_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        model = random_irreducible_model(rng, max_states=20, max_rate=10.0)
        res = analyze(model)
        q = model.generator.q
        assert np.max(np.abs(res.pi @ q)) < 1e-10
        assert np.max(np.abs(q @ res.g + res.f_centered)) < 1e-10
        assert abs(float(res.pi @ res.g)) < 1e-10
    for _ in range(50):
        a, b = rng.uniform(0.1, 10.0, 2)
        f1, f2 = rng.uniform(0.0, 10.0, 2)
        res = analyze(make_two_state(a, b, (f1, f2)))
        _, _, _, sigma2 = two_state_closed_form(a, b, f1, f2)
        assert abs(res.sigma2 - sigma2) < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("A1", elapsed, 10, "200 random chains + 50 closed-form checks")


def _random_periodic(rng):
    n_pieces = int(rng.integers(1, 5))
    cuts = np.sort(rng.uniform(0.05, 0.95, n_pieces - 1)) if n_pieces > 1 else np.array([])
    breakpoints = np.concatenate(([0.0], cuts))
    if np.any(np.diff(np.append(breakpoints, 1.0)) < 0.05):
        return _random_periodic(rng)
    values = rng.uniform(0.0, 4.0, n_pieces)
    if not np.any(values > 0):
        values[0] = 1.0
    return PeriodicIntensity(breakpoints, values)


def test_A2_expansion_identities():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    services = [
        ExponentialService(0.8),
        ErlangService(2, 2.0),
        UniformService(0.0, 2.0),
        UniformService(0.4, 1.6),
    ]
    for _ in range(50):
        mu = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        t = rng.uniform(0.5, 4.0)
        eps = rng.uniform(0.0, 1.0)
        g_x0 = rng.uniform(-2.0, 2.0)
        sigma2 = rng.uniform(0.0, 2.0)

        pmf = corrected_count_pmf(mu / t, g_x0, sigma2, eps, t)
        assert abs(pmf.probs.sum() - 1.0) <= 1e-9 + pmf.truncation_mass

        service = services[rng.integers(len(services))]
        lam = mu / service.survival_integral(t)
        qpmf = corrected_queue_pmf(lam, g_x0, sigma2, service, eps, t)
        assert abs(qpmf.probs.sum() - 1.0) <= 1e-9 + qpmf.truncation_mass

        intensity = _random_periodic(rng)
        scale = mu / (intensity.average_rate * t)
        intensity = PeriodicIntensity(intensity.breakpoints, intensity.values * scale)
        ppmf = corrected_count_pmf_periodic(intensity, eps if eps > 0 else 0.3, t)
        assert abs(ppmf.probs.sum() - 1.0) <= 1e-9 + ppmf.truncation_mass

    hand = corrected_count_pmf(1.0, -0.5, 1.0, 0.1, 1.0)
    assert abs(hand.probs[0] - 1.1 * math.exp(-1)) < 1e-12
    half_on = PeriodicIntensity([0.0, 0.5], [2.0, 0.0])
    hand_p = corrected_count_pmf_periodic(half_on, 0.4, 1.0)
    assert abs(hand_p.probs[0] - 0.8 * math.exp(-1)) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("A2", elapsed, 5, "150 normalization checks + hand values to 1e-12")


def test_A3_tv_limit():
    start = time.monotonic()
    exact = tv_limit_exact(WORKED_MODEL, 1.0)
    assert abs(exact - TV_CLOSED_FORM) < 1e-9
    est, se = tv_limit_mc(WORKED_MODEL, 1.0, 1_000_000, np.random.default_rng(303))
    assert abs(est - TV_CLOSED_FORM) < 3 * se
    constant = make_two_state(rates=(2.0, 2.0))
    assert tv_limit_exact(constant, 1.0) == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        "A3", elapsed, 60, f"exact {exact:.9f} vs closed form, mc {est:.5f} +/- {se:.5f}"
    )


def test_A4_count_refinement():
    start = time.monotonic()
    report = convergence_study(
        WORKED_MODEL, None, [0.4, 0.2, 0.1, 0.05], 1.0, 1_000_000, 12345
    )
    for entry in report.entries:
        slack = 3.0 * (entry.zeroth_se + entry.first_se)
        assert entry.first <= entry.zeroth + slack
    for prev, nxt in zip(report.entries, report.entries[1:]):
        slack = 3.0 * (prev.ratio_se + nxt.ratio_se)
        assert nxt.ratio <= prev.ratio + slack
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ratios = ", ".join(f"{e.ratio:.4f}" for e in report.entries)
    _report("A4", elapsed, 300, f"first order dominates at every eps; ratios {ratios}")


def test_A5_queue_refinement():
    start = time.monotonic()
    eta2 = eta_squared(1.0, ExponentialService(1.0), 1.0)
    assert abs(eta2 - (0.5 - 0.5 * math.exp(-2))) < 1e-9
    report = convergence_study(
        WORKED_MODEL,
        ExponentialService(1.0),
        [0.4, 0.2, 0.1, 0.05],
        1.0,
        1_000_000,
        54321,
    )
    for entry in report.entries:
        slack = 3.0 * (entry.zeroth_se + entry.first_se)
        assert entry.first <= entry.zeroth + slack
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report("A5", elapsed, 600, "eta2 matches closed form; queue expansion dominates")


def test_A6_weak_convergence_without_path_tv_convergence():
    start = time.monotonic()
    ref = poisson_pmf(1.0)
    tvs = []
    for i, eps in enumerate((0.4, 0.2, 0.1, 0.05)):
        spec = ExperimentSpec(WORKED_MODEL, 1.0, eps)
        est = estimate_pmf(spec, 1_000_000, 606, kmax=ref.kmax, stream_key=(i,))
        tvs.append(marginal_tv_distance(est, ref))
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    path_tv = tv_limit_exact(WORKED_MODEL, 1.0)
    assert path_tv >= 0.39
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    seq = ", ".join(f"{v:.4f}" for v in tvs)
    _report("A6", elapsed, 300, f"marginal tv falls ({seq}) while path tv = {path_tv:.4f}")


def test_A7_construction_equivalence():
    start = time.monotonic()
    res = construction_equivalence_test(WORKED_MODEL, 0.2, 1.0, 1_000_000, 707)
    assert res.p_value > 0.01
    for base in (PoissonBase(2.0), RenewalGammaBase(2.0, 2.0), WORKED_MODEL):
        thinned = thin_and_speed(base, 1.0, 3.0, np.random.default_rng(17))
        direct = simulate_base(base, 3.0, np.random.default_rng(17))
        np.testing.assert_array_equal(thinned.times, direct.times)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("A7", elapsed, 120, f"chi-square p = {res.p_value:.3f}; eps=1 thinning is identity")


def test_A8_derivative_formulas():
    start = time.monotonic()
    mp.mp.dps = 30
    ys = np.logspace(-1, 2, 10) * 1.0137
    ks = [0, 1, 2, 3, 5, 8, 13, 21, 34, 50]
    worst = 0.0
    for k in ks:
        for y in ys:
            h, h1, h2, h3 = hk_derivatives(k, float(y))
            # grid stays away from derivative zeros: weights >= 1e-3 of h
            assert min(abs(h1), abs(h2), abs(h3)) > 1e-3 * h
            fn = lambda yy: mp.e ** (-yy) * yy**k / mp.factorial(k)
            for order, val in ((1, h1), (2, h2), (3, h3)):
                ref = float(mp.diff(fn, float(y), order))
                rel = abs(val - ref) / abs(ref)
                worst = max(worst, rel)
                assert rel < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("A8", elapsed, 1, f"100-point grid, worst relative error {worst:.2e}")


MMPP_DOC = {
    "type": "mmpp",
    "generator": [[-1, 1], [1, -1]],
    "rates": [0, 2],
    "initial_state": 0,
}


def test_A9_reproducibility(tmp_path):
    start = time.monotonic()
    sim = {"model": MMPP_DOC, "eps": 0.2, "t": 1.0, "reps": 50_000, "master_seed": 99}
    val = {
        "model": MMPP_DOC,
        "eps_grid": [0.4, 0.2],
        "t": 1.0,
        "reps": 30_000,
        "master_seed": 99,
    }
    outputs = {}
    for name, doc, command in (("sim", sim, "simulate"), ("val", val, "validate")):
        for workers in (1, 8):
            cfg_path = tmp_path / f"{name}_{workers}.json"
            cfg_path.write_text(json.dumps(dict(doc, workers=workers)))
            out_path = tmp_path / f"{name}_{workers}.out"
            assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == 0
            outputs[(name, workers)] = out_path.read_bytes()
        assert outputs[(name, 1)] == outputs[(name, 8)]
        # repeated run with the same seed is also byte-identical
        rerun = tmp_path / f"{name}_rerun.out"
        assert main(
            [command, "--config", str(tmp_path / f"{name}_1.json"), "--out", str(rerun)]
        ) == 0
        assert rerun.read_bytes() == outputs[(name, 1)]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("A9", elapsed, 120, "simulate and validate byte-identical at 1 and 8 workers")


def test_A9_renewal_workers(tmp_path):
    # three chunks of the thinned renewal count, at 1 and 2 workers
    start = time.monotonic()
    doc = {
        "model": {"type": "renewal_gamma", "shape": 0.5, "rate": 1.0},
        "eps": 0.01,
        "t": 1.0,
        "reps": 40_000,
        "master_seed": 98,
    }
    outputs = []
    for workers in (1, 2):
        cfg_path = tmp_path / f"renewal_{workers}.json"
        cfg_path.write_text(json.dumps(dict(doc, workers=workers)))
        out_path = tmp_path / f"renewal_{workers}.out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("A9", elapsed, 120, "renewal simulate byte-identical at 1 and 2 workers")
