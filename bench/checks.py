"""Correctness checks on the CLI's output files.

Each check takes an operation (see :mod:`workloads`) and returns
``(ok, detail, half_width)``.  ``half_width`` is the 99% confidence
half-width the output reports for Monte Carlo commands, or ``None``.
The checks read the output files only; they do not call rapidpp.
"""

from __future__ import annotations

import json
import math

Z99 = 2.576
CHI2_MIN_P = 1e-3
SE_SLACK = 4.5
TRUNCATION_MAX = 1e-10
SUM_TOL = 1e-9


def read_csv(path: str) -> tuple[dict, float, list[str], list[list[float]]]:
    """Parse a CLI CSV document into (config, truncation_mass, header, rows)."""
    config, truncation, header, rows = None, None, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                config = json.loads(line[len("# config: "):])
            elif line.startswith("# truncation_mass: "):
                truncation = float(line[len("# truncation_mass: "):])
            elif line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    if config is None or truncation is None or header is None or not rows:
        raise ValueError(f"{path}: incomplete CSV document")
    return config, truncation, header, rows


def chi_square_p(observed: list[int], probs: list[float], reps: int, min_expected: float = 5.0):
    """Chi-square p-value of counts on 0..kmax plus an overflow bin.

    Adjacent bins are pooled until each expected count reaches
    ``min_expected``; the overflow bin's probability is the reference's
    missing mass.
    """
    from scipy.stats import chi2

    overflow_obs = reps - sum(observed)
    overflow_p = max(0.0, 1.0 - sum(probs))
    obs_bins, exp_bins = [], []
    o_acc, e_acc = 0, 0.0
    for o, p in zip(observed + [overflow_obs], probs + [overflow_p]):
        o_acc += o
        e_acc += reps * p
        if e_acc >= min_expected:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc, e_acc = 0, 0.0
    if obs_bins:
        obs_bins[-1] += o_acc
        exp_bins[-1] += e_acc
    if len(obs_bins) < 2:
        raise ValueError("need at least two pooled categories")
    stat = sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins))
    return float(chi2.sf(stat, len(obs_bins) - 1)), stat, len(obs_bins) - 1


def check_simulate(op):
    config, _, header, rows = read_csv(op["out"])
    col = {name: i for i, name in enumerate(header)}
    reps = config["reps"]
    observed = [round(r[col["p_hat"]] * reps) for r in rows]
    corrected = [r[col["p_corrected"]] for r in rows]
    p, stat, dof = chi_square_p(observed, corrected, reps)
    half = max((r[col["ci_high"]] - r[col["ci_low"]]) / 2.0 for r in rows)
    return p > CHI2_MIN_P, f"chi2 {stat:.2f} on {dof} dof, p = {p:.3g}", half


def check_validate(op):
    with open(op["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["entries"]
    grid = doc["config"]["eps_grid"]
    problems = []
    if [e["eps"] for e in entries] != grid:
        problems.append(f"entry eps {[e['eps'] for e in entries]} != grid {grid}")
    for e in entries:
        slack = e["zeroth_order_residual"] + SE_SLACK * e["first_order_se"]
        if not e["first_order_residual"] <= slack:
            problems.append(
                f"eps {e['eps']}: first {e['first_order_residual']:.3g} > zeroth + "
                f"{SE_SLACK} se = {slack:.3g}"
            )
    half = Z99 * max(e["first_order_se"] for e in entries)
    return not problems, "; ".join(problems) or f"{len(entries)} eps entries", half


def check_expand(op):
    _, truncation, header, rows = read_csv(op["out"])
    problems = []
    if not truncation <= TRUNCATION_MAX:
        problems.append(f"truncation_mass {truncation!r} > {TRUNCATION_MAX}")
    for j, name in enumerate(header[1:], start=1):
        total = math.fsum(r[j] for r in rows)
        if not abs(total - 1.0) <= SUM_TOL + truncation:
            problems.append(f"sum of {name} = {total!r}")
    return not problems, "; ".join(problems) or f"{len(rows)} bins", None


def check_tv_limit(op):
    with open(op["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    exact = doc["tv_limit_exact"]
    mc = doc["tv_limit_mc"]
    gap = abs(exact - mc["estimate"])
    ok = gap <= SE_SLACK * mc["se"]
    # No half-width: the answer here is the exact value, and the Monte Carlo
    # cross-check's sample se is heavy-tailed (it varies about 18x across
    # seeds), so it cannot project a time to a confidence-interval width.
    return ok, f"|exact - mc| = {gap:.3g}, se = {mc['se']:.3g}", None


def check_analyze(op):
    with open(op["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    pi_sum = math.fsum(doc["pi"])
    if not abs(pi_sum - 1.0) <= 1e-10:
        problems.append(f"pi sums to {pi_sum!r}")
    eta2 = doc.get("eta2")
    if not (isinstance(eta2, (int, float)) and math.isfinite(eta2) and eta2 >= 0.0):
        problems.append(f"eta2 = {eta2!r}")
    return not problems, "; ".join(problems) or f"eta2 = {eta2:.6g}", None


CHECKS = {
    "simulate": check_simulate,
    "validate": check_validate,
    "expand": check_expand,
    "tv-limit": check_tv_limit,
    "analyze": check_analyze,
}


def run_check(op, rc: int):
    """Check one operation's exit code and output; never raises."""
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        return CHECKS[op["command"]](op)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", None
