"""Workload definitions: seeded configs and the CLI commands that run on them.

Everything here is standard library only, because the benchmark child
imports this module before its set-up timer starts and must not load numpy
or scipy early (a lazy-import change would otherwise be hidden).

A workload is a list of operations.  Each operation is one ``rapidpp`` CLI
command with a config file written into a work directory; its output is
checked by the function in :mod:`checks` for that command.
"""

from __future__ import annotations

import json
import math
import os
import random

# One worker: on a 2-vCPU VM whose host takes back CPU time (steal), two
# threads that share the GIL made single batch times vary by 25-35%
# (interquartile range over median), against 4-7% with one.
WORKERS = 1

WORKED = {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}
FOUR_STATE = {
    "type": "mmpp",
    "generator": [[-3 if i == j else 1 for j in range(4)] for i in range(4)],
    "rates": [0, 1, 2, 5],
    "initial_state": 0,
}
PERIODIC = {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]}
RENEWAL = {"type": "renewal_gamma", "shape": 2, "rate": 2}

# Replications per Monte Carlo command.  Each is a multiple of the harness
# chunk size (16,384); sized so that one batch takes 1-1.5 s on one core, and
# a run fits ten or more children, each with its own set-up.
REPS = {"cox-small-eps": 32_768, "queue-validate": 131_072, "renewal-thinned": 32_768}
TV_REPS = 200_000

WORKLOADS = {
    "cox-small-eps": "segment kernel: 4-state MMPP, eps 0.01, ~300 sojourns per path",
    "queue-validate": "validate on the queue: per-arrival service draws, 5-50 sojourns per path",
    "renewal-thinned": "thinned gamma renewal: bypasses markov_env, the memory-bound path",
    "analytic-cli": "six short commands without Monte Carlo: import and expansions dominate",
}

KNOWN_DEFECT_LARGE_MEAN = (
    "expand at lambda*t = 1000: poisson_pmf underflows and writes an all-zero pmf "
    "with truncation mass 1.0 (ROADMAP item 5)"
)


def dense_mmpp(seed: int, n: int = 200) -> dict:
    """Seeded dense irreducible MMPP.

    Off-diagonal rates are multiples of 1/64 so that every row sums to zero
    exactly in binary floating point, whatever the summation order.
    """
    rnd = random.Random(seed)
    gen = [[rnd.randint(1, 64) / 64 for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(gen):
        row[i] = 0.0
        row[i] = -sum(row)
    rates = [rnd.randint(0, 320) / 64 for _ in range(n)]
    rates[rnd.randrange(n)] = 5.0
    return {"type": "mmpp", "generator": gen, "rates": rates, "initial_state": rnd.randrange(n)}


def _op(workdir, name, command, cfg, seed=None, extra=(), mc_reps=0, known_defect=None):
    stem = name.replace(" ", "_").replace("*", "").replace("=", "")
    cfg_path = os.path.join(workdir, stem + ".json")
    out_path = os.path.join(workdir, stem + (".csv" if command in ("expand", "simulate") else ".out.json"))
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    argv = [command, "--config", cfg_path, "--out", out_path]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(extra)
    return {
        "name": name,
        "command": command,
        "argv": argv,
        "config": cfg_path,
        "out": out_path,
        "mc_reps": mc_reps,
        "known_defect": known_defect,
    }


def build(workload: str, seed: int, workdir: str, reps: int | None = None, workers: int = WORKERS):
    """Write the workload's configs into ``workdir`` and return its operations.

    ``reps`` overrides the Monte Carlo replication count (tests use small
    values); ``seed`` is passed to every seeded command as ``--seed`` and
    also seeds the generated 200-state model.
    """
    os.makedirs(workdir, exist_ok=True)
    if workload == "cox-small-eps":
        cfg = {"model": FOUR_STATE, "t": 1, "eps": 0.01,
               "reps": reps or REPS[workload], "workers": workers}
        return [_op(workdir, "simulate cox", "simulate", cfg, seed, mc_reps=cfg["reps"])]
    if workload == "queue-validate":
        cfg = {"model": WORKED, "kind": "queue", "service": {"type": "erlang", "shape": 2, "rate": 2},
               "t": 1, "eps_grid": [0.2, 0.1, 0.05, 0.02],
               "reps": reps or REPS[workload], "workers": workers}
        return [_op(workdir, "validate queue", "validate", cfg, seed,
                    mc_reps=cfg["reps"] * len(cfg["eps_grid"]))]
    if workload == "renewal-thinned":
        cfg = {"model": RENEWAL, "t": 1, "eps": 0.002,
               "reps": reps or REPS[workload], "workers": workers}
        return [_op(workdir, "simulate renewal", "simulate", cfg, seed, mc_reps=cfg["reps"])]
    if workload == "analytic-cli":
        tv_reps = reps or TV_REPS
        return [
            _op(workdir, "analyze dense200", "analyze",
                {"model": dense_mmpp(seed), "service": {"type": "erlang", "shape": 3, "rate": 2}, "t": 1}),
            _op(workdir, "expand worked", "expand", {"model": WORKED, "t": 1, "eps": 0.05}),
            _op(workdir, "expand periodic", "expand", {"model": PERIODIC, "t": 1, "eps": 0.05}),
            _op(workdir, "expand queue uniform", "expand",
                {"model": WORKED, "kind": "queue", "service": {"type": "uniform", "a": 0.5, "b": 2},
                 "t": 1, "eps": 0.05}),
            _op(workdir, "expand worked t=1000", "expand", {"model": WORKED, "t": 1000, "eps": 0.05},
                known_defect=KNOWN_DEFECT_LARGE_MEAN),
            _op(workdir, "tv-limit four", "tv-limit", {"model": FOUR_STATE, "t": 5}, seed,
                extra=["--reps", str(tv_reps)], mc_reps=tv_reps),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# work computed from the inputs (not counted by the program)


def stationary(q) -> list[float]:
    """Stationary law of a small generator by Gaussian elimination."""
    n = len(q)
    # pi Q = 0 with the last equation replaced by sum(pi) = 1, transposed
    a = [[q[j][i] for j in range(n)] + [0.0] for i in range(n)]
    a[-1] = [1.0] * n + [1.0]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def poisson_quantile(mu: float, tail: float) -> int:
    """Smallest k with P(Poisson(mu) <= k) >= 1 - tail."""
    k, term, cdf = 0, math.exp(-mu), math.exp(-mu)
    while cdf < 1.0 - tail:
        k += 1
        term *= mu / k
        cdf += term
    return k


def computed_work(op: dict, chunk_size: int) -> dict:
    """Per-operation work derived from its config, for the traced run.

    ``segments`` is the expected number of environment sojourns,
    reps * (1 + (t/eps) * sum_i pi_i q_i); ``arrivals`` the expected number
    of materialised queue arrivals, reps * lambda* * t;
    ``renewal_block_mb`` the gamma block one chunk allocates; and
    ``tv_limit_terms`` the state-count compositions ``tv_limit_exact``
    enumerates.
    """
    with open(op["config"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    model = cfg["model"]
    t = float(cfg.get("t", 1.0))
    work = {}
    if model["type"] == "mmpp" and op["command"] in ("simulate", "validate"):
        q = model["generator"]
        pi = stationary(q)
        exit_mean = sum(p * -q[i][i] for i, p in enumerate(pi))
        lam = sum(p * f for p, f in zip(pi, model["rates"]))
        grid = cfg["eps_grid"] if "eps_grid" in cfg else [cfg["eps"]]
        reps = cfg["reps"]
        work["segments"] = sum(reps * (1.0 + (t / e) * exit_mean) for e in grid)
        if cfg.get("kind") == "queue":
            work["arrivals"] = len(grid) * reps * lam * t
    if model["type"] == "renewal_gamma":
        expected = (t / cfg["eps"]) * model["rate"] / model["shape"]
        block = max(8, int(expected + 6.0 * math.sqrt(expected + 1.0)))
        work["renewal_block_mb"] = 8.0 * min(chunk_size, cfg["reps"]) * block / 2**20
    if op["command"] == "tv-limit":
        pi = stationary(model["generator"])
        lam = sum(p * f for p, f in zip(pi, model["rates"]))
        kmax = poisson_quantile(lam * t, cfg.get("truncation_mass", 1e-10))
        n = len(pi)
        work["tv_limit_terms"] = math.comb(kmax + n, n)
    return work
