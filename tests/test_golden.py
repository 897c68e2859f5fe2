"""Golden CLI outputs: one config per model type and command, hashed.

The sha256 of every output file is committed in ``golden_sha256.json``.
A refactor must leave each of them byte-identical.  To record the hashes of
new cases (only on a commit whose outputs are known good)::

    PYTHONPATH=src python tests/test_golden.py

This adds a hash for every case that has none and leaves recorded hashes
as they are.  If a recorded hash no longer matches, it exits nonzero, names
the cases and writes nothing.  To re-record cases whose output changed on
purpose, name them::

    PYTHONPATH=src python tests/test_golden.py --rerecord validate-queue

Only the named cases are rewritten; an unknown name is refused, and any
other recorded hash that moved still fails the run.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import pytest

from rapidpp.cli import main

HASH_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sha256.json")

MMPP = {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}
PERIODIC = {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]}
CONSTANT = {"type": "constant", "rate": 1.5}
RENEWAL = {"type": "renewal_gamma", "shape": 2, "rate": 2}
FOUR_STATE = {
    "type": "mmpp",
    "generator": [[-3, 1, 1, 1], [1, -3, 1, 1], [1, 1, -3, 1], [1, 1, 1, -3]],
    "rates": [0, 1, 2, 5],
}
# Five states pad the segment kernel's jump table to width 8.
FIVE_STATE = {
    "type": "mmpp",
    "generator": [
        [-2, 1, 0, 0.5, 0.5],
        [0.5, -1.5, 1, 0, 0],
        [0, 0.25, -0.75, 0.5, 0],
        [1, 0, 1, -3, 1],
        [0.5, 0.5, 0.5, 0.5, -2],
    ],
    "rates": [0, 3, 1, 0.5, 2],
    "initial_state": 2,
}
SERVICES = {
    "exponential": {"type": "exponential", "rate": 1.0},
    "erlang": {"type": "erlang", "shape": 2, "rate": 2.0},
    "uniform": {"type": "uniform", "a": 0.25, "b": 1.5},
}
REPS = 8_192


def _cases() -> dict:
    cases = {
        "expand-mmpp": ("expand", {"model": MMPP, "t": 1.0, "eps": 0.1}, []),
        "expand-periodic": ("expand", {"model": PERIODIC, "t": 1.3, "eps": 0.4}, []),
        "expand-constant": ("expand", {"model": CONSTANT, "t": 2.0, "eps": 0.2}, []),
        "expand-renewal": ("expand", {"model": RENEWAL, "t": 1.0, "eps": 0.25}, []),
        "simulate-mmpp": (
            "simulate",
            {"model": MMPP, "t": 1.0, "eps": 0.25, "reps": REPS, "master_seed": 5},
            [],
        ),
        "simulate-mmpp-workers2": (
            "simulate",
            {"model": MMPP, "t": 1.0, "eps": 0.25, "reps": REPS, "master_seed": 5, "workers": 2},
            [],
        ),
        "simulate-periodic": (
            "simulate",
            {"model": PERIODIC, "t": 1.3, "eps": 0.4, "reps": REPS, "master_seed": 6},
            [],
        ),
        "simulate-constant-no-eps": (
            "simulate", {"model": CONSTANT, "t": 2.0, "reps": REPS, "master_seed": 7}, []
        ),
        "simulate-constant-eps": (
            "simulate",
            {"model": CONSTANT, "t": 2.0, "eps": 0.2, "reps": REPS, "master_seed": 7},
            [],
        ),
        "simulate-renewal": (
            "simulate",
            {"model": RENEWAL, "t": 1.0, "eps": 0.25, "reps": REPS, "master_seed": 8},
            [],
        ),
        "validate-counts": (
            "validate",
            {"model": MMPP, "t": 1.0, "eps_grid": [0.5, 0.25], "reps": REPS, "master_seed": 9},
            [],
        ),
        "validate-queue": (
            "validate",
            {
                "model": MMPP,
                "service": SERVICES["erlang"],
                "kind": "queue",
                "t": 1.0,
                "eps_grid": [0.5, 0.25],
                "reps": REPS,
                "master_seed": 10,
            },
            [],
        ),
        "analyze-service-tv": (
            "analyze",
            {"model": MMPP, "service": SERVICES["uniform"], "t": 1.0, "tv_limit": True},
            [],
        ),
        "tv-limit-reps": ("tv-limit", {"model": MMPP, "t": 1.0}, ["--reps", "4096", "--seed", "11"]),
        "tv-limit-four": ("tv-limit", {"model": FOUR_STATE, "t": 3.0}, []),
        # Poisson truncation near 110 counts: beyond what a composition enumeration reaches.
        "tv-limit-worked-long": ("tv-limit", {"model": MMPP, "t": 60.0}, []),
        # One full 16,384-rep chunk, its count drawn from the 30-row exact table.
        "simulate-mmpp-five-small-eps": (
            "simulate",
            {"model": FIVE_STATE, "t": 1.0, "eps": 0.01, "reps": 16_384, "master_seed": 14},
            [],
        ),
        # A queue walk on five states: the jump table is padded to width 8, so the
        # next-state search takes three halvings.
        "simulate-queue-five-state": (
            "simulate",
            {"model": FIVE_STATE, "service": SERVICES["erlang"], "kind": "queue", "t": 1.0,
             "eps": 0.05, "reps": 16_384, "master_seed": 18},
            [],
        ),
        # Horizon 500: the renewal CDF table spans a few hundred counts.
        "simulate-renewal-small-eps": (
            "simulate",
            {"model": RENEWAL, "t": 1.0, "eps": 0.002, "reps": REPS, "master_seed": 15},
            [],
        ),
        # Shape 0.5: the table covers R = 0, so it starts at n = 1.
        "simulate-renewal-fractional-shape": (
            "simulate",
            {"model": {"type": "renewal_gamma", "shape": 0.5, "rate": 1}, "t": 1.0, "eps": 0.02,
             "reps": REPS, "master_seed": 16},
            [],
        ),
        # Horizon 1e6: summing gamma draws would take about 8,192 * 1e6 of them.
        "simulate-renewal-tiny-eps": (
            "simulate",
            {"model": RENEWAL, "t": 1.0, "eps": 1e-6, "reps": REPS, "master_seed": 17},
            [],
        ),
    }
    for sname, service in SERVICES.items():
        for mname, model in (("mmpp", MMPP), ("constant", CONSTANT)):
            base = {"model": model, "service": service, "kind": "queue", "t": 1.2, "eps": 0.2}
            cases[f"expand-queue-{mname}-{sname}"] = ("expand", base, [])
            sim = dict(base, reps=REPS, master_seed=12)
            if mname == "constant" and sname == "exponential":
                del sim["eps"]
            cases[f"simulate-queue-{mname}-{sname}"] = ("simulate", sim, [])
    cases["simulate-queue-kind-flag"] = (
        "simulate",
        {"model": MMPP, "service": SERVICES["exponential"], "t": 1.0, "eps": 0.3,
         "reps": REPS, "master_seed": 13},
        ["--kind", "queue"],
    )
    return cases


CASES = _cases()


def run_case(name: str, workdir: str) -> str:
    """Run one golden case in ``workdir``; return the sha256 of its output."""
    command, doc, extra = CASES[name]
    cfg = os.path.join(workdir, f"{name}.json")
    out = os.path.join(workdir, f"{name}.out")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code = main([command, "--config", cfg, "--out", out, *extra])
    assert code == 0, f"{name} exited {code}"
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _recorded() -> dict:
    with open(HASH_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_has_a_recorded_hash():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_hash(name, tmp_path):
    assert run_case(name, str(tmp_path)) == _recorded()[name]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the golden output hashes.")
    parser.add_argument("--rerecord", nargs="+", default=[], metavar="NAME",
                        help="cases whose recorded hash is replaced")
    rerecord = set(parser.parse_args().rerecord)
    unknown = sorted(rerecord - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    hashes = _recorded()
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {name: run_case(name, tmp) for name in sorted(CASES)}
    changed = sorted(
        name for name in hashes
        if name in fresh and name not in rerecord and fresh[name] != hashes[name]
    )
    if changed:
        sys.exit(f"recorded hashes no longer match: {', '.join(changed)}")
    added = sorted(set(fresh) - set(hashes))
    hashes.update({name: fresh[name] for name in [*added, *rerecord]})
    with open(HASH_FILE, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"added {len(added)} hashes to {HASH_FILE}: {', '.join(added) or 'none'}\n")
    if rerecord:
        sys.stdout.write(f"re-recorded: {', '.join(sorted(rerecord))}\n")
