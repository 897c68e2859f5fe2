"""Repeat the benchmark over seeds and report how steady each metric is.

Usage, from the root of a checkout::

    python3 bench/prove.py --runs 10 [--trace-runs 1] [--write FILE]

After one discarded warm-up run, runs ``run.py`` once per seed (1..runs)
for each workload, one run at a time, and prints for every end-to-end
metric the median, the quartiles and the spread (third minus first
quartile, as a share of the median) next to the metric's bound from
BENCHMARK.json.  ``--trace-runs`` adds traced runs
for the per-layer table; ``--write`` stores the whole summary as JSON (the
committed baseline in ``bench/`` was made this way).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    machine = next(json.loads(line[len("machine "):]) for line in proc.stdout.splitlines()
                   if line.startswith("machine "))
    return result, machine


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--write")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    steady = True
    seeds = range(1, args.runs + 1)
    # one discarded run first, so that the first measured run does not start
    # on an idle machine
    run_once(spec, names[0], 0, 0)
    for workload in names:
        runs, machine = [], None
        for seed in seeds:
            result, machine = run_once(spec, workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"machine": machine, "seeds": list(seeds),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound, values=values)
            entry["end_to_end"][name] = stats
            ok = stats["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:<12} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {bound}) {'ok' if ok else 'WIDE'}", flush=True)
        if args.trace_runs:
            layer_runs = [run_once(spec, workload, seed, 1)[0]
                          for seed in range(1, args.trace_runs + 1)]
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in layer_runs),
                       "unit": layer_runs[0]["metrics"][name]["unit"]}
                for name in layer_runs[0]["metrics"]
            }
        summary["workloads"][workload] = entry
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
