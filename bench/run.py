"""rapidpp benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cox-small-eps --seed 1 --seconds 20 --trace 0

Each batch of the workload's CLI commands runs in a fresh child interpreter
(``child.py``) with BLAS/OpenMP threads pinned to one, one child at a time,
at least five, and no more once the next would end after ``--seconds``.  Medians over the children are reported.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` children alternate between
untraced and traced batches and the per-layer metrics are reported instead,
including the tracing overhead.  A full record (machine, every child,
spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_CHILDREN = 5
MAX_CHILDREN = 60
CHILD_TIMEOUT_S = 150
CI_TARGET = 1e-3
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "sec_to_ci": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
LAYER_UNITS = {
    "setup.interpreter_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_rapidpp_s": "s",
    "config.parse_s": "s",
    "cli.self_s": "s",
    "markov_env.analyze_s": "s",
    "markov_env.analyze_calls": "count",
    "markov_env.occupation_s": "s",
    "markov_env.segments": "count",
    "markov_env.ns_per_segment": "ns",
    "arrivals.cox_counts_self_s": "s",
    "arrivals.thinned_counts_s": "s",
    "arrivals.renewal_block_mb": "MiB",
    "arrivals.segments_s": "s",
    "queue_sim.self_s": "s",
    "queue_sim.arrivals": "count",
    "queue_sim.ns_per_arrival": "ns",
    "harness.estimate_pmf_s": "s",
    "harness.self_s": "s",
    "harness.chunks": "count",
    "harness.chunk_s.p50": "s",
    "harness.chunk_s.p90": "s",
    "harness.parallelism": "ratio",
    "harness.convergence_study_s": "s",
    "expansions.tv_limit_exact_s": "s",
    "expansions.tv_limit_terms": "count",
    "expansions.tv_limit_mc_s": "s",
    "expansions.eta_squared_s": "s",
    "expansions.corrected_pmf_s": "s",
    "expansions.poisson_pmf_s": "s",
    "expansions.default_kmax_s": "s",
    "run.cpu_s": "s",
    "run.wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_iqr_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def git_commit(root: str) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def import_split(stderr: str) -> dict:
    """Self import time of numpy, scipy and rapidpp from ``-X importtime``."""
    totals = {"numpy": 0.0, "scipy": 0.0, "rapidpp": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = float(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".", 1)[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return totals


def run_child(ops_path: str, trace: bool, importtime: bool, spans_path: str) -> dict:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH, "child.py"), ops_path, repr(time.time()),
            "1" if trace else "0", spans_path]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(lines[-1])
    if importtime:
        rec["import_split"] = import_split(proc.stderr)
    return rec


def median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(children: list[dict], ops: list[dict]) -> dict:
    """End-to-end metrics: medians over children, one batch per child."""
    mc_reps = sum(op["mc_reps"] for op in ops)
    sec_to_ci, ok_frac = [], []
    for ch in children:
        halves = [r["half_width"] for r in ch["results"] if r["half_width"] is not None]
        # a workload whose answers are all exact reaches any width in wall_s
        scale = (max(halves) / CI_TARGET) ** 2 if halves else 1.0
        sec_to_ci.append(ch["wall_s"] * scale)
        ok_frac.append(sum(r["ok"] for r in ch["results"]) / len(ch["results"]))
    return {
        "setup_s": median([c["setup_s"] for c in children]),
        "wall_s": median([c["wall_s"] for c in children]),
        "reps_per_s": median([mc_reps / c["wall_s"] for c in children]),
        "sec_to_ci": median(sec_to_ci),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in children]),
        "ok_frac": median(ok_frac),
    }


def overhead(children: list[dict]) -> tuple[float, float]:
    """Median and interquartile range of the tracing overhead.

    Children alternate untraced, traced; each traced child's batch wall
    time is compared with that of the untraced child just before it, so
    slow drift of the host cancels within a pair.
    """
    diffs = [b["wall_s"] - a["wall_s"] for a, b in zip(children[0::2], children[1::2])]
    if len(diffs) < 2:
        return median(diffs), 0.0
    q1, q2, q3 = statistics.quantiles(diffs, n=4, method="inclusive")
    return q2, q3 - q1


def layer_summary(children: list[dict]) -> dict:
    """Per-layer metrics: medians over traced children, plus set-up split
    and tracing overhead (paired traced minus untraced batch wall time)."""
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = median([c["layers"][key] for c in traced])
    for lib in ("numpy", "scipy", "rapidpp"):
        layers[f"setup.import_{lib}_s"] = median([c["import_split"][lib] for c in children])
    layers["setup.interpreter_s"] = median([c["interpreter_s"] for c in children])
    layers["config.parse_s"] = median([c["parse_s"] for c in children])
    layers["run.cpu_s"] = median([c["cpu_s"] for c in plain])
    layers["run.wall_s"] = median([c["wall_s"] for c in plain])
    layers["trace.wall_s"] = median([c["wall_s"] for c in traced])
    layers["trace.overhead_s"], layers["trace.overhead_iqr_s"] = overhead(children)
    return {k: layers[k] for k in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rapidpp", "cli.py")):
        print(f"bench: no rapidpp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops, "src": SRC, "trace_id": tag}, fh)
        # byte-compile once, so no child pays for it inside its set-up timer
        compileall.compile_dir(os.path.join(SRC, "rapidpp"), quiet=1)

        trace = bool(args.trace)
        children, spans = [], []
        started = time.monotonic()
        child_s = 0.0
        while len(children) < MAX_CHILDREN and (
            len(children) < MIN_CHILDREN
            or time.monotonic() - started + child_s < args.seconds
        ):
            traced = trace and len(children) % 2 == 1
            spans_path = os.path.join(workdir, f"spans-{len(children)}.json")
            t_child = time.monotonic()
            rec = run_child(ops_path, traced, trace, spans_path)
            child_s = time.monotonic() - t_child
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    spans.append({"child": len(children), "spans": json.load(fh)})
            children.append(rec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = children[0]
    machine = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": first["versions"]["python"],
        "numpy": first["versions"]["numpy"],
        "scipy": first["versions"]["scipy"],
        "git_commit": git_commit(ROOT),
        "thread_env": first["env"],
        "workers": workloads.WORKERS,
        "seed": args.seed,
        "workload": args.workload,
        "children": len(children),
    }
    attempted = sum(len(c["results"]) for c in children)
    known = sum(1 for c in children for r in c["results"] if not r["ok"] and r["known_defect"])
    failed = sum(1 for c in children for r in c["results"] if not r["ok"] and not r["known_defect"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(children)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for r in first["results"]:
        state = "ok" if r["ok"] else ("KNOWN DEFECT" if r["known_defect"] else "FAILED")
        print(f"  check {r['op']:<24} {state:<12} {r['detail']}")
        if not r["ok"] and r["known_defect"]:
            print(f"        {r['known_defect']}")
    for c in children:
        for err in c["errors"]:
            print(f"  error {err}")
    if trace:
        metrics, units = layer_summary(children), LAYER_UNITS
        if abs(metrics["trace.overhead_s"]) < metrics["trace.overhead_iqr_s"]:
            print("  trace.overhead_s is below resolution: smaller than the spread of its pairs")
    else:
        metrics, units = e2e_metrics(children, ops), UNITS
    print(f"  fail_frac {(failed + known) / attempted:.4f} ratio  "
          f"({failed} failed, {known} known defect, of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")

    os.makedirs(OUT, exist_ok=True)
    record = {"machine": machine, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed, "known_defects": known,
              "children": children, "spans": spans}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
