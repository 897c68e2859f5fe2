"""One fresh interpreter: time rapidpp's set-up, run one batch, check it.

Run by ``run.py``, never by hand::

    python3 bench/child.py OPS_JSON SPAWN_WALL TRACE SPANS_PATH

Prints one JSON line.  Until the set-up timer has stopped this file touches
nothing but the standard library and the benchmark's own stdlib-only
modules, so numpy and scipy are first imported inside the timed region.
"""

import time

START_WALL = time.time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_batch(cli_main, ops):
    """Run the operations back to back; return (seconds, exit codes, errors)."""
    op_s, rcs, errors = [], [], []
    for op in ops:
        start = time.perf_counter()
        try:
            rc = cli_main(op["argv"])
        except Exception as exc:  # a crashing command is a failed operation
            rc = -1
            errors.append(f"{op['name']}: {type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - start)
        rcs.append(rc)
    return op_s, rcs, errors


def check_batch(ops, rcs):
    results = []
    for op, rc in zip(ops, rcs):
        ok, detail, half = checks.run_check(op, rc)
        results.append({"op": op["name"], "ok": ok, "detail": detail, "half_width": half,
                        "known_defect": op["known_defect"]})
    return results


def main(argv) -> int:
    ops_path, spawn_wall, trace, spans_path = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    with open(ops_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = spec["ops"]
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    from rapidpp import cli

    t_import = time.perf_counter()
    cli.parse_experiment_config(cli.load_config_file(ops[0]["config"]))
    t_setup = time.perf_counter()
    # Nothing may load between here and the first command: a module loaded
    # here would fall under neither timer.
    loaded_at_setup = set(sys.modules)

    tr = None
    install_s = 0.0
    if trace:
        # Patching may import the modules it wraps; that cost is counted in
        # the traced batch's wall time.
        t_install = time.perf_counter()
        tr = tracer.Tracer()
        tr.trace_id = spec["trace_id"]
        tr.install()
        install_s = time.perf_counter() - t_install
    loaded_after_setup = sorted(set(sys.modules) - loaded_at_setup)
    cpu0 = _cpu()
    op_s, rcs, errors = run_batch(cli.main, ops)
    cpu_s = _cpu() - cpu0
    if tr is not None:
        tr.uninstall()
    results = check_batch(ops, rcs)

    import numpy
    import scipy
    from rapidpp.harness import CHUNK_SIZE

    out = {
        "setup_s": t_setup - t0,
        "import_s": t_import - t0,
        "parse_s": t_setup - t_import,
        "interpreter_s": START_WALL - spawn_wall,
        "wall_s": install_s + sum(op_s),
        "op_s": op_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
        "errors": errors,
        "loaded_after_setup": loaded_after_setup,
        "traced": trace,
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tr is not None:
        work = {}
        for op in ops:
            for key, value in workloads.computed_work(op, CHUNK_SIZE).items():
                work[key] = work.get(key, 0) + value
        out["layers"] = tracer.layer_metrics(tr.spans, work)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
