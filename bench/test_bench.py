"""Tests of the benchmark itself, at small replication counts.

Run from the root of a checkout::

    python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rapidpp import cli  # noqa: E402

SMALL_REPS = 4096
TWO_CHUNKS = 16_384 + 1000


def _run(workload, seed, workdir, reps=SMALL_REPS, workers=workloads.WORKERS):
    ops = workloads.build(workload, seed, str(workdir), reps=reps, workers=workers)
    _, rcs, errors = child.run_batch(cli.main, ops)
    assert not errors
    return ops, child.check_batch(ops, rcs)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(workload, tmp_path):
    _, results = _run(workload, 1, tmp_path)
    for r in results:
        assert r["ok"] or r["known_defect"], r
    assert all(r["ok"] for r in results if not r["known_defect"])


def test_known_defect_is_reported_not_hidden(tmp_path):
    _, results = _run("analytic-cli", 1, tmp_path)
    defect = [r for r in results if r["known_defect"]]
    assert len(defect) == 1
    assert not defect[0]["ok"]
    assert "truncation_mass 1.0" in defect[0]["detail"]


def test_cox_output_independent_of_workers_and_rerun(tmp_path):
    outs = []
    for i, workers in enumerate((1, 2, 2)):
        ops, results = _run("cox-small-eps", 7, tmp_path / str(i), reps=TWO_CHUNKS, workers=workers)
        assert results[0]["ok"]
        outs.append(_read(ops[0]["out"]))
    assert outs[0] == outs[1] == outs[2]


def test_second_seed_differs_and_passes(tmp_path):
    ops_a, res_a = _run("cox-small-eps", 1, tmp_path / "a")
    ops_b, res_b = _run("cox-small-eps", 2, tmp_path / "b")
    assert res_a[0]["ok"] and res_b[0]["ok"]
    assert _read(ops_a[0]["out"]) != _read(ops_b[0]["out"])


def test_generated_model_depends_only_on_seed():
    assert workloads.dense_mmpp(3) == workloads.dense_mmpp(3)
    assert workloads.dense_mmpp(3) != workloads.dense_mmpp(4)
    for row in workloads.dense_mmpp(3, n=20)["generator"]:
        assert sum(row) == 0.0


def test_traced_batch_reports_layers_and_restores_patches(tmp_path):
    original = cli.main
    ops = workloads.build("queue-validate", 1, str(tmp_path), reps=TWO_CHUNKS)
    tr = tracer.Tracer()
    tr.install()
    try:
        _, rcs, errors = child.run_batch(cli.main, ops)
    finally:
        tr.uninstall()
    assert cli.main is original and not errors and rcs == [0]
    work = workloads.computed_work(ops[0], 16_384)
    layers = tracer.layer_metrics(tr.spans, work)
    assert layers["harness.chunks"] == 4 * 2
    assert layers["arrivals.segments_s"] > 0 and layers["queue_sim.self_s"] > 0
    assert 0 < layers["harness.parallelism"] <= 2.5
    assert layers["markov_env.segments"] == pytest.approx(TWO_CHUNKS * (4 + 5 + 10 + 20 + 50))
    assert layers["queue_sim.arrivals"] == pytest.approx(4 * TWO_CHUNKS)
    # every chunk span found its estimate_pmf parent across the worker threads
    by_id = {s[0]: s for s in tr.spans}
    for s in tr.spans:
        if s[2] == "harness.chunk":
            assert by_id[s[1]][2] == "harness.estimate_pmf"


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, None, "harness.estimate_pmf", 0.0, 10.0, 1, None),
        (2, 1, "harness.chunk", 1.0, 6.0, 2, None),
        (3, 1, "harness.chunk", 4.0, 8.0, 3, None),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(5.0)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_child_loads_no_numpy_or_scipy_before_its_setup_timer():
    code = "import sys, child; print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_child_loads_no_module_between_setup_timer_and_first_command(tmp_path):
    ops = workloads.build("cox-small-eps", 1, str(tmp_path), reps=SMALL_REPS)
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({"ops": ops, "src": os.path.join(ROOT, "src"), "trace_id": "t"}))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), str(ops_path), "0", "0",
         str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=120, check=True, env=dict(os.environ, **run.THREAD_ENV),
    )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["loaded_after_setup"] == []
    assert all(r["ok"] for r in rec["results"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
