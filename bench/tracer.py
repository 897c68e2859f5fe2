"""Span recording around rapidpp's public calls, from outside the package.

Each entry of :data:`PATCHES` replaces a name where the caller binds it
(for example ``harness.sample_cox_counts``, which is what
``ExperimentSpec.sample_counts`` looks up), so no file under ``src/``
changes.  A span is (id, parent id, name, start, end, thread id, trace id);
spans stay in memory until the benchmark writes them out.

Standard library only: the benchmark child imports this module before its
set-up timer starts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

# (module, attribute, span name).  A dotted attribute patches a class member.
PATCHES = [
    ("rapidpp.cli", "main", "cli.main"),
    ("rapidpp.cli", "load_config_file", "config.load"),
    ("rapidpp.cli", "parse_experiment_config", "config.parse"),
    ("rapidpp.cli", "analyze", "markov_env.analyze"),
    ("rapidpp.harness", "analyze", "markov_env.analyze"),
    ("rapidpp.expansions", "analyze", "markov_env.analyze"),
    ("rapidpp.arrivals", "sample_occupation_integrals", "markov_env.occupation"),
    ("rapidpp.harness", "sample_cox_counts", "arrivals.cox_counts"),
    ("rapidpp.harness", "sample_thinned_counts", "arrivals.thinned_counts"),
    ("rapidpp.queue_sim", "cox_segments", "arrivals.segments"),
    ("rapidpp.harness", "sample_queue_counts", "queue_sim.queue_counts"),
    ("rapidpp.cli", "estimate_pmf", "harness.estimate_pmf"),
    ("rapidpp.harness", "estimate_pmf", "harness.estimate_pmf"),
    ("rapidpp.cli", "convergence_study", "harness.convergence_study"),
    ("rapidpp.harness", "ExperimentSpec.sample_counts", "harness.chunk"),
    ("rapidpp.cli", "tv_limit_exact", "expansions.tv_limit_exact"),
    ("rapidpp.cli", "tv_limit_mc", "expansions.tv_limit_mc"),
    ("rapidpp.cli", "eta_squared", "expansions.eta_squared"),
    ("rapidpp.expansions", "eta_squared", "expansions.eta_squared"),
    ("rapidpp.cli", "corrected_count_pmf", "expansions.corrected_pmf"),
    ("rapidpp.cli", "corrected_count_pmf_periodic", "expansions.corrected_pmf"),
    ("rapidpp.cli", "corrected_queue_pmf", "expansions.corrected_pmf"),
    ("rapidpp.harness", "corrected_count_pmf", "expansions.corrected_pmf"),
    ("rapidpp.harness", "corrected_queue_pmf", "expansions.corrected_pmf"),
    ("rapidpp.cli", "poisson_pmf", "expansions.poisson_pmf"),
    ("rapidpp.harness", "poisson_pmf", "expansions.poisson_pmf"),
    ("rapidpp.expansions", "poisson_pmf", "expansions.poisson_pmf"),
    ("rapidpp.harness", "default_kmax", "expansions.default_kmax"),
    ("rapidpp.expansions", "default_kmax", "expansions.default_kmax"),
]
GENERATORS = {"arrivals.segments"}


class Tracer:
    """Collects spans from every thread of the process.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the thread that created the tracer as its
    parent: the chunk threads of ``estimate_pmf`` run while the creating
    thread waits inside it.
    """

    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(), self.trace_id)
            )

    def _wrap(self, fn, name):
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                sentinel = object()
                while True:
                    item = self.call(name, next, it, sentinel)
                    if item is sentinel:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, self._wrap(original, name))
            self._undo.append((owner, leaf, original))

    def uninstall(self):
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# per-layer metrics from one batch of spans


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], []), s[3], s[4]) for s in spans}


def _outermost(spans):
    """Spans with no ancestor of the same name (so nesting is not double counted)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        p = by_id.get(s[1])
        while p is not None and p[2] != s[2]:
            p = by_id.get(p[1])
        if p is None:
            out.append(s)
    return out


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[int(q * 10) - 1]


def layer_metrics(spans, work: dict) -> dict:
    """Per-layer metrics of one traced batch.

    ``work`` holds the counts computed from the inputs (see
    ``workloads.computed_work``), summed over the batch's operations.
    """
    selfs = self_times(spans)
    dur, self_sum, calls = {}, {}, {}
    for s in _outermost(spans):
        dur[s[2]] = dur.get(s[2], 0.0) + (s[4] - s[3])
        calls[s[2]] = calls.get(s[2], 0) + 1
    for s in spans:
        self_sum[s[2]] = self_sum.get(s[2], 0.0) + selfs[s[0]]
    layer_self = {}
    for name, v in self_sum.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + v

    chunk_s = sorted(s[4] - s[3] for s in spans if s[2] == "harness.chunk")
    segments = work.get("segments", 0.0)
    arrivals = work.get("arrivals", 0.0)
    occupation = dur.get("markov_env.occupation", 0.0)
    seg_time = dur.get("arrivals.segments", 0.0)
    estimate = dur.get("harness.estimate_pmf", 0.0)
    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "markov_env.analyze_s": dur.get("markov_env.analyze", 0.0),
        "markov_env.analyze_calls": calls.get("markov_env.analyze", 0),
        "markov_env.occupation_s": occupation,
        "markov_env.segments": segments,
        "markov_env.ns_per_segment": 1e9 * (occupation + seg_time) / segments if segments else 0.0,
        "arrivals.cox_counts_self_s": self_sum.get("arrivals.cox_counts", 0.0),
        "arrivals.thinned_counts_s": dur.get("arrivals.thinned_counts", 0.0),
        "arrivals.renewal_block_mb": work.get("renewal_block_mb", 0.0),
        "arrivals.segments_s": seg_time,
        "queue_sim.self_s": layer_self.get("queue_sim", 0.0),
        "queue_sim.arrivals": arrivals,
        "queue_sim.ns_per_arrival": (
            1e9 * self_sum.get("queue_sim.queue_counts", 0.0) / arrivals if arrivals else 0.0
        ),
        "harness.estimate_pmf_s": estimate,
        "harness.self_s": layer_self.get("harness", 0.0),
        "harness.chunks": len(chunk_s),
        "harness.chunk_s.p50": _quantile(chunk_s, 0.5),
        "harness.chunk_s.p90": _quantile(chunk_s, 0.9),
        "harness.parallelism": sum(chunk_s) / estimate if estimate else 0.0,
        "harness.convergence_study_s": dur.get("harness.convergence_study", 0.0),
        "expansions.tv_limit_exact_s": dur.get("expansions.tv_limit_exact", 0.0),
        "expansions.tv_limit_terms": work.get("tv_limit_terms", 0),
        "expansions.tv_limit_mc_s": dur.get("expansions.tv_limit_mc", 0.0),
        "expansions.eta_squared_s": dur.get("expansions.eta_squared", 0.0),
        "expansions.corrected_pmf_s": dur.get("expansions.corrected_pmf", 0.0),
        "expansions.poisson_pmf_s": dur.get("expansions.poisson_pmf", 0.0),
        "expansions.default_kmax_s": dur.get("expansions.default_kmax", 0.0),
        "trace.spans": len(spans),
    }
