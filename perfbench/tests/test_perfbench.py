"""Self-test of the benchmark harness.

A tiny-size smoke run of each workload, untraced and traced, with its
output checks; the self-time arithmetic on hand-built span trees; and the
metric lists against BENCHMARK.json. Run with ``python -m pytest perfbench``.
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_trace  # noqa: E402
from bench_trace import Tracer, layer_report, self_sum_error, self_times  # noqa: E402
from bench_workloads import (  # noqa: E402
    END_TO_END,
    WINDOW,
    WORKLOADS,
    steady_start,
    steady_windows,
    windows,
)


def _span(name, start, end, parent, run="r"):
    return [name, start, end, parent, run, None]


def test_self_time_of_a_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert self_sum_error(spans, selfs, 0) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),
        _span("c", 7.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - (4.0 + 3.0)


def test_tracer_nests_spans_and_restores_patches():
    import types

    module = types.SimpleNamespace(inner=lambda x: x + 1)
    original = module.inner
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.patch(module, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    with tracer.root("run", "run-0"):
        assert module.outer(1) == 4
    tracer.restore()
    assert module.inner is original
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("run", -1), ("outer", 0), ("inner", 1)]
    assert self_sum_error(tracer.spans, self_times(tracer.spans), 0) < 1e-12


def test_steady_state_starts_where_the_count_stops_changing():
    assert steady_start([12, 30, 55, 80, 80, 80, 80]) == 3
    assert steady_start([12, 30, 55, 80]) is None  # settles only at the last step
    settled = [(1.0, 5), (2.0, 9), (3.0, 9), (4.0, 9)]
    growing = [(7.0, 5), (8.0, 6), (9.0, 7)]
    assert steady_windows([settled, growing]) == [[2.0, 3.0, 4.0]]
    assert steady_windows([growing]) == [[7.0, 8.0, 9.0]]


def test_windows_fold_a_short_remainder_into_the_last_window():
    latencies = list(range(2 * WINDOW + WINDOW // 2))
    chunks = windows(latencies)
    assert [len(c) for c in chunks] == [WINDOW, WINDOW + WINDOW // 2]
    assert sum(chunks, []) == latencies
    assert windows([1.0]) == [[1.0]]
    assert windows([]) == [] and steady_start([]) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_raised_error_counts_as_failed_operations(name, tmp_path, monkeypatch):
    from streampca import adaptive

    original = adaptive.ingest
    calls = []

    def failing(state, x):
        calls.append(1)
        if len(calls) == 5:
            raise adaptive.DegenerateVectorError("injected")
        return original(state, x)

    workload = WORKLOADS[name](WORKLOADS[name].default_seed, tmp_path, tiny=True)
    workload.prepare("0")
    workload.reference()
    monkeypatch.setattr(adaptive, "ingest", failing)
    rep = workload.run_once(0, nullcontext(), timed_ingest=True)
    assert rep.failed == (rep.attempted - 4 if name == "blob-stream" else 1)
    assert rep.problems


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


# layers each workload must reach; every other layer must stay idle
_REACHED = {
    "cascade-compare": {name for name, _ in bench_trace.LAYERS},
    "lowrank-full": {
        "batch.sym_eig", "batch.gram", "batch.dual_pca", "adaptive.ingest",
        "adaptive.update_component", "adaptive.run_adaptive", "core.store_matrix",
        "core.store_matrix.ingest", "core.store_matrix.oracle", "core.store_append",
        "core.sample_indices", "evaluate.explained_variance", "evaluate.curve_gap",
        "data.synth", "cli.load_dataset", "cli.run_compare",
    },
    "blob-stream": {
        "adaptive.ingest", "adaptive.update_component", "core.store_matrix",
        "core.store_matrix.ingest", "core.store_append", "core.sample_indices", "data.synth",
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks_untraced_and_traced(name, tmp_path):
    workload = WORKLOADS[name](WORKLOADS[name].default_seed, tmp_path, tiny=True)
    tracer = Tracer()
    try:
        bench_trace.install(tracer)
        with tracer.root("setup", "setup"):
            workload.prepare("0")
    finally:
        tracer.restore()
    workload.reference()

    plain = workload.run_once(0, nullcontext(), timed_ingest=True)
    assert plain.failed == 0, plain.problems
    assert plain.ingest_windows

    try:
        bench_trace.install(tracer)
        traced = workload.run_once(1, tracer.root("run", "run-1"), timed_ingest=False)
    finally:
        tracer.restore()
    assert traced.failed == 0, traced.problems

    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[bench_trace.PARENT] < 0]
    assert len(roots) == 2
    selfs = self_times(spans)
    for r in roots:
        assert self_sum_error(spans, selfs, r) < 1e-9
    metrics = layer_report(spans, roots[0], roots[1:], plain.run_s)
    assert metrics["adaptive.dot_products"] == traced.dot_products == plain.dot_products > 0
    for layer, _fields in bench_trace.LAYERS:
        calls = metrics[f"{layer}.calls"]
        assert (calls > 0) == (layer in _REACHED[name]), (layer, calls)
