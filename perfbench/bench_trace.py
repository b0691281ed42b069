"""Span recording at the package's layer boundaries, and the per-layer
metrics derived from the spans.

A Tracer swaps public module attributes (the names the package already
calls through) for wrappers that record one span per call: name, start,
end, parent span and run id. Spans stay in memory until the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# span record fields
NAME, START, END, PARENT, RUN, ATTRS = range(6)

# parents under which core.store_matrix restacks the whole store
_ORACLE_PARENTS = ("batch.gram", "batch.dual_pca", "evaluate.explained_variance")
# spans whose metrics come from the setup root instead of the timed roots
SETUP_SPANS = ("data.synth", "data.save_raw_volumes")

# span names, and the fields reported for each
LAYERS = [
    ("batch.sym_eig", ("s", "calls", "order")),
    ("batch.gram", ("s", "calls")),
    ("batch.dual_pca", ("s", "self_s", "calls")),
    ("adaptive.ingest", ("s", "self_s", "calls")),
    ("adaptive.update_component", ("s", "calls")),
    ("adaptive.run_adaptive", ("s", "calls")),
    ("core.store_matrix", ("s", "bytes", "calls")),
    ("core.store_matrix.ingest", ("s", "bytes", "calls")),
    ("core.store_matrix.oracle", ("s", "bytes", "calls")),
    ("core.store_append", ("s", "calls")),
    ("core.sample_indices", ("s", "calls")),
    ("evaluate.explained_variance", ("s", "calls")),
    ("evaluate.mean_curve", ("s", "calls")),
    ("evaluate.curve_gap", ("s", "calls")),
    ("data.load_raw_volumes", ("s", "bytes", "calls")),
    ("data.save_raw_volumes", ("s", "bytes", "calls")),
    ("data.synth", ("s", "calls")),
    ("cli.load_dataset", ("s", "calls")),
    ("cli.run_compare", ("s", "self_s", "calls")),
]
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "B", "order": "count"}

# every per-layer metric the traced run reports, with its unit
PER_LAYER = [(f"{span}.{field}", _UNITS[field]) for span, fields in LAYERS for field in fields]
PER_LAYER += [
    ("adaptive.dot_products", "count"),
    ("adaptive.ns_per_dot", "ns"),
    ("adaptive.degenerate_frac", "ratio"),
    ("cli.artifact_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans from wrappers it installs on module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, run_id: str):
        """Root span for one run id; every wrapped call inside becomes its descendant."""
        self.run_id = run_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.run_id = None

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording a span per call of ``fn``.

        ``before(*args)`` runs ahead of the span; ``after(args, result, token)``
        runs after it and returns the span's attributes (counts, bytes).
        """

        def traced(*args, **kwargs):
            token = before(*args) if before else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                span[ATTRS] = after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, before, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary the workloads pass through."""
    import numpy as np
    from streampca import adaptive, batch, cli, core, data

    def ingest_before(state, x):
        return state.counter.dot_products, len(state.degenerate_events)

    def ingest_after(args, state, token):
        return {
            "dots": state.counter.dot_products - token[0],
            "degenerate": len(state.degenerate_events) - token[1],
        }

    def volume_bytes(args, result, token):
        _, meta = result
        itemsize = np.dtype(data._ELEMENT_TYPES[meta.element_type][0]).itemsize
        return {"bytes": meta.steps * int(np.prod(meta.shape)) * itemsize}

    def saved_bytes(args, paths, token):
        return {"bytes": sum(Path(p).stat().st_size for p in paths)}

    def artifact_bytes(args, result, token):
        return {"artifact_bytes": sum(Path(p).stat().st_size for p in result["paths"])}

    t = tracer
    t.patch(batch, "gram", "batch.gram")
    t.patch(batch, "sym_eig", "batch.sym_eig",
            after=lambda args, result, token: {"order": len(result[0])})
    t.patch(adaptive, "update_component", "adaptive.update_component")
    t.patch(adaptive, "ingest", "adaptive.ingest", ingest_before, ingest_after)
    t.patch(adaptive, "sample_indices", "core.sample_indices")
    t.patch(core.SampleStore, "matrix", "core.store_matrix",
            after=lambda args, result, token: {"bytes": result.nbytes})
    t.patch(core.SampleStore, "append", "core.store_append")
    t.patch(data, "synth", "data.synth")
    t.patch(data, "save_raw_volumes", "data.save_raw_volumes", after=saved_bytes)
    t.patch(cli, "synth", "data.synth")
    t.patch(cli, "load_raw_volumes", "data.load_raw_volumes", after=volume_bytes)
    t.patch(cli, "run_adaptive", "adaptive.run_adaptive")
    t.patch(cli, "dual_pca", "batch.dual_pca")
    t.patch(cli, "explained_variance", "evaluate.explained_variance")
    t.patch(cli, "mean_curve", "evaluate.mean_curve")
    t.patch(cli, "curve_gap", "evaluate.curve_gap")
    t.patch(cli, "load_dataset", "cli.load_dataset")
    t.patch(cli, "run_compare", "cli.run_compare", after=artifact_bytes)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def root_metrics(spans, selfs, root: int) -> dict:
    """Sum durations, self times, calls and attributes per span name under one root."""
    run_id = spans[root][RUN]
    m = defaultdict(float)
    for i, s in enumerate(spans):
        if s[RUN] != run_id or i == root:
            continue
        names = [s[NAME]]
        if s[NAME] == "core.store_matrix":
            parent = spans[s[PARENT]][NAME]
            if parent == "adaptive.ingest":
                names.append("core.store_matrix.ingest")
            elif parent in _ORACLE_PARENTS:
                names.append("core.store_matrix.oracle")
        for name in names:
            m[f"{name}.s"] += s[END] - s[START]
            m[f"{name}.self_s"] += selfs[i]
            m[f"{name}.calls"] += 1
            for key, value in (s[ATTRS] or {}).items():
                if key == "order":
                    m[f"{name}.order"] = max(m[f"{name}.order"], value)
                else:
                    m[f"{name}.{key}"] += value
        m["trace.spans"] += 1
    return m


def self_sum_error(spans, selfs, root: int) -> float:
    """|sum of self times under a root - the root's duration|; zero up to rounding."""
    run_id = spans[root][RUN]
    total = sum(selfs[i] for i, s in enumerate(spans) if s[RUN] == run_id)
    return abs(total - (spans[root][END] - spans[root][START]))


def layer_report(spans, setup_root: int, run_roots: list[int], untraced_run_s: float) -> dict:
    """Per-layer metrics: median over the timed roots, setup spans from the setup root."""
    selfs = self_times(spans)
    per_root = [root_metrics(spans, selfs, r) for r in run_roots]
    setup = root_metrics(spans, selfs, setup_root)
    durations = [spans[r][END] - spans[r][START] for r in run_roots]
    out = {}
    for name, _unit in PER_LAYER:
        source = [setup] if name.rsplit(".", 1)[0] in SETUP_SPANS else per_root
        out[name] = statistics.median(m.get(name, 0.0) for m in source)
    dots = statistics.median(m.get("adaptive.ingest.dots", 0) for m in per_root)
    ingest_s = out["adaptive.ingest.s"]
    ingest_calls = out["adaptive.ingest.calls"]
    out["adaptive.dot_products"] = dots
    out["adaptive.ns_per_dot"] = ingest_s * 1e9 / dots if dots else 0.0
    out["adaptive.degenerate_frac"] = (
        statistics.median(m.get("adaptive.ingest.degenerate", 0) for m in per_root) / ingest_calls
        if ingest_calls
        else 0.0
    )
    out["cli.artifact_bytes"] = statistics.median(
        m.get("cli.run_compare.artifact_bytes", 0) for m in per_root
    )
    out["trace.run_s"] = statistics.median(durations)
    out["trace.untraced_run_s"] = untraced_run_s
    out["trace.overhead_s"] = out["trace.run_s"] - untraced_run_s
    return out
