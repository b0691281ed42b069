"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks its outputs must pass.

Each workload is a closed loop with one caller. ``prepare`` makes the
inputs (timed as set-up), ``reference`` computes check values from them
with plain numpy (untimed), and ``run_once`` makes one timed operation
and checks its outputs. The package is driven only through its public
entry points: ``streampca.cli.main`` and ``initialize``/``ingest``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Latency percentiles are taken per window of this many consecutive steps of
# one stream, and the mean over windows is reported: a burst of slowness from
# other tenants of a shared machine moves only the windows it falls in, and
# slow and quiet phases of the machine weigh by their share of the run.
WINDOW = 100

# every end-to-end metric an untraced run reports, with its unit
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p95_ms", "ms"),
]


@dataclass
class Rep:
    """One timed operation (or stream of operations) and its check outcome."""

    run_s: float
    attempted: int
    failed: int
    # windows of consecutive steady-state ingest latencies, in ms
    ingest_windows: list = field(default_factory=list)
    dot_products: int = 0
    problems: list = field(default_factory=list)


def _svd_curve(x: np.ndarray) -> np.ndarray:
    """Batch explained-variance curve of the columns of x, from LAPACK's SVD."""
    s = np.linalg.svd(x, compute_uv=False)
    return np.cumsum(s**2) / float((x**2).sum())


def _read_curves(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    labels = rows[0][1:]
    cols = {label: [] for label in labels}
    for row in rows[1:]:
        for label, cell in zip(labels, row[1:]):
            if cell:
                cols[label].append(float(cell))
    return {label: np.array(v) for label, v in cols.items()}


def steady_start(counts: list) -> int | None:
    """Index from which the per-step inner-product counts stay constant, or
    None when they settle only in the second half of the stream."""
    if not counts:
        return None
    start = len(counts) - 1
    while start > 0 and counts[start - 1] == counts[-1]:
        start -= 1
    return start if 2 * (len(counts) - start) >= len(counts) else None


def windows(latencies: list) -> list:
    """Consecutive chunks of WINDOW latencies; a shorter remainder joins the last chunk."""
    count = max(1, len(latencies) // WINDOW) if latencies else 0
    return [latencies[i * WINDOW : (i + 1) * WINDOW if i < count - 1 else None] for i in range(count)]


def steady_windows(streams: list) -> list:
    """Windows of the steady-state steps of every stream that settles.

    A stream is a list of (latency ms, inner products of the step). When no
    stream settles, as in the full-dimensional regime, every step counts.
    """
    steady = []
    for stream in streams:
        start = steady_start([count for _, count in stream])
        if start is not None:
            steady += windows([ms for ms, _ in stream[start:]])
    return steady or [w for stream in streams for w in windows([ms for ms, _ in stream])]


@contextmanager
def _timed_ingest(streams: list):
    """Time every ``streampca.adaptive.ingest`` call made inside the block.

    Calls on a new state open a new stream in ``streams``.
    """
    from streampca import adaptive

    original = adaptive.ingest
    current = [None]

    def timed(state, x):
        if state is not current[0]:
            current[0] = state
            streams.append([])
        t0 = time.perf_counter()
        result = original(state, x)
        ms = (time.perf_counter() - t0) * 1e3
        streams[-1].append((ms, state.counter.per_step_log[-1][1]))
        return result

    adaptive.ingest = timed
    try:
        yield
    finally:
        adaptive.ingest = original


class Workload:
    """Seeded inputs, a timed operation and its checks; ``tiny`` sizes are for the self-test."""

    name = ""
    why = ""
    default_seed = 0
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.size = self.TINY if tiny else self.FULL
        # the exact expected values hold only at full size and the default seed
        self.exact = not tiny and seed == self.default_seed
        self.inputs = None
        self.oracle = None

    def prepare(self, tag: str) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        pass

    def run_once(self, rep: int, around, timed_ingest: bool) -> Rep:
        raise NotImplementedError


class CompareWorkload(Workload):
    """One ``streampca compare`` invocation per operation."""

    def argv(self, out_dir: Path) -> list:
        raise NotImplementedError

    def check(self, curves: dict, meta: dict) -> list:
        raise NotImplementedError

    def run_once(self, rep: int, around, timed_ingest: bool) -> Rep:
        from streampca import cli

        out = self.workdir / f"out-{rep}"
        argv = self.argv(out)
        streams: list = []
        problems: list = []
        sink = io.StringIO()
        timer = _timed_ingest(streams) if timed_ingest else nullcontext()
        rc = None
        t0 = time.perf_counter()
        try:
            with around, timer, redirect_stdout(sink):
                rc = cli.main(argv)
        except Exception as err:  # a raised error is a failed operation
            traceback.print_exc()
            problems.append(f"raised {err!r}")
        run_s = time.perf_counter() - t0
        dots = 0
        if rc is not None and rc != 0:
            problems.append(f"exit code {rc}")
        elif rc == 0:
            try:
                meta = json.loads((out / "meta.json").read_text())
                dots = sum(meta["dot_products"].values())
                problems += self.check(_read_curves(out / "curves.csv"), meta)
            except (OSError, KeyError, IndexError, ValueError) as err:
                problems.append(f"unreadable outputs: {err!r}")
        shutil.rmtree(out, ignore_errors=True)
        return Rep(run_s, 1, int(bool(problems)), steady_windows(streams), dots, problems)

    def _oracle_problems(self, batch: np.ndarray) -> list:
        m = len(batch)
        err = float(np.max(np.abs(batch - self.oracle[:m])))
        return [] if err <= 1e-8 else [f"batch curve is {err:.3e} from the SVD oracle"]


class CascadeCompare(CompareWorkload):
    name = "cascade-compare"
    why = (
        "the paper's headline experiment: raw volumes loaded from disk, the n=300 Gram "
        "oracle and 11 limited/stochastic streaming runs; every layer does work"
    )
    default_seed = 9
    FULL = {"d": 2000, "n": 300, "space": 20, "processing": 40, "seeds": "1..10"}
    TINY = {"d": 200, "n": 60, "space": 20, "processing": 25, "seeds": "1..2"}
    DOTS_DETERMINISTIC = 2_629_062
    DOTS_PER_SEED = 709_872

    def prepare(self, tag: str) -> None:
        from streampca import data

        s = self.size
        store, _ = data.synth("cascade", d=s["d"], n=s["n"], seed=self.seed)
        volumes = self.workdir / f"volumes-{tag}"
        data.save_raw_volumes(store, volumes)
        if self.inputs is not None:
            shutil.rmtree(self.inputs["dir"], ignore_errors=True)
        self.inputs = {"dir": volumes, "store": store}

    def reference(self) -> None:
        x = np.stack(list(self.inputs["store"]), axis=1)
        # the loader reads back float32 volumes
        self.oracle = _svd_curve(x.astype(np.float32).astype(np.float64))

    def argv(self, out_dir: Path) -> list:
        s = self.size
        return [
            "compare", "--volumes", str(self.inputs["dir"] / "step_*.raw"),
            "--shape", str(s["d"]), "--mode", "adaptive-stochastic",
            "--space-limit", str(s["space"]), "--processing-limit", str(s["processing"]),
            "--seeds", s["seeds"], "--out", str(out_dir),
        ]

    def check(self, curves: dict, meta: dict) -> list:
        k = self.size["space"] - 1
        batch, det, mean = curves["batch"][k], curves["adaptive"][k], curves["stochastic_mean"][k]
        problems = self._oracle_problems(curves["batch"])
        if batch < 0.98:
            problems.append(f"batch@{k + 1} = {batch:.4f} < 0.98")
        if det < 0.90:
            problems.append(f"adaptive@{k + 1} = {det:.4f} < 0.90")
        if abs(mean - det) > 0.05:
            problems.append(f"stochastic mean and adaptive differ by {abs(mean - det):.4f} > 0.05")
        if self.exact:
            dots = meta["dot_products"]
            if dots["adaptive"] != self.DOTS_DETERMINISTIC:
                problems.append(f"deterministic run took {dots['adaptive']} inner products")
            per_seed = [v for label, v in dots.items() if label.startswith("stochastic_seed")]
            if len(per_seed) != 10 or set(per_seed) != {self.DOTS_PER_SEED}:
                problems.append(f"stochastic runs took {per_seed} inner products")
        return problems


class LowrankFull(CompareWorkload):
    name = "lowrank-full"
    why = (
        "full-dimensional regime (criterion 2): 99 components, bound by per-component "
        "Python loops on a cache-resident workspace; small Gram oracle"
    )
    default_seed = 42
    FULL = {"d": 500, "n": 100, "rank": 30, "sigma": 0.05}
    TINY = {"d": 60, "n": 24, "rank": 5, "sigma": 0.05}
    FROZEN_GAP_PP = 4.437258446909848
    DOTS = 1_151_402
    MAX_GAP_PP = 10.0

    def prepare(self, tag: str) -> None:
        from streampca import data

        s = self.size
        params = {"rank": s["rank"], "sigma": s["sigma"]}
        store, _ = data.synth("lowrank", d=s["d"], n=s["n"], params=params, seed=self.seed)
        self.inputs = {"store": store}

    def reference(self) -> None:
        self.oracle = _svd_curve(np.stack(list(self.inputs["store"]), axis=1))

    def argv(self, out_dir: Path) -> list:
        s = self.size
        return [
            "compare", "--synth", "lowrank", "--d", str(s["d"]), "--n", str(s["n"]),
            "--rank", str(s["rank"]), "--sigma", str(s["sigma"]), "--seed", str(self.seed),
            "--mode", "adaptive-full", "--out", str(out_dir),
        ]

    def check(self, curves: dict, meta: dict) -> list:
        problems = self._oracle_problems(curves["batch"])
        gap = meta["gaps_pp"]["adaptive"]
        m = min(len(curves["batch"]), len(curves["adaptive"]))
        recomputed = float(np.max(np.abs(curves["batch"][:m] - curves["adaptive"][:m]))) * 100.0
        if recomputed != gap:
            problems.append(f"reported gap {gap!r} pp, curves give {recomputed!r} pp")
        if not 0.0 <= gap <= self.MAX_GAP_PP:
            problems.append(f"gap {gap:.4f} pp outside [0, {self.MAX_GAP_PP}]")
        if len(curves["adaptive"]) != self.size["n"] - 1:
            problems.append(f"{len(curves['adaptive'])} components, expected {self.size['n'] - 1}")
        if self.exact:
            if abs(gap - self.FROZEN_GAP_PP) > 1e-6 * self.FROZEN_GAP_PP:
                problems.append(f"gap {gap!r} pp, frozen value {self.FROZEN_GAP_PP!r}")
            if meta["dot_products"]["adaptive"] != self.DOTS:
                problems.append(f"run took {meta['dot_products']['adaptive']} inner products")
        return problems


class BlobStream(Workload):
    """One ``initialize`` and then one ``ingest`` per frame; each ingest is an operation."""

    name = "blob-stream"
    why = (
        "online use: 64x64 frames ingested one by one in the stochastic regime, constant "
        "work per step; never touches the oracle, evaluation, CLI or file loaders"
    )
    # rotating_blob draws no random numbers, so the seed drives the tracker's sampler
    default_seed = 1
    FULL = {"d": 4096, "n": 800, "space": 20, "processing": 40}
    TINY = {"d": 256, "n": 100, "space": 8, "processing": 12}
    DOTS = 1_982_829
    STEADY_FROM = 41
    STEADY_DOTS = 2547
    DEGENERATE_EVENTS = 3

    def prepare(self, tag: str) -> None:
        from streampca import data

        store, _ = data.synth("rotating_blob", d=self.size["d"], n=self.size["n"], seed=7)
        self.inputs = list(store)

    def run_once(self, rep: int, around, timed_ingest: bool) -> Rep:
        from streampca import adaptive

        s = self.size
        frames = self.inputs
        config = adaptive.AdaptiveConfig(
            space_limit=s["space"], processing_limit=s["processing"], seed=self.seed
        )
        planned = len(frames) - 2
        latencies: list = []
        problems: list = []
        state = None
        t0 = time.perf_counter()
        try:
            with around:
                state = adaptive.initialize(frames[0], frames[1], config)
                for x in frames[2:]:
                    t = time.perf_counter()
                    adaptive.ingest(state, x)
                    latencies.append((time.perf_counter() - t) * 1e3)
        except Exception as err:  # the failing call and every one not made count as failed
            traceback.print_exc()
            problems.append(f"raised {err!r} after {len(latencies)} ingests")
        run_s = time.perf_counter() - t0
        if problems or state is None:
            return Rep(run_s, planned, planned - len(latencies), [], 0, problems)
        log = state.counter.per_step_log
        start = steady_start([count for _, count in log])
        problems = self.check(state, log, start)
        failed = planned if problems else 0
        steady = windows(latencies[start:] if start is not None else latencies)
        return Rep(run_s, planned, failed, steady, state.counter.dot_products, problems)

    def check(self, state, log, start: int | None) -> list:
        problems = []
        v = np.stack(state.components, axis=0)
        drift = float(np.max(np.abs(v @ v.T - np.eye(len(v)))))
        if drift > 1e-8:
            problems.append(f"orthonormality error {drift:.3e} > 1e-8")
        total = state.counter.dot_products
        if sum(c for _, c in log) != total:
            problems.append("per-step log does not sum to the inner-product total")
        if start is None:
            problems.append("per-step count settles only in the second half of the stream")
        elif self.exact:
            if total != self.DOTS:
                problems.append(f"stream took {total} inner products, expected {self.DOTS}")
            if (log[start][0], log[start][1]) != (self.STEADY_FROM, self.STEADY_DOTS):
                problems.append(
                    f"per-step count settles at {log[start][1]} from step {log[start][0]}"
                )
            if len(state.degenerate_events) != self.DEGENERATE_EVENTS:
                problems.append(f"{len(state.degenerate_events)} degenerate events")
        return problems


WORKLOADS = {w.name: w for w in (CascadeCompare, LowrankFull, BlobStream)}
