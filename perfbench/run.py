"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout; without it the script exits with an error and prints no
result. With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics of traced operations, which
alternate with untraced ones to give the tracing overhead. Spans and a
result record with the environment are written to ``.perfbench_out/`` in
the checkout.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import bench_env

bench_env.cap_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MAX_REPS = 1000
SELF_SUM_TOLERANCE_S = 1e-6


def load_package() -> None:
    """Import streampca from this checkout's src/, or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import streampca
    except ImportError as err:
        sys.exit(f"error: cannot import streampca from {src}: {err}")
    if not Path(streampca.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: streampca was imported from {streampca.__file__}, not {src}")


def startup_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and streampca from src/."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, streampca"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def timed_reps(workload, budget: float) -> list:
    """Timed operations, back to back, until the next would overrun ``budget`` seconds."""
    reps = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(workload.run_once(len(reps), nullcontext(), timed_ingest=True))
        if time.perf_counter() - start + statistics.median(r.run_s for r in reps) > budget:
            break
    return reps


def untraced(workload, seconds: float) -> tuple[dict, list, dict, list]:
    # set-up is process start through imports plus input generation; both repeat
    starts = [startup_s() for _ in range(SETUP_REPEATS)]
    setups = []
    for i in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.prepare(str(i))
        setups.append(time.perf_counter() - t)
    workload.reference()
    reps = timed_reps(workload, seconds)
    windows = [w for r in reps for w in r.ingest_windows]
    window_p50 = [float(np.percentile(w, 50)) for w in windows]
    window_p95 = [float(np.percentile(w, 95)) for w in windows]
    # A shared machine's speed shifts by up to a third in phases of tens of
    # seconds. Means weigh every phase by its share of the run, where a median
    # of a dozen operations or windows follows the phase that holds most of them.
    metrics = {
        "setup_s": statistics.median(starts) + statistics.median(setups),
        "run_s": statistics.fmean(r.run_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ingest_p50_ms": statistics.fmean(window_p50) if windows else 0.0,
        "ingest_p95_ms": statistics.fmean(window_p95) if windows else 0.0,
    }
    detail = {
        "startup_s": starts,
        "prepare_s": setups,
        "run_s": [r.run_s for r in reps],
        "ingest_windows": [len(w) for w in windows],
        "ingest_window_p50_ms": window_p50,
        "ingest_window_p95_ms": window_p95,
    }
    return metrics, reps, detail, []


def traced(workload, seconds: float, spans_path: Path) -> tuple[dict, list, dict, list]:
    import bench_trace

    tracer = bench_trace.Tracer()
    try:
        bench_trace.install(tracer)
        with tracer.root("setup", "setup"):
            workload.prepare("traced")
    finally:
        tracer.restore()
    workload.reference()
    # untraced and traced operations alternate, so drift in the machine's speed
    # falls on both halves of the overhead estimate alike
    plain, reps = [], []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        plain.append(workload.run_once(len(plain), nullcontext(), timed_ingest=False))
        try:
            bench_trace.install(tracer)
            i = len(reps)
            reps.append(workload.run_once(i, tracer.root("run", f"run-{i}"), timed_ingest=False))
        finally:
            tracer.restore()
        pair_s = statistics.median(p.run_s + r.run_s for p, r in zip(plain, reps))
        if time.perf_counter() - start + pair_s > seconds:
            break
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[bench_trace.PARENT] < 0]
    run_roots = [i for i in roots if spans[i][bench_trace.RUN] != "setup"]
    untraced_run_s = statistics.median(r.run_s for r in plain)
    metrics = bench_trace.layer_report(spans, roots[0], run_roots, untraced_run_s)

    selfs = bench_trace.self_times(spans)
    errors = [bench_trace.self_sum_error(spans, selfs, r) for r in roots]
    problems = []
    if max(errors) > SELF_SUM_TOLERANCE_S:
        problems.append(f"self times miss their root's duration by {max(errors):.3e} s")
    dots = statistics.median(r.dot_products for r in reps)
    if metrics["adaptive.dot_products"] != dots:
        problems.append(
            f"traced inner products {metrics['adaptive.dot_products']} != reported {dots}"
        )
    with open(spans_path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    detail = {
        "untraced_run_s": [r.run_s for r in plain],
        "traced_run_s": [r.run_s for r in reps],
        "self_sum_error_s": max(errors),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, plain + reps, detail, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench_workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, reps, detail, problems = traced(
                workload, args.seconds, OUT / f"spans-{tag}.jsonl"
            )
            units = dict(bench_trace.PER_LAYER)
        else:
            metrics, reps, detail, problems = untraced(workload, args.seconds)
            units = dict(bench_workloads.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems] + problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = bench_env.environment(ROOT, args.workload, args.seed)
    record = {"environment": env, "result": result, "detail": detail, "problems": problems}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("# environment " + json.dumps(env))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(f"# ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
