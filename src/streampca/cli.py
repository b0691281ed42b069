"""Experiment runner.

``main`` resolves the flags, loads the dataset once and runs the subcommand
that argparse chose on it. Three subcommands reproduce the experiment
families end to end as plot-ready CSV artifacts; every subcommand publishes
a JSON run record, meta.json, whose ``wall_time_s`` counts from ``main``'s start
and whose ``numeric_environment`` names the numpy, BLAS and BLAS thread settings:

* ``compare``: explained-variance curves of batch PCA against a streaming
  mode (full, limited, stochastic, or the Oja baseline), with curve gaps.
* ``eigenfunctions``: per-component score time series.
* ``counters``: per-step inner-product counts of a streaming run.
* ``synth-dump``: write a synthetic dataset as raw volume files.

All numeric CSV payloads are byte-identical across invocations with the
same configuration and seeds and the same BLAS thread count (OpenBLAS can
split a product such as the Gram differently at another thread count, which
moves the last bits of the curves); wall-clock facts live only in meta.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .adaptive import AdaptiveConfig, check_learning_rate, oja, run_adaptive
from .batch import EigenSpace, center, dual_pca
from .core import SampleStore, StreamPcaError
from .data import (
    GENERATORS,
    DatasetMeta,
    load_pgm_sequence,
    load_raw_volumes,
    save_raw_volumes,
    synth,
)
from .evaluate import CurveSeries, curve_gap, eigenfunctions, explained_variance, mean_curve

ADAPTIVE_MODES = ("adaptive-full", "adaptive-limited", "adaptive-stochastic")
MODES = ("batch", *ADAPTIVE_MODES, "oja")
STOCHASTIC_LIMIT = 40  # processing_limit of stochastic runs when none is given
SPACE_LIMIT = 20  # space_limit of limited and stochastic runs when none is given
LEARNING_RATE = 0.01  # learning_rate of Oja runs when none is given


# the settings meta.json records, as resolved by _config_from_args
RECORDED = (
    "dataset", "mode", "space_limit", "processing_limit", "seeds", "centered", "learning_rate",
    "components",
)


def _int_list(text: str) -> list:
    """Integer list syntax: '1..10' (inclusive range) or '1,2,3'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s.strip()]


def load_dataset(cfg: argparse.Namespace) -> tuple[SampleStore, DatasetMeta]:
    """Materialize the configured dataset, check processing_limit < n, pre-center if asked.

    A centred run gets the centred store alone, so it does not keep the raw one.
    """
    ds = cfg.dataset
    kind = ds["kind"]
    if kind == "synth":
        store, meta = synth(ds["generator"], ds["d"], ds["n"], params=ds["params"], seed=ds["seed"])
    elif kind == "volumes":
        store, meta = load_raw_volumes(
            ds["pattern"],
            ds["shape"],
            element_type=ds["dtype"],
            byte_order=ds["byte_order"],
            scale=ds["scale"],
            manifest=ds["manifest"],
        )
    else:
        store, meta = load_pgm_sequence(ds["directory"], scale=ds["scale"], manifest=ds["manifest"])
    if kind != "synth":
        print(f"time order resolved for {meta.name} ({meta.steps} steps):")
        for f in meta.source["files"]:
            print(f"  {f}")
    n, limit = store.count, cfg.processing_limit
    if limit is not None and limit >= n:  # set in the stochastic mode only
        raise ValueError(f"stochastic mode needs processing_limit < n ({limit} >= {n})")
    return (center(store) if cfg.centered else store), meta


def _adaptive_config(cfg: argparse.Namespace, store: SampleStore, seed=None) -> AdaptiveConfig:
    n = store.count
    space = min(store.dim, n) if cfg.mode == "adaptive-full" else cfg.space_limit
    if seed is None:  # the deterministic run correlates every previous sample
        return AdaptiveConfig(space_limit=space, processing_limit=n)
    return AdaptiveConfig(space_limit=space, processing_limit=cfg.processing_limit, seed=seed)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_curves_csv(path: Path, curves: list) -> None:
    length = max(len(c) for c in curves)
    lines = ["component," + ",".join(c.label for c in curves)]
    for k in range(length):
        cells = [str(k + 1)]
        for c in curves:
            cells.append(_fmt(c.values[k]) if k < len(c) else "")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _numeric_environment() -> dict:
    """What besides the run's settings decides the CSVs' last bits: the numpy version, the
    BLAS numpy was built with, and the variables that set the BLAS thread count, as set
    (None when unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{name: os.environ.get(name) for name in threads},
    }


def _write_meta(path: Path, meta: DatasetMeta, cfg: argparse.Namespace, extra: dict) -> None:
    config = {name: getattr(cfg, name) for name in RECORDED}
    record = {"version": __version__, "dataset": asdict(meta), "config": config, **extra}
    record["numeric_environment"] = _numeric_environment()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _publish(cfg: argparse.Namespace, meta: DatasetMeta, extra: dict, write) -> dict:
    """Publish one run's artifacts and meta.json in ``cfg.output_dir``; returns their paths.

    ``write(staging)`` writes the artifacts into a scratch directory inside the output
    directory, then meta.json records the run, ``extra`` and ``wall_time_s``, the seconds
    since ``main`` started (``cfg.started``). Only after both are the files renamed into
    place one at a time: first any meta.json already there is unlinked, and the new one
    is renamed last. So a run that fails before the renames leaves the directory as it
    was, and a directory that holds a meta.json holds that run's whole output. A run that
    fails or is killed during the renames leaves some new files beside older ones from an
    earlier run, with no meta.json, and a killed run can leave its ``.staging-*`` directory.
    """
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir) as tmp:
        write(Path(tmp))
        wall_time = {"wall_time_s": time.perf_counter() - cfg.started}
        _write_meta(Path(tmp) / "meta.json", meta, cfg, {**extra, **wall_time})
        names = sorted(os.listdir(tmp), key=lambda name: (name == "meta.json", name))
        (out_dir / "meta.json").unlink(missing_ok=True)
        for name in names:
            os.replace(os.path.join(tmp, name), out_dir / name)
    return {"paths": [out_dir / name for name in names]}


def run_compare(cfg: argparse.Namespace, store: SampleStore, meta: DatasetMeta) -> dict:
    """Batch-vs-streaming comparison; writes curves.csv, gap.txt, meta.json, prints the gaps.

    It holds the dataset, the batch curve and one streaming run at a time: each run's
    state is freed once its curve is taken, so memory does not grow with the seeds.
    """
    dot_totals: dict[str, int] = {}

    def streaming_curve(label: str, seed=None) -> CurveSeries:
        # the run's state is as large as the dataset; only its curve and count outlive this call
        state = run_adaptive(store, _adaptive_config(cfg, store, seed))
        dot_totals[label] = state.counter.dot_products
        return explained_variance(state.eigenspace(), store, label=label)

    batch_curve = explained_variance(dual_pca(store), store, label="batch")
    curves = [batch_curve]
    if cfg.mode in ADAPTIVE_MODES:
        curves.append(streaming_curve("adaptive"))
    if cfg.mode == "adaptive-stochastic":
        stochastic = [streaming_curve(f"stochastic_seed{seed}", seed) for seed in cfg.seeds]
        curves.extend(stochastic)
        curves.append(mean_curve(stochastic, label="stochastic_mean"))
    if cfg.mode == "oja":
        space = EigenSpace(oja(store, cfg.learning_rate))
        curves.append(explained_variance(space, store, label="oja"))

    gaps, gap_lines = {}, []
    for c in curves[1:]:
        gap = gaps[c.label] = curve_gap(batch_curve, c)
        m = min(len(batch_curve), len(c))
        gap_lines.append(f"{c.label} vs batch: {_fmt(gap)} pp (first {m} components)")

    def write(staging: Path) -> None:
        _write_curves_csv(staging / "curves.csv", curves)
        (staging / "gap.txt").write_text("\n".join(gap_lines) + "\n")

    extra = {"dot_products": dot_totals, "gaps_pp": {k: float(v) for k, v in gaps.items()}}
    published = _publish(cfg, meta, extra, write)
    for label, gap in gaps.items():
        print(f"{label} vs batch: {gap:.4f} pp")
    return published


def run_eigenfunctions(cfg: argparse.Namespace, store: SampleStore, meta: DatasetMeta) -> dict:
    """Score time series for selected components; writes eigenfunctions.csv."""
    if cfg.mode in ("adaptive-full", "adaptive-limited"):
        space = run_adaptive(store, _adaptive_config(cfg, store)).eigenspace()
    else:
        space = dual_pca(store)
    if max(cfg.components) > len(space):
        raise ValueError(f"components {cfg.components} are out of range 1..{len(space)}")
    funcs = eigenfunctions(space, store)
    lines = ["t," + ",".join(f"f{c}" for c in cfg.components)]
    for t in range(funcs.shape[1]):
        cells = [str(t + 1)] + [_fmt(funcs[c - 1, t]) for c in cfg.components]
        lines.append(",".join(cells))

    def write(staging: Path) -> None:
        (staging / "eigenfunctions.csv").write_text("\n".join(lines) + "\n")

    return _publish(cfg, meta, {}, write)


def run_counters(cfg: argparse.Namespace, store: SampleStore, meta: DatasetMeta) -> dict:
    """Per-step inner-product counts of one streaming run; writes counters.csv."""
    seed = cfg.seeds[0] if cfg.seeds else None
    state = run_adaptive(store, _adaptive_config(cfg, store, seed))
    lines = ["step,dot_products", *(f"{t},{count}" for t, count in state.counter.per_step_log)]

    def write(staging: Path) -> None:
        (staging / "counters.csv").write_text("\n".join(lines) + "\n")

    return _publish(cfg, meta, {"dot_products": {"total": state.counter.dot_products}}, write)


def run_synth_dump(cfg: argparse.Namespace, store: SampleStore, meta: DatasetMeta) -> dict:
    """Write a synthetic dataset as raw volume files plus a manifest."""

    def write(staging: Path) -> None:
        raws = save_raw_volumes(store, staging, element_type=cfg.dtype, byte_order=cfg.byte_order)
        (staging / "manifest.txt").write_text("\n".join(p.name for p in raws) + "\n")

    published = _publish(cfg, meta, {"dtype": cfg.dtype}, write)
    print(f"wrote {store.count} time-steps to {cfg.output_dir}")
    return published


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--synth", choices=GENERATORS, help="synthetic generator name")
    p.add_argument("--d", type=int, default=100, help="synthetic dimension per time-step")
    p.add_argument("--n", type=int, default=50, help="synthetic time-step count")
    p.add_argument("--rank", type=int, help="synthetic rank (lowrank, cascade)")
    p.add_argument("--sigma", type=float, help="synthetic noise level")
    p.add_argument("--speed", type=float, help="traveling_wave speed")
    p.add_argument("--decay", type=float, help="cascade amplitude decay")
    p.add_argument("--seed", type=int, default=0, help="synthetic generator seed")
    p.add_argument("--volumes", help="glob pattern of raw volume files")
    p.add_argument("--shape", help="comma-separated element counts, e.g. 128,128,128")
    p.add_argument("--dtype", choices=("u8", "u16", "f32"), default="f32")
    p.add_argument("--byte-order", choices=("little", "big"), default="little")
    p.add_argument("--frames-dir", help="directory of binary PGM frames")
    p.add_argument("--manifest", help="file listing dataset paths in time order")
    p.add_argument("--raw-values", action="store_true", help="skip [0,1] scaling of integer data")


def _dataset_from_args(args) -> dict:
    chosen = [bool(args.synth), bool(args.volumes), bool(args.frames_dir)]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --synth, --volumes, --frames-dir")
    if args.synth:
        params = {
            key: getattr(args, key)
            for key in ("rank", "sigma", "speed", "decay")
            if getattr(args, key) is not None
        }
        return {
            "kind": "synth",
            "generator": args.synth,
            "d": args.d,
            "n": args.n,
            "params": params,
            "seed": args.seed,
        }
    if args.volumes:
        if not args.shape:
            raise ValueError("--volumes requires --shape")
        try:
            shape = tuple(int(s) for s in args.shape.split(","))
        except ValueError:
            raise ValueError(f"--shape {args.shape!r} is not a comma-separated integer list") from None
        return {
            "kind": "volumes",
            "pattern": args.volumes,
            "shape": shape,
            "dtype": args.dtype,
            "byte_order": args.byte_order,
            "scale": not args.raw_values,
            "manifest": args.manifest,
        }
    return {
        "kind": "frames",
        "directory": args.frames_dir,
        "scale": not args.raw_values,
        "manifest": args.manifest,
    }


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve the CLI flags, checking every rule but the data's, which load_dataset checks.

    Sets the resolved ``dataset``, ``seeds``, ``processing_limit``, ``space_limit``,
    ``learning_rate`` and ``output_dir`` on the parsed namespace and returns it. A
    mode refuses an explicit setting it does not read and gets None for it ([] for seeds).
    """
    if args.mode != "adaptive-stochastic":
        if args.seeds is not None or args.processing_limit is not None:  # an empty --seeds too
            raise ValueError(f"{args.mode} mode takes no processing_limit or seeds")
        args.seeds = []
    else:
        if args.seeds is None:  # omitted: counters then draws with seed 0
            args.seeds = [0] if args.command == "counters" else []
        if not args.seeds:
            raise ValueError("stochastic mode needs at least one seed")
        if len(set(args.seeds)) < len(args.seeds):
            raise ValueError(f"seeds {args.seeds} repeat a seed; each seed is one run")
        if args.command == "counters" and len(args.seeds) > 1:
            raise ValueError("counters runs one stream; give one seed")
        if args.processing_limit is None:
            args.processing_limit = STOCHASTIC_LIMIT
    for name, reads, default in (
        ("space_limit", args.mode in ("adaptive-limited", "adaptive-stochastic"), SPACE_LIMIT),
        ("learning_rate", args.mode == "oja", LEARNING_RATE),
    ):
        if getattr(args, name) is None:
            setattr(args, name, default if reads else None)
        elif not reads:
            raise ValueError(f"{args.mode} mode takes no {name}")
    if args.space_limit is not None:  # AdaptiveConfig holds the limits' lower bound
        limit = args.processing_limit
        AdaptiveConfig(args.space_limit, STOCHASTIC_LIMIT if limit is None else limit)
    if args.learning_rate is not None:
        check_learning_rate(args.learning_rate)
    if args.command == "eigenfunctions" and (not args.components or min(args.components) < 1):
        raise ValueError(f"components {args.components} are empty or hold an entry below 1")
    if len(set(args.components)) < len(args.components):
        raise ValueError(f"components {args.components} repeat a component")
    args.dataset = _dataset_from_args(args)
    if args.command == "synth-dump" and args.dataset["kind"] != "synth":
        raise ValueError("synth-dump requires --synth")
    args.output_dir = Path(args.out)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The CLI's flag table, each flag declared once; _config_from_args fills in mode defaults."""
    common, run, stochastic = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    _add_dataset_flags(common)
    common.add_argument("--out", default="out", help="output directory")
    # the subcommands that run PCA
    run.add_argument(
        "--space-limit", type=int, help="components kept (limited and stochastic modes)"
    )
    run.add_argument("--centered", action="store_true", help="pre-center the stream")
    # the subcommands with a stochastic mode
    stochastic.add_argument(
        "--processing-limit",
        type=int,
        help=f"previous samples drawn per step (stochastic mode only, default {STOCHASTIC_LIMIT})",
    )
    stochastic.add_argument(
        "--seeds", type=_int_list, help="stochastic seeds: '1..10' or '1,2,3'"
    )
    parser = argparse.ArgumentParser(
        prog="streampca",
        description="streaming PCA experiments with explained-variance comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compare = sub.add_parser(
        "compare", parents=[common, run, stochastic], help="batch vs streaming explained variance"
    )
    compare.add_argument("--mode", choices=MODES, default="adaptive-full")
    compare.add_argument("--learning-rate", type=float, help="Oja step size")
    eig = sub.add_parser(
        "eigenfunctions", parents=[common, run], help="per-component score time series"
    )
    eig.add_argument("--mode", choices=("batch", "adaptive-full", "adaptive-limited"), default="batch")
    eig.add_argument(
        "--components", type=_int_list, default="1", help="1-based component list, e.g. 1,5,10"
    )
    counters = sub.add_parser(
        "counters", parents=[common, run, stochastic], help="per-step inner-product counts"
    )
    counters.add_argument("--mode", choices=ADAPTIVE_MODES, default="adaptive-stochastic")
    dump = sub.add_parser(
        "synth-dump", parents=[common], help="write a synthetic dataset as raw files"
    )
    # meta.json records every setting; where a subcommand has no flag for one,
    # it records compare's default, or batch mode and no components
    parser.set_defaults(**{**vars(compare.parse_args([])), "mode": "batch", "components": []})
    for subparser, runner in ((compare, run_compare), (eig, run_eigenfunctions),
                              (counters, run_counters), (dump, run_synth_dump)):
        subparser.set_defaults(run=runner)
    return parser


def main(argv=None) -> int:
    """Resolve the flags, load the dataset once and run the chosen subcommand on it."""
    args = build_parser().parse_args(argv, argparse.Namespace(started=time.perf_counter()))
    try:
        cfg = _config_from_args(args)
        cfg.run(cfg, *load_dataset(cfg))
    except (StreamPcaError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
