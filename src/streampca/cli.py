"""Experiment runner.

Subcommands reproduce the three experiment families end to end and emit
plot-ready CSV artifacts plus a JSON run record:

* ``compare``: explained-variance curves of batch PCA against a streaming
  mode (full, limited, stochastic, or the Oja baseline), with curve gaps.
* ``eigenfunctions``: per-component score time series.
* ``counters``: per-step inner-product counts of a streaming run.
* ``synth-dump``: write a synthetic dataset as raw volume files.

All numeric CSV payloads are byte-identical across invocations with the
same configuration and seeds; wall-clock facts live only in meta.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adaptive import AdaptiveConfig, OjaState, oja_update, run_adaptive
from .batch import EigenSpace, _centered_matrix, dual_pca
from .core import SampleStore, StreamPcaError, normalize
from .data import (
    GENERATORS,
    DatasetMeta,
    load_pgm_sequence,
    load_raw_volumes,
    save_raw_volumes,
    synth,
)
from .evaluate import CurveSeries, curve_gap, eigenfunctions, explained_variance, mean_curve

MODES = ("batch", "adaptive-full", "adaptive-limited", "adaptive-stochastic", "oja")


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, resolved from CLI flags."""

    dataset: dict
    mode: str = "batch"
    space_limit: int = 20
    processing_limit: int | None = None
    runs: int = 0
    seeds: list = field(default_factory=list)
    centered: bool = False
    learning_rate: float = 0.01
    components: list = field(default_factory=list)
    output_dir: Path = Path(".")

    def validate(self, n_steps: int) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.runs != len(self.seeds):
            raise ValueError(
                f"runs ({self.runs}) must equal the number of seeds ({len(self.seeds)})"
            )
        if self.mode == "adaptive-stochastic":
            limit = self.processing_limit if self.processing_limit is not None else 40
            if limit >= n_steps:
                raise ValueError(
                    f"stochastic mode needs processing_limit < n ({limit} >= {n_steps})"
                )
            if not self.seeds:
                raise ValueError("stochastic mode needs at least one seed")

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "mode": self.mode,
            "space_limit": self.space_limit,
            "processing_limit": self.processing_limit,
            "runs": self.runs,
            "seeds": list(self.seeds),
            "centered": self.centered,
            "learning_rate": self.learning_rate,
            "components": list(self.components),
        }


def _parse_seeds(text: str) -> list:
    """Seed list syntax: '1..10' (inclusive range) or '1,2,3'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s.strip()]


def load_dataset(cfg: ExperimentConfig) -> tuple[SampleStore, DatasetMeta]:
    """Materialize the configured dataset, pre-centering when requested."""
    ds = cfg.dataset
    kind = ds["kind"]
    if kind == "synth":
        store, meta = synth(
            ds["generator"], ds["d"], ds["n"], params=ds.get("params"), seed=ds.get("seed", 0)
        )
    elif kind == "volumes":
        store, meta = load_raw_volumes(
            ds["pattern"],
            ds["shape"],
            element_type=ds.get("dtype", "f32"),
            byte_order=ds.get("byte_order", "little"),
            scale=ds.get("scale", True),
            manifest=ds.get("manifest"),
        )
        _print_order(meta)
    elif kind == "frames":
        store, meta = load_pgm_sequence(
            ds["directory"], scale=ds.get("scale", True), manifest=ds.get("manifest")
        )
        _print_order(meta)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if cfg.centered:
        store = SampleStore.from_matrix(_centered_matrix(store, True))
    return store, meta


def _print_order(meta: DatasetMeta) -> None:
    print(f"time order resolved for {meta.name} ({meta.steps} steps):")
    for f in meta.source.get("files", []):
        print(f"  {f}")


def _adaptive_config(cfg: ExperimentConfig, store: SampleStore, seed: int, stochastic: bool) -> AdaptiveConfig:
    n = store.count
    space = min(store.dim, n) if cfg.mode == "adaptive-full" else cfg.space_limit
    if stochastic:
        limit = cfg.processing_limit if cfg.processing_limit is not None else 40
    else:
        limit = n
    return AdaptiveConfig(space_limit=space, processing_limit=limit, seed=seed)


def _deterministic_limit(cfg: ExperimentConfig, store: SampleStore) -> AdaptiveConfig:
    return _adaptive_config(cfg, store, seed=0, stochastic=False)


def _oja_curve(store: SampleStore, learning_rate: float) -> CurveSeries:
    state = OjaState(component=normalize(store[0]), learning_rate=learning_rate)
    for j in range(1, store.count):
        state = oja_update(state, store[j])
    space = EigenSpace(dim=store.dim, components=state.component[None, :])
    return explained_variance(space, store, label="oja")


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


def _write_meta(path: Path, meta: DatasetMeta, cfg: ExperimentConfig, extra: dict) -> None:
    record = {
        "version": __version__,
        "dataset": meta.as_dict(),
        "config": cfg.as_dict(),
    }
    record.update(extra)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


class _RunArtifacts:
    """Tracks written files so a failed run leaves nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.paths.append(p)
        return p

    def discard(self) -> None:
        for p in self.paths:
            try:
                p.unlink()
            except FileNotFoundError:
                pass


def run_compare(cfg: ExperimentConfig) -> dict:
    """Batch-vs-streaming comparison; writes curves.csv, gap.txt, meta.json."""
    t0 = time.perf_counter()
    store, meta = load_dataset(cfg)
    cfg.validate(store.count)
    curves: list[CurveSeries] = []
    dot_totals: dict[str, int] = {}

    batch_space = dual_pca(store, centered=False)
    batch_curve = explained_variance(batch_space, store, label="batch")
    batch_curve.centered = cfg.centered
    curves.append(batch_curve)

    if cfg.mode in ("adaptive-full", "adaptive-limited", "adaptive-stochastic"):
        det_state = run_adaptive(store, _deterministic_limit(cfg, store))
        det_curve = explained_variance(det_state.eigenspace(), store, label="adaptive")
        det_curve.centered = cfg.centered
        curves.append(det_curve)
        dot_totals["adaptive"] = det_state.counter.dot_products
    if cfg.mode == "adaptive-stochastic":
        stochastic = []
        for seed in cfg.seeds:
            run_cfg = _adaptive_config(cfg, store, seed, stochastic=True)
            state = run_adaptive(store, run_cfg)
            curve = explained_variance(
                state.eigenspace(), store, label=f"stochastic_seed{seed}"
            )
            curve.centered = cfg.centered
            stochastic.append(curve)
            dot_totals[curve.label] = state.counter.dot_products
        curves.extend(stochastic)
        curves.append(mean_curve(stochastic, label="stochastic_mean"))
    if cfg.mode == "oja":
        curve = _oja_curve(store, cfg.learning_rate)
        curve.centered = cfg.centered
        curves.append(curve)

    artifacts = _RunArtifacts(cfg.output_dir)
    try:
        _write_curves_csv(artifacts.path("curves.csv"), curves)
        gaps = {}
        gap_lines = []
        for c in curves[1:]:
            gap = curve_gap(batch_curve, c)
            m = min(len(batch_curve), len(c))
            gaps[c.label] = gap
            gap_lines.append(f"{c.label} vs batch: {_fmt(gap)} pp (first {m} components)")
        artifacts.path("gap.txt").write_text("\n".join(gap_lines) + "\n")
        _write_meta(
            artifacts.path("meta.json"),
            meta,
            cfg,
            {
                "dot_products": dot_totals,
                "gaps_pp": {k: float(v) for k, v in gaps.items()},
                "wall_time_s": time.perf_counter() - t0,
            },
        )
    except BaseException:
        artifacts.discard()
        raise
    return {"curves": curves, "gaps": gaps, "paths": artifacts.paths}


def run_eigenfunctions(cfg: ExperimentConfig) -> dict:
    """Score time series for selected components; writes eigenfunctions.csv."""
    t0 = time.perf_counter()
    store, meta = load_dataset(cfg)
    cfg.validate(store.count)
    if cfg.mode in ("adaptive-full", "adaptive-limited"):
        space = run_adaptive(store, _deterministic_limit(cfg, store)).eigenspace()
    else:
        space = dual_pca(store, centered=False)
    wanted = cfg.components or [1]
    for c in wanted:
        if c < 1 or c > len(space):
            raise ValueError(
                f"component {c} out of range; the space has {len(space)} components"
            )
    funcs = eigenfunctions(space, store)
    artifacts = _RunArtifacts(cfg.output_dir)
    try:
        lines = ["t," + ",".join(f"f{c}" for c in wanted)]
        for t in range(funcs.step_count):
            cells = [str(t + 1)] + [_fmt(funcs.values[c - 1, t]) for c in wanted]
            lines.append(",".join(cells))
        artifacts.path("eigenfunctions.csv").write_text("\n".join(lines) + "\n")
        _write_meta(
            artifacts.path("meta.json"), meta, cfg, {"wall_time_s": time.perf_counter() - t0}
        )
    except BaseException:
        artifacts.discard()
        raise
    return {"paths": artifacts.paths, "values": funcs}


def run_counters(cfg: ExperimentConfig) -> dict:
    """Per-step inner-product counts of one streaming run; writes counters.csv."""
    t0 = time.perf_counter()
    store, meta = load_dataset(cfg)
    if cfg.mode not in ("adaptive-full", "adaptive-limited", "adaptive-stochastic"):
        raise ValueError("counters requires one of the adaptive modes")
    stochastic = cfg.mode == "adaptive-stochastic"
    if stochastic and not cfg.seeds:
        cfg.seeds = [0]
        cfg.runs = 1
    cfg.validate(store.count)
    seed = cfg.seeds[0] if cfg.seeds else 0
    state = run_adaptive(store, _adaptive_config(cfg, store, seed, stochastic))
    artifacts = _RunArtifacts(cfg.output_dir)
    try:
        lines = ["step,dot_products"]
        for step, count in state.counter.per_step_log:
            lines.append(f"{step},{count}")
        artifacts.path("counters.csv").write_text("\n".join(lines) + "\n")
        _write_meta(
            artifacts.path("meta.json"),
            meta,
            cfg,
            {
                "dot_products": {"total": state.counter.dot_products},
                "wall_time_s": time.perf_counter() - t0,
            },
        )
    except BaseException:
        artifacts.discard()
        raise
    return {"paths": artifacts.paths, "log": state.counter.per_step_log}


def run_synth_dump(cfg: ExperimentConfig, dtype: str, byte_order: str) -> dict:
    """Write a synthetic dataset as raw volume files plus a manifest."""
    store, meta = load_dataset(cfg)
    artifacts = _RunArtifacts(cfg.output_dir)
    try:
        paths = save_raw_volumes(
            store, cfg.output_dir, element_type=dtype, byte_order=byte_order, scale=True
        )
        artifacts.paths.extend(paths)
        manifest = artifacts.path("manifest.txt")
        manifest.write_text("\n".join(p.name for p in paths) + "\n")
        _write_meta(artifacts.path("meta.json"), meta, cfg, {"dtype": dtype})
    except BaseException:
        artifacts.discard()
        raise
    print(f"wrote {len(paths)} time-steps to {cfg.output_dir}")
    return {"paths": artifacts.paths}


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
        params = {}
        if args.rank is not None:
            params["rank"] = args.rank
        if args.sigma is not None:
            params["sigma"] = args.sigma
        if args.speed is not None:
            params["speed"] = args.speed
        if args.decay is not None:
            params["decay"] = args.decay
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
        shape = tuple(int(s) for s in args.shape.split(","))
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


def _config_from_args(args) -> ExperimentConfig:
    seeds = _parse_seeds(args.seeds) if getattr(args, "seeds", None) else []
    runs = getattr(args, "runs", None)
    if runs is None:
        runs = len(seeds)
    elif not seeds:
        seeds = list(range(1, runs + 1))
    components = (
        [int(c) for c in args.components.split(",")]
        if getattr(args, "components", None)
        else []
    )
    return ExperimentConfig(
        dataset=_dataset_from_args(args),
        mode=getattr(args, "mode", "batch"),
        space_limit=getattr(args, "space_limit", 20),
        processing_limit=getattr(args, "processing_limit", None),
        runs=runs,
        seeds=seeds,
        centered=getattr(args, "centered", False),
        learning_rate=getattr(args, "learning_rate", 0.01),
        components=components,
        output_dir=Path(args.out),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streampca",
        description="streaming PCA experiments with explained-variance comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="batch vs streaming explained variance")
    _add_dataset_flags(compare)
    compare.add_argument("--mode", choices=MODES, default="adaptive-full")
    compare.add_argument("--space-limit", type=int, default=20)
    compare.add_argument("--processing-limit", type=int)
    compare.add_argument("--runs", type=int)
    compare.add_argument("--seeds", help="stochastic seeds: '1..10' or '1,2,3'")
    compare.add_argument("--centered", action="store_true", help="pre-center the stream")
    compare.add_argument("--learning-rate", type=float, default=0.01, help="Oja step size")
    compare.add_argument("--out", default="out", help="output directory")

    eig = sub.add_parser("eigenfunctions", help="per-component score time series")
    _add_dataset_flags(eig)
    eig.add_argument("--mode", choices=("batch", "adaptive-full", "adaptive-limited"), default="batch")
    eig.add_argument("--space-limit", type=int, default=20)
    eig.add_argument("--processing-limit", type=int)
    eig.add_argument("--components", default="1", help="1-based component list, e.g. 1,5,10")
    eig.add_argument("--centered", action="store_true")
    eig.add_argument("--out", default="out")

    counters = sub.add_parser("counters", help="per-step inner-product counts")
    _add_dataset_flags(counters)
    counters.add_argument(
        "--mode",
        choices=("adaptive-full", "adaptive-limited", "adaptive-stochastic"),
        default="adaptive-stochastic",
    )
    counters.add_argument("--space-limit", type=int, default=20)
    counters.add_argument("--processing-limit", type=int)
    counters.add_argument("--seeds", help="seed for the stochastic run")
    counters.add_argument("--centered", action="store_true")
    counters.add_argument("--out", default="out")

    dump = sub.add_parser("synth-dump", help="write a synthetic dataset as raw files")
    _add_dataset_flags(dump)
    dump.add_argument("--out", default="out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "compare":
            result = run_compare(cfg)
            for label, gap in result["gaps"].items():
                print(f"{label} vs batch: {gap:.4f} pp")
        elif args.command == "eigenfunctions":
            run_eigenfunctions(cfg)
        elif args.command == "counters":
            run_counters(cfg)
        elif args.command == "synth-dump":
            if not args.synth:
                raise ValueError("synth-dump requires --synth")
            run_synth_dump(cfg, args.dtype, args.byte_order)
        return 0
    except (StreamPcaError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
