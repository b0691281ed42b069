"""Run one fixed matrix of CLI commands on two source trees and compare every output.

    python3 tools/outputs.py TREE_A TREE_B WORKDIR

Each tree runs as ``python -m streampca.cli`` with its own ``src/`` on the
path, from a run directory inside WORKDIR (``run-a``, ``run-b``), so the
paths that meta.json and stdout record are relative and the same on both
sides. Both trees read one set of input files in ``WORKDIR/inputs``: raw
volumes dumped by TREE_A's ``synth-dump`` (f32 cascades, u8 and big-endian
u16 blobs) and 8- and 16-bit PGM frames written here. The same dumps are
also commands of the matrix, so a change to the writer shows as a moved
file.

Both sides run under one ``OPENBLAS_NUM_THREADS``, taken from the
environment (1 when unset) and printed first: the BLAS thread count can
move the last bits of the Gram, and so the CSV cells.

Every output file is compared byte for byte, meta.json without its
``wall_time_s``; so are each command's exit code, stdout and stderr. For
each meta.json that moved, the top-level keys that differ are printed, and
for each other file the largest relative move over its numeric cells. The
exit status is 0 when everything is identical, else 1.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

_MODES = [
    ["--mode", "batch"],
    ["--mode", "adaptive-full"],
    ["--mode", "adaptive-limited", "--space-limit", "5"],
    ["--mode", "adaptive-stochastic", "--space-limit", "5", "--processing-limit", "8",
     "--seeds", "1..3"],
    ["--mode", "oja"],
]

_SYNTH = {
    "lowrank": ["--synth", "lowrank", "--d", "60", "--n", "30", "--rank", "5", "--sigma", "0.05",
                "--seed", "1"],
    "cascade": ["--synth", "cascade", "--d", "200", "--n", "40", "--seed", "9"],
    "blob": ["--synth", "rotating_blob", "--d", "256", "--n", "40"],
    "wave": ["--synth", "traveling_wave", "--d", "100", "--n", "30"],
}

# synth-dump commands that write the shared input volumes, by input directory name
INPUT_DUMPS = {
    "f32": ["synth-dump", *_SYNTH["cascade"]],
    "u8": ["synth-dump", *_SYNTH["blob"], "--dtype", "u8"],
    "u16be": ["synth-dump", *_SYNTH["blob"], "--dtype", "u16", "--byte-order", "big"],
    "cascade-2000": ["synth-dump", "--synth", "cascade", "--d", "2000", "--n", "300",
                     "--seed", "9"],
}

_FILES = {
    "f32": ["--volumes", "../inputs/f32/step_*.raw", "--shape", "200"],
    "u8": ["--volumes", "../inputs/u8/step_*.raw", "--shape", "16,16", "--dtype", "u8"],
    "u16be": ["--volumes", "../inputs/u16be/step_*.raw", "--shape", "16,16", "--dtype", "u16",
              "--byte-order", "big"],
    "u16be-raw": ["--volumes", "../inputs/u16be/step_*.raw", "--shape", "16,16", "--dtype",
                  "u16", "--byte-order", "big", "--raw-values"],
    "f32-manifest": ["--volumes", "unused", "--manifest", "../inputs/f32/manifest.txt",
                     "--shape", "200"],
    "pgm8": ["--frames-dir", "../inputs/pgm8"],
    "pgm16": ["--frames-dir", "../inputs/pgm16"],
    "pgm16-raw": ["--frames-dir", "../inputs/pgm16", "--raw-values"],
}


def _matrix() -> list:
    """(name, argv) of every command, in the order they run."""
    commands = []
    for name in ("f32", "u8", "u16be"):  # the benchmark's input is checked by its compare
        commands.append((f"dump-{name}", [*INPUT_DUMPS[name], "--out", f"out/dump-{name}"]))
    for data, flags in {**_SYNTH, **_FILES}.items():
        for centred in ([], ["--centered"]):
            tag = data + ("-centred" if centred else "")
            for mode in _MODES:
                name = f"compare-{tag}-{mode[1]}"
                argv = ["compare", *flags, *mode, *centred, "--out", f"out/{name}"]
                commands.append((name, argv))
            name = f"eigenfunctions-{tag}"
            commands.append((name, ["eigenfunctions", *flags, "--mode", "adaptive-limited",
                                    "--space-limit", "5", "--components", "1,2", *centred,
                                    "--out", f"out/{name}"]))
        commands.append((f"counters-{data}", ["counters", *flags, "--space-limit", "5",
                                              "--processing-limit", "8", "--seeds", "2",
                                              "--out", f"out/counters-{data}"]))
    # the CLI commands of the benchmark's cascade-compare and lowrank-full workloads
    commands.append(("bench-cascade-compare", [
        "compare", "--volumes", "../inputs/cascade-2000/step_*.raw", "--shape", "2000",
        "--mode", "adaptive-stochastic", "--space-limit", "20", "--processing-limit", "40",
        "--seeds", "1..10", "--out", "out/bench-cascade-compare"]))
    commands.append(("bench-lowrank-full", [
        "compare", "--synth", "lowrank", "--d", "500", "--n", "100", "--rank", "30", "--sigma",
        "0.05", "--seed", "42", "--mode", "adaptive-full", "--out", "out/bench-lowrank-full"]))
    # rejected commands: the exit code and the message are compared too
    commands.append(("space-limit-0", ["compare", *_FILES["u16be"], "--mode", "adaptive-limited",
                                       "--space-limit", "0", "--out", "out/space-limit-0"]))
    commands.append(("repeated-seed", ["compare", *_SYNTH["lowrank"], "--mode",
                                       "adaptive-stochastic", "--space-limit", "5",
                                       "--processing-limit", "8", "--seeds", "1,1",
                                       "--out", "out/repeated-seed"]))
    commands.append(("unread-space-limit", ["compare", *_SYNTH["lowrank"], "--mode",
                                            "adaptive-full", "--space-limit", "5",
                                            "--out", "out/unread-space-limit"]))
    commands.append(("repeated-component", ["eigenfunctions", *_SYNTH["lowrank"], "--components",
                                            "1,2,1", "--out", "out/repeated-component"]))
    for name, flags in (("overflowing-decay", ["--synth", "cascade", "--decay", "1e200"]),
                        ("overflowing-speed", ["--synth", "traveling_wave", "--speed", "1e308"])):
        commands.append((name, ["compare", *flags, "--d", "20", "--n", "12", "--mode", "batch",
                                "--out", f"out/{name}"]))
    return commands


COMMANDS = _matrix()


def _cli(tree: Path, argv: list, cwd: Path, threads: str) -> subprocess.CompletedProcess:
    src = str(Path(tree).resolve() / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "streampca.cli", *argv], cwd=cwd, env=env, capture_output=True
    )


def _write_pgm_frames(directory: Path, maxval: int, steps: int = 16) -> None:
    """A bright bar sliding over 10x12 frames; the headers carry comments and CR line ends."""
    directory.mkdir(parents=True, exist_ok=True)
    dt = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    rows, cols = np.mgrid[0:10, 0:12]
    for t in range(steps):
        frame = (np.cos(2 * np.pi * (cols - 0.7 * t) / 12) + 1) * (rows + 1) / 22 * maxval
        header = f"P5\n# frame {t}\n12 10\r# maxval next\r{maxval}\n".encode()
        pixels = np.rint(frame).astype(dt).tobytes()
        (directory / f"frame_{t:03d}.pgm").write_bytes(header + pixels)


def write_inputs(tree: Path, inputs: Path, threads: str, dumps: dict = INPUT_DUMPS) -> None:
    """The shared input files: ``dumps`` run by ``tree``'s CLI, and the PGM frames."""
    inputs.mkdir(parents=True, exist_ok=True)
    for name, argv in dumps.items():
        done = _cli(tree, [*argv, "--out", name], inputs, threads)
        if done.returncode:
            raise RuntimeError(f"input {name}: {done.stderr.decode()}")
    _write_pgm_frames(inputs / "pgm8", 255)
    _write_pgm_frames(inputs / "pgm16", 65535)


def run_matrix(tree: Path, run_dir: Path, threads: str, commands: list = COMMANDS) -> dict:
    """Run each command from ``run_dir``; returns name -> (exit code, stdout, stderr)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results = {}
    for name, argv in commands:
        done = _cli(tree, argv, run_dir, threads)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def _comparable(path: Path) -> bytes:
    if path.name != "meta.json":
        return path.read_bytes()
    record = json.loads(path.read_text())
    record.pop("wall_time_s", None)
    return json.dumps(record, indent=2, sort_keys=True).encode()


_NUMBER = re.compile(rb"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def largest_relative_move(a: bytes, b: bytes) -> str:
    """The largest relative difference between the numbers of two texts, or why there is none."""
    ta, tb = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(ta) != len(tb) or _NUMBER.sub(b"", a) != _NUMBER.sub(b"", b):
        return "text other than numbers differs"
    move = 0.0
    for x, y in ((float(x), float(y)) for x, y in zip(ta, tb) if x != y):
        scale = max(abs(x), abs(y))
        move = max(move, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return f"largest relative move {move:.3g}"


def compare(run_a: Path, run_b: Path, results_a: dict, results_b: dict) -> tuple[int, list]:
    """(identical output files, one line per difference) between two runs of the matrix."""
    lines = []
    for name in results_a:
        for part, a, b in zip(("exit code", "stdout", "stderr"), results_a[name], results_b[name]):
            if a != b:
                lines.append(f"{name}: {part} differs")
    files_a = {p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        lines.append(f"{rel}: only in {'A' if rel in files_a else 'B'}")
    identical = 0
    for rel in sorted(files_a & files_b):
        a, b = _comparable(run_a / rel), _comparable(run_b / rel)
        if a == b:
            identical += 1
        elif rel.name == "meta.json":
            record_a, record_b = json.loads(a), json.loads(b)
            keys = sorted(k for k in record_a.keys() | record_b.keys()
                          if record_a.get(k) != record_b.get(k))
            lines.append(f"{rel}: moved, keys {', '.join(keys)} differ")
        elif rel.suffix == ".raw":
            differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            lines.append(f"{rel}: moved, {differ} of {max(len(a), len(b))} bytes differ")
        else:
            lines.append(f"{rel}: moved, {largest_relative_move(a, b)}")
    return identical, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree_a, tree_b, work = (Path(a).resolve() for a in args)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    print(f"OPENBLAS_NUM_THREADS={threads}")
    write_inputs(tree_a, work / "inputs", threads)
    results_a = run_matrix(tree_a, work / "run-a", threads)
    results_b = run_matrix(tree_b, work / "run-b", threads)
    identical, lines = compare(work / "run-a", work / "run-b", results_a, results_b)
    print(f"{len(COMMANDS)} commands per tree; {identical} output files identical")
    print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
