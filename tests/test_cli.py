import csv
import gc
import importlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import streampca
from streampca import cli
from streampca.cli import main

from conftest import overflowing_store


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(path, name):
    header, rows = _read_csv(path)
    i = header.index(name)
    return [float(r[i]) for r in rows if r[i] != ""]


def _child_env():
    # a child process imports the same package as this process, also when pytest
    # put src/ on sys.path itself (pyproject's pythonpath) rather than PYTHONPATH
    src = str(Path(streampca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestCompare:
    def test_adaptive_full_batch_reaches_one(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "60",
                "--n", "30",
                "--rank", "5",
                "--sigma", "0.05",
                "--seed", "42",
                "--mode", "adaptive-full",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, _ = _read_csv(out / "curves.csv")
        assert header == ["component", "batch", "adaptive"]
        batch = _column(out / "curves.csv", "batch")
        assert abs(batch[-1] - 1.0) <= 1e-9
        assert (out / "gap.txt").exists()
        assert (out / "meta.json").exists()

    def test_batch_mode_rank_two_wave(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--synth", "traveling_wave",
                "--d", "64",
                "--n", "40",
                "--mode", "batch",
                "--out", str(out),
            ]
        )
        assert rc == 0
        batch = _column(out / "curves.csv", "batch")
        assert abs(batch[1] - 1.0) <= 1e-9

    def test_stochastic_emits_runs_and_mean(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "40",
                "--n", "30",
                "--rank", "4",
                "--sigma", "0.02",
                "--seed", "3",
                "--mode", "adaptive-stochastic",
                "--space-limit", "8",
                "--processing-limit", "6",
                "--seeds", "1..3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, _ = _read_csv(out / "curves.csv")
        assert header == [
            "component",
            "batch",
            "adaptive",
            "stochastic_seed1",
            "stochastic_seed2",
            "stochastic_seed3",
            "stochastic_mean",
        ]
        det = _column(out / "curves.csv", "adaptive")
        mean = _column(out / "curves.csv", "stochastic_mean")
        assert abs(mean[-1] - det[-1]) <= 0.05
        record = json.loads((out / "meta.json").read_text())
        assert "adaptive" in record["dot_products"]
        assert record["config"]["seeds"] == [1, 2, 3]

    def test_one_streaming_run_alive_at_a_time(self, tmp_path, monkeypatch):
        # each streaming state and the batch basis are as large as the dataset;
        # none may outlive its curve
        earlier = []
        original_run, original_pca = cli.run_adaptive, cli.dual_pca

        def tracked(original):
            def call(*args, **kwargs):
                result = original(*args, **kwargs)
                earlier.append(weakref.ref(result))
                return result

            return call

        def checked_run(*args, **kwargs):
            gc.collect()
            assert earlier and all(ref() is None for ref in earlier)
            return tracked(original_run)(*args, **kwargs)

        monkeypatch.setattr(cli, "dual_pca", tracked(original_pca))
        monkeypatch.setattr(cli, "run_adaptive", checked_run)
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "40",
                "--n", "30",
                "--rank", "4",
                "--sigma", "0.02",
                "--seed", "3",
                "--mode", "adaptive-stochastic",
                "--space-limit", "8",
                "--processing-limit", "6",
                "--seeds", "1..3",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        assert len(earlier) == 5  # the batch basis, the deterministic run, three seeds

    def test_oja_mode(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "30",
                "--n", "20",
                "--rank", "2",
                "--sigma", "0.01",
                "--mode", "oja",
                "--learning-rate", "0.05",
                "--out", str(out),
            ]
        )
        assert rc == 0
        oja = _column(out / "curves.csv", "oja")
        assert len(oja) == 1
        assert 0.0 <= oja[0] <= 1.0

    def test_oja_curve_is_the_library_component(self, tmp_path):
        # the oja column of test_oja_mode's run is explained_variance of oja() on its store
        store, _ = streampca.synth("lowrank", d=30, n=20, params={"rank": 2, "sigma": 0.01})
        space = streampca.EigenSpace(streampca.oja(store, 0.05))
        value = repr(float(streampca.explained_variance(space, store).values[0]))
        assert value == "0.52846094437307"  # frozen from the verified run
        argv = ["compare", "--synth", "lowrank", "--d", "30", "--n", "20", "--rank", "2",
                "--sigma", "0.01", "--mode", "oja", "--learning-rate", "0.05"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "curves.csv")
        assert header == ["component", "batch", "oja"]
        assert rows[0][2] == value

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "compare",
            "--synth", "lowrank",
            "--d", "30",
            "--n", "20",
            "--rank", "3",
            "--sigma", "0.05",
            "--seed", "11",
            "--mode", "adaptive-stochastic",
            "--space-limit", "6",
            "--processing-limit", "5",
            "--seeds", "1,2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
        assert (out_a / "gap.txt").read_bytes() == (out_b / "gap.txt").read_bytes()

    def test_stochastic_requires_small_processing_limit(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "20",
                "--n", "10",
                "--mode", "adaptive-stochastic",
                "--processing-limit", "50",
                "--seeds", "1",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "processing_limit" in capsys.readouterr().err

    def test_centered_flag_recorded(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--d", "20",
                "--n", "12",
                "--rank", "2",
                "--sigma", "0.01",
                "--mode", "batch",
                "--centered",
                "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads((out / "meta.json").read_text())
        assert record["config"]["centered"] is True

    def test_centered_curves_match_library(self, tmp_path):
        # --centered curves are the library's curves of center(store), float for float
        dataset = ["--synth", "lowrank", "--d", "40", "--n", "30", "--rank", "4"]
        dataset += ["--sigma", "0.05", "--seed", "7"]
        run = ["compare", *dataset, "--mode", "adaptive-limited", "--space-limit", "6"]
        assert main([*run, "--centered", "--out", str(tmp_path / "centered")]) == 0
        assert main([*run, "--out", str(tmp_path / "raw")]) == 0
        store, _ = streampca.synth(
            "lowrank", d=40, n=30, params={"rank": 4, "sigma": 0.05}, seed=7
        )
        centered = streampca.center(store)
        batch = streampca.explained_variance(streampca.dual_pca(centered), centered)
        config = streampca.AdaptiveConfig(space_limit=6, processing_limit=30)
        state = streampca.run_adaptive(centered, config)
        adaptive = streampca.explained_variance(state.eigenspace(), centered)
        for label, curve in (("batch", batch), ("adaptive", adaptive)):
            got = _column(tmp_path / "centered" / "curves.csv", label)
            assert got == curve.values.tolist()
            assert got != _column(tmp_path / "raw" / "curves.csv", label)

    def test_frames_dir_curves_match_library(self, tmp_path):
        # --frames-dir reads the frames as load_pgm_sequence does, float for float
        frames = tmp_path / "frames"
        frames.mkdir()
        for t in range(10):
            pixels = (np.arange(48) * 37 + 11 * t) % 256
            (frames / f"f{t:02d}.pgm").write_bytes(b"P5\n8 6\n255\n" + bytes(pixels.tolist()))
        argv = ["compare", "--frames-dir", str(frames), "--mode", "batch"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        store, _ = streampca.load_pgm_sequence(frames)
        batch = streampca.explained_variance(streampca.dual_pca(store), store)
        assert _column(tmp_path / "run" / "curves.csv", "batch") == batch.values.tolist()

    def test_centred_limited_run_ends_one_component_short(self, tmp_path):
        # the run's last residual drops while its space is full, and the trailing component
        # the step did not update goes with it; kept, it broke the curve's [0, 1] bound
        out = tmp_path / "run"
        argv = shlex.split(
            "compare --synth lowrank --d 300 --n 60 --rank 10 --sigma 0.05 --seed 3"
            " --mode adaptive-limited --space-limit 10 --centered"
        )
        assert main([*argv, "--out", str(out)]) == 0
        assert len(_column(out / "curves.csv", "adaptive")) == 9

    def test_centred_space_one_run_keeps_its_component(self, tmp_path):
        # a centred run's last residual drops, and a space of one has no updated component
        # to fall back on: the lone component stays instead of leaving the space empty
        out = tmp_path / "run"
        argv = shlex.split(
            "compare --synth lowrank --d 50 --n 20 --mode adaptive-limited --space-limit 1 --centered"
        )
        assert main([*argv, "--out", str(out)]) == 0
        assert len(_column(out / "curves.csv", "adaptive")) == 1


class TestEigenfunctions:
    def test_toy_axis_stream_returns_coordinates(self, tmp_path):
        data_dir = tmp_path / "vol"
        data_dir.mkdir()
        (data_dir / "t0.raw").write_bytes(np.array([3, 0, 0, 0], dtype="<f4").tobytes())
        (data_dir / "t1.raw").write_bytes(np.array([0, 2, 0, 0], dtype="<f4").tobytes())
        out = tmp_path / "run"
        rc = main(
            [
                "eigenfunctions",
                "--volumes", str(data_dir / "*.raw"),
                "--shape", "4",
                "--dtype", "f32",
                "--components", "1,2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = _read_csv(out / "eigenfunctions.csv")
        assert header == ["t", "f1", "f2"]
        values = np.array([[float(c) for c in r[1:]] for r in rows])
        assert np.allclose(values, [[3.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_quadrature_columns(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "eigenfunctions",
                "--synth", "traveling_wave",
                "--d", "64",
                "--n", "40",
                "--speed", "1.6",
                "--components", "1,2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        f1 = np.array(_column(out / "eigenfunctions.csv", "f1"))
        f2 = np.array(_column(out / "eigenfunctions.csv", "f2"))
        t = np.arange(40)
        omega = 2.0 * np.pi * 1.6 / 64.0
        design = np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
        for f in (f1, f2):
            coef, *_ = np.linalg.lstsq(design, f, rcond=None)
            resid = np.linalg.norm(f - design @ coef) / np.linalg.norm(f)
            assert resid < 1e-6

    def test_component_out_of_range(self, tmp_path, capsys):
        rc = main(
            [
                "eigenfunctions",
                "--synth", "lowrank",
                "--d", "20",
                "--n", "10",
                "--rank", "2",
                "--sigma", "0.0",
                "--components", "11",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "out of range" in capsys.readouterr().err
        assert not (tmp_path / "x" / "eigenfunctions.csv").exists()


    def test_empty_component_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["eigenfunctions", "--synth", "lowrank", "--d", "20", "--n", "10"]
        assert main(argv + ["--components", "", "--out", str(out)]) == 1
        assert "empty" in capsys.readouterr().err
        assert not out.exists()


class TestCounters:
    def test_stochastic_counts_constant_after_limit(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "counters",
                "--synth", "cascade",
                "--d", "50",
                "--n", "120",
                "--rank", "5",
                "--mode", "adaptive-stochastic",
                "--space-limit", "10",
                "--processing-limit", "40",
                "--seeds", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = _read_csv(out / "counters.csv")
        assert header == ["step", "dot_products"]
        tail = [int(r[1]) for r in rows if int(r[0]) > 41]
        assert len(set(tail)) == 1

    def test_full_mode_counts_strictly_increase(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "counters",
                "--synth", "lowrank",
                "--d", "30",
                "--n", "50",
                "--rank", "4",
                "--sigma", "0.05",
                "--mode", "adaptive-full",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, rows = _read_csv(out / "counters.csv")
        counts = [int(r[1]) for r in rows]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_limited_mode_ratio_converges(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "counters",
                "--synth", "lowrank",
                "--d", "40",
                "--n", "150",
                "--rank", "4",
                "--sigma", "0.05",
                "--mode", "adaptive-limited",
                "--space-limit", "10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, rows = _read_csv(out / "counters.csv")
        pairs = [(int(r[0]), int(r[1])) for r in rows]
        ratios = [c / s for s, c in pairs if s > 100]
        spread = (max(ratios) - min(ratios)) / ratios[-1]
        assert spread <= 0.05

    def test_rejects_more_than_one_seed(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "counters",
                "--synth", "lowrank",
                "--d", "20",
                "--n", "30",
                "--mode", "adaptive-stochastic",
                "--processing-limit", "5",
                "--seeds", "1..3",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "one seed" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_empty_seed_range(self, tmp_path, capsys):
        # an explicit empty range is not an omitted --seeds: no fallback to seed 0
        out = tmp_path / "run"
        rc = main(
            [
                "counters",
                "--synth", "lowrank",
                "--d", "20",
                "--n", "60",
                "--seeds", "5..3",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "stochastic mode needs at least one seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, mode", [("compare", "adaptive-limited"), ("counters", "adaptive-full")]
    )
    def test_rejects_empty_seed_range_outside_stochastic_mode(
        self, tmp_path, capsys, command, mode
    ):
        # an explicit --seeds, even an empty range, is as wrong here as --seeds 5
        out = tmp_path / "run"
        rc = main(
            [
                command,
                "--synth", "lowrank",
                "--d", "20",
                "--n", "30",
                "--mode", mode,
                "--seeds", "5..3",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert f"{mode} mode takes no processing_limit or seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_batch_mode(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "counters",
                    "--synth", "lowrank",
                    "--d", "20",
                    "--n", "10",
                    "--mode", "batch",
                    "--out", str(tmp_path / "x"),
                ]
            )
        assert err.value.code == 2


class TestSynthDump:
    def test_dump_and_reload(self, tmp_path):
        # the same --dtype and --byte-order write the files and read them back; the curve
        # is the library's of the files, so a flag the CLI dropped would move it
        for dtype, byte_order in (("f32", "little"), ("u16", "big")):
            out, run_out = tmp_path / dtype / "dump", tmp_path / dtype / "run"
            encoding = ["--dtype", dtype, "--byte-order", byte_order]
            dataset = ["--synth", "rotating_blob", "--d", "36", "--n", "5", "--seed", "2"]
            assert main(["synth-dump", *dataset, *encoding, "--out", str(out)]) == 0
            assert (out / "manifest.txt").exists()
            raws = sorted(out.glob("*.raw"))
            assert len(raws) == 5
            volumes = ["--volumes", str(out / "*.raw"), "--shape", "6,6", *encoding]
            assert main(["compare", *volumes, "--mode", "batch", "--out", str(run_out)]) == 0
            batch = _column(run_out / "curves.csv", "batch")
            assert abs(batch[-1] - 1.0) <= 1e-9
            store, _ = streampca.load_raw_volumes(str(out / "*.raw"), (6, 6), dtype, byte_order)
            library = streampca.explained_variance(streampca.dual_pca(store), store)
            assert batch == library.values.tolist()


class TestNoPartialArtifacts:
    def test_failed_compare_keeps_earlier_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        argv = [
            "compare",
            "--synth", "lowrank",
            "--d", "30",
            "--n", "12",
            "--rank", "3",
            "--mode", "adaptive-full",
            "--out", str(out),
        ]
        assert main(argv + ["--seed", "1"]) == 0
        earlier = (out / "curves.csv").read_bytes()
        staged = []

        def failing_meta(path, *args):
            staged.extend(sorted(p.name for p in path.parent.iterdir()))
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_meta", failing_meta)
        assert main(argv + ["--seed", "2"]) == 1
        assert staged == ["curves.csv", "gap.txt"]
        assert (out / "curves.csv").read_bytes() == earlier
        assert not list(out.glob(".staging-*"))

    def test_failed_rename_leaves_no_meta_json(self, tmp_path, capsys):
        # a rename that fails part way leaves new files but no meta.json, so a
        # directory that holds a meta.json holds one run's whole output
        out = tmp_path / "out"
        argv = ["compare", "--synth", "lowrank", "--d", "20", "--out", str(out)]
        assert main(argv + ["--n", "12", "--mode", "batch"]) == 0
        (out / "gap.txt").unlink()
        (out / "gap.txt").mkdir()
        assert main(argv + ["--n", "13", "--mode", "adaptive-full"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "meta.json").exists()
        assert (out / "gap.txt").is_dir()
        assert not list(out.glob(".staging-*"))

    def test_run_killed_between_renames_leaves_no_meta_json(self, tmp_path):
        # a child compare kills itself right after its first rename, the new curves.csv:
        # the earlier run's meta.json is gone, so no meta.json vouches for mixed files
        out = tmp_path / "out"
        argv = ["compare", "--synth", "lowrank", "--d", "20", "--n", "12", "--mode", "batch"]
        assert main(argv + ["--out", str(out)]) == 0
        earlier = (out / "curves.csv").read_bytes()
        child = (
            "import os, signal, sys\n"
            "from streampca import cli\n"
            "replace = os.replace\n"
            "def replace_then_die(src, dst):\n"
            "    replace(src, dst)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.replace = replace_then_die\n"
            "cli.main(sys.argv[1:])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv, "--seed", "1", "--out", str(out)],
            capture_output=True,
            env=_child_env(),
        )
        assert proc.returncode == -signal.SIGKILL
        assert not (out / "meta.json").exists()
        assert (out / "curves.csv").read_bytes() != earlier

    def test_meta_json_is_renamed_last(self, tmp_path, monkeypatch):
        renamed = []
        replace = os.replace

        def recording_replace(src, dst):
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording_replace)
        argv = ["synth-dump", "--synth", "cascade", "--d", "8", "--n", "3"]
        assert main(argv + ["--out", str(tmp_path / "dump")]) == 0
        steps = [f"step_{t:04d}.raw" for t in range(3)]
        assert renamed == ["manifest.txt", *steps, "meta.json"]

    def test_failed_synth_dump_publishes_no_raw_files(self, tmp_path, monkeypatch):
        original = cli.save_raw_volumes

        def failing_save(*args, **kwargs):
            written = original(*args, **kwargs)
            assert written and all(p.exists() for p in written)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_raw_volumes", failing_save)
        out = tmp_path / "dump"
        rc = main(
            [
                "synth-dump",
                "--synth", "rotating_blob",
                "--d", "36",
                "--n", "5",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert not list(out.glob("step_*.raw"))
        assert not list(out.glob(".staging-*"))


class TestErrors:
    def test_requires_exactly_one_dataset(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--synth", "lowrank",
                "--volumes", "x/*.raw",
                "--shape", "4",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_missing_volume_files(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--volumes", str(tmp_path / "none" / "*.raw"),
                "--shape", "4",
                "--mode", "batch",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert not (tmp_path / "x" / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "counters", "eigenfunctions"])
    def test_non_finite_volume_fails_with_one_message(self, tmp_path, capsys, command):
        # the loader's store refuses the sample, so every subcommand names its time-step
        for t in range(6):
            values = np.arange(8, dtype="<f4") + t
            if t == 3:
                values[2] = np.nan
            (tmp_path / f"step_{t}.raw").write_bytes(values.tobytes())
        out = tmp_path / "out"
        volumes = str(tmp_path / "step_*.raw")
        rc = main([command, "--volumes", volumes, "--shape", "8", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: time-step 4 has NaN or infinite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["batch", "adaptive-limited", "adaptive-stochastic", "oja"])
    def test_overflowing_samples_fail_with_one_message(self, tmp_path, capsys, monkeypatch, mode):
        # finite samples whose squares overflow: the oracle's Gram, which every mode
        # computes first, refuses them with the stream's typed error
        monkeypatch.setattr(cli, "load_dataset", lambda cfg: (overflowing_store(), None))
        out = tmp_path / "out"
        argv = ["compare", "--synth", "lowrank", "--d", "3", "--n", "4", "--mode", mode]
        if mode == "adaptive-stochastic":
            argv += ["--space-limit", "2", "--processing-limit", "2", "--seeds", "1..2"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: the samples' inner products overflow float64\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--mode", "adaptive-full", "--seeds", "1"],
            ["compare", "--mode", "adaptive-limited", "--processing-limit", "5"],
            ["compare", "--mode", "batch", "--seeds", "1..2"],
            ["compare", "--mode", "oja", "--processing-limit", "5"],
            ["counters", "--mode", "adaptive-limited", "--seeds", "1"],
            ["counters", "--mode", "adaptive-full", "--processing-limit", "5"],
        ],
    )
    def test_stochastic_flags_rejected_in_other_modes(self, tmp_path, capsys, argv):
        # these modes correlate every previous sample and draw nothing
        out = tmp_path / "run"
        rc = main(argv + ["--synth", "lowrank", "--d", "20", "--n", "12", "--out", str(out)])
        assert rc == 1
        assert "takes no processing_limit or seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--mode", "adaptive-limited", "--processing-limit", "5"], "takes no"),
            (["compare", "--mode", "adaptive-stochastic", "--seeds", "5..3"], "at least one seed"),
            (["counters", "--seeds", "1..3"], "runs one stream; give one seed"),
            (["counters", "--mode", "adaptive-full", "--seeds", "1"], "takes no"),
            (["synth-dump"], "synth-dump requires --synth"),
            (["compare", "--mode", "adaptive-limited", "--space-limit", "0"], "space_limit must be >= 1"),
            (["counters", "--space-limit", "-3"], "space_limit must be >= 1"),
            (["compare", "--mode", "batch", "--space-limit", "0"], "batch mode takes no space_limit"),
            (
                ["compare", "--mode", "adaptive-stochastic", "--seeds", "1", "--processing-limit", "0"],
                "processing_limit must be >= 1",
            ),
            (["counters", "--processing-limit", "-2"], "processing_limit must be >= 1"),
            (["eigenfunctions", "--components", "0"], "an entry below 1"),
            (["eigenfunctions", "--components", "2,-1"], "an entry below 1"),
            (["eigenfunctions", "--components", ""], "are empty"),
            (["compare", "--mode", "adaptive-stochastic", "--seeds", "1,1"], "repeat a seed"),
            (["compare", "--mode", "adaptive-stochastic", "--seeds", "2,1,2"], "repeat a seed"),
            (["compare", "--mode", "adaptive-full", "--space-limit", "5"], "takes no space_limit"),
            (["compare", "--mode", "oja", "--space-limit", "20"], "takes no space_limit"),
            (["eigenfunctions", "--space-limit", "5"], "batch mode takes no space_limit"),
            (["eigenfunctions", "--mode", "adaptive-full", "--space-limit", "5"], "takes no space_limit"),
            (["counters", "--mode", "adaptive-full", "--space-limit", "5"], "takes no space_limit"),
            (["compare", "--mode", "adaptive-limited", "--learning-rate", "0.5"], "takes no learning_rate"),
            (["compare", "--mode", "batch", "--learning-rate", "0.01"], "takes no learning_rate"),
            (["eigenfunctions", "--components", "2,1,2"], "repeat a component"),
            (["eigenfunctions", "--components", "1,1"], "repeat a component"),
            (["compare", "--mode", "oja", "--learning-rate", "nan"], "positive and finite, got nan"),
            (["compare", "--mode", "oja", "--learning-rate", "inf"], "positive and finite, got inf"),
            (["compare", "--mode", "oja", "--learning-rate", "-1"], "positive and finite, got -1.0"),
        ],
        ids=[
            "limited-with-limit", "empty-seeds", "counters-3-seeds", "full-with-seed", "dump",
            "space-0", "counters-space-neg", "batch-space-0", "processing-0",
            "counters-processing-neg", "components-0", "components-neg", "components-empty",
            "repeated-seed", "repeated-seed-apart", "full-with-space", "oja-with-space",
            "eigenfunctions-batch-with-space", "eigenfunctions-full-with-space",
            "counters-full-with-space", "limited-with-rate", "batch-with-default-rate",
            "repeated-component-apart", "repeated-component", "oja-rate-nan", "oja-rate-inf",
            "oja-rate-negative",
        ],
    )
    def test_flag_errors_come_before_any_data_is_read(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_load(cfg):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        out = tmp_path / "run"
        dataset = ["--volumes", str(tmp_path / "none" / "*.raw"), "--shape", "4"]
        assert main(argv + dataset + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_volumes_without_shape_are_refused_before_any_data_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_load(cfg):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        out = tmp_path / "run"
        assert main(["compare", "--volumes", str(tmp_path / "*.raw"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --volumes requires --shape\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("-20", "shape (-20,) must hold one or more entries, each at least 1"),
            ("0", "shape (0,) must hold one or more entries, each at least 1"),
            ("4,,5", "--shape '4,,5' is not a comma-separated integer list"),
        ],
    )
    def test_bad_shape_is_refused_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, shape, message
    ):
        (tmp_path / "step_0.raw").write_bytes(bytes(80))
        monkeypatch.setattr(streampca.data, "_load_files", lambda *a, **k: pytest.fail("read"))
        out = tmp_path / "run"
        argv = ["compare", "--volumes", str(tmp_path / "step_*.raw"), "--shape", shape]
        assert main(argv + ["--mode", "batch", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_synthetic_parameter_publishes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["compare", "--synth", "lowrank", "--d", "20", "--n", "12", "--sigma", "nan"]
        assert main(argv + ["--mode", "batch", "--out", str(out)]) == 1
        assert "lowrank parameter 'sigma' must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_synthetic_parameter_publishes_nothing(self, tmp_path, capsys):
        # a finite decay whose powers overflow is one error that names the parameters
        out = tmp_path / "run"
        argv = ["compare", "--synth", "cascade", "--d", "20", "--n", "12", "--decay", "1e200"]
        assert main(argv + ["--mode", "batch", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cascade parameters {'rank': 20, 'sigma': 0.01, 'decay': 1e+200} give no finite data"
        )
        assert not out.exists()

    def test_parameter_the_generator_does_not_read(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["compare", "--synth", "traveling_wave", "--rank", "5", "--sigma", "0.3"]
        assert main(argv + ["--out", str(out)]) == 1
        assert "traveling_wave takes no parameter 'rank'" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_unknown_generator_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compare", "--synth", "fractal", "--out", str(tmp_path / "x")])
        assert err.value.code == 2


def test_meta_records_resolved_stochastic_settings(tmp_path):
    dataset = ["--synth", "lowrank", "--d", "20", "--n", "45", "--space-limit", "4"]
    stochastic = ["--mode", "adaptive-stochastic", "--seeds", "1"]
    assert main(["compare", *dataset, *stochastic, "--out", str(tmp_path / "compare")]) == 0
    assert main(["counters", *dataset, "--out", str(tmp_path / "counters")]) == 0
    for run, seeds in (("compare", [1]), ("counters", [0])):
        config = json.loads((tmp_path / run / "meta.json").read_text())["config"]
        assert config["processing_limit"] == cli.STOCHASTIC_LIMIT == 40
        assert config["seeds"] == seeds
        assert "runs" not in config


@pytest.mark.parametrize(
    "argv, space_limit, learning_rate",
    [
        (["compare", "--mode", "batch"], None, None),
        (["compare", "--mode", "adaptive-full"], None, None),
        (["compare", "--mode", "adaptive-limited"], 20, None),
        (["compare", "--mode", "oja", "--learning-rate", "0.05"], None, 0.05),
        (["eigenfunctions", "--mode", "adaptive-limited", "--space-limit", "3"], 3, None),
        (["counters", "--mode", "adaptive-full"], None, None),
        (["synth-dump"], None, None),
    ],
    ids=["compare-batch", "compare-full", "compare-limited", "compare-oja", "eigenfunctions-limited",
         "counters-full", "synth-dump"],
)
def test_meta_records_null_for_settings_the_mode_does_not_read(
    tmp_path, argv, space_limit, learning_rate
):
    out = tmp_path / "run"
    dataset = ["--synth", "lowrank", "--d", "20", "--n", "12"]
    assert main(argv + dataset + ["--out", str(out)]) == 0
    config = json.loads((out / "meta.json").read_text())["config"]
    assert (config["space_limit"], config["learning_rate"]) == (space_limit, learning_rate)


def test_meta_records_the_numeric_environment(tmp_path, monkeypatch):
    # the settings besides the run's own that decide the CSVs' last bits, as this process has them
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    argv = ["compare", "--synth", "lowrank", "--d", "20", "--n", "12", "--mode", "batch"]
    assert main(argv + ["--out", str(out)]) == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert json.loads((out / "meta.json").read_text())["numeric_environment"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": None,
    }


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "streampca.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "compare" in proc.stdout


def test_readme_quickstart_runs(capsys):
    # README's first python block is self-contained and must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(quickstart, "README.md", "exec"), {})
    assert "percentage points" in capsys.readouterr().out


def test_readme_examples_parse():
    # README's example commands use only flags and flag combinations the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("streampca ")]
    assert {c[1] for c in commands} == {"compare", "eigenfunctions", "counters"}
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        cfg = cli._config_from_args(args)
        if cfg.mode == "adaptive-stochastic":  # the one rule that needs the data
            assert cfg.processing_limit < args.n


def test_readme_module_map_matches_the_package():
    # one short row per module, citing only names its module has, so a rename cannot
    # leave the map stale; each name's docstring holds the detail
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Module map\n", 1)[1]
    rows = list(re.finditer(r"^\| `streampca\.(\w+)` \| (.*) \|$", table, re.M))
    package = Path(streampca.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(row[1] for row in rows) == modules
    for row in rows:
        assert len(row[0]) <= 200, f"the {row[1]} row has {len(row[0])} characters"
        module = importlib.import_module(f"streampca.{row[1]}")
        for cited in re.findall(r"`([^`]*)`", row[2]):
            name = re.fullmatch(r"([A-Za-z_]\w*)(?:\(.*\))?", cited)
            assert name, f"the {row[1]} row cites {cited!r}, which is not a name"
            assert hasattr(module, name[1]), f"streampca.{row[1]} has no {name[1]!r}"


def test_public_names_resolve():
    for name in streampca.__all__:
        assert getattr(streampca, name) is not None
    for gone in (
        "project", "reconstruct", "EigenfunctionMatrix", "OjaState", "oja_update",
        "InsufficientDataError", "RankZeroError",
    ):
        assert gone not in streampca.__all__
        assert not hasattr(streampca, gone)
