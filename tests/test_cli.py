import csv
import gc
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import streampca
from streampca import cli
from streampca.cli import main


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(path, name):
    header, rows = _read_csv(path)
    i = header.index(name)
    return [float(r[i]) for r in rows if r[i] != ""]


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
        assert rc == 0
        assert (out / "manifest.txt").exists()
        raws = sorted(out.glob("*.raw"))
        assert len(raws) == 5
        run_out = tmp_path / "run"
        rc = main(
            [
                "compare",
                "--volumes", str(out / "*.raw"),
                "--shape", "6,6",
                "--dtype", "f32",
                "--mode", "batch",
                "--out", str(run_out),
            ]
        )
        assert rc == 0
        batch = _column(run_out / "curves.csv", "batch")
        assert abs(batch[-1] - 1.0) <= 1e-9


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


def test_console_entry_point_runs():
    # the child imports the same package as this process, also when pytest
    # put src/ on sys.path itself (pyproject's pythonpath) rather than PYTHONPATH
    src = str(Path(streampca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "streampca.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "compare" in proc.stdout


def test_readme_examples_parse():
    # README's example commands use only flags and flag combinations the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("streampca ")]
    assert {c[1] for c in commands} == {"compare", "eigenfunctions", "counters"}
    for argv in commands:
        args = cli.build_parser().parse_args(argv[1:])
        cli._config_from_args(args).validate(args.n)
