"""Smoke test of ``tools/outputs.py``: the checkout compared with itself on a tiny matrix."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

DUMPS = {"f32": ["synth-dump", "--synth", "cascade", "--d", "20", "--n", "12", "--seed", "9"]}
TINY = [
    ("f32", ["compare", "--volumes", "../inputs/f32/step_*.raw", "--shape", "20", "--mode",
             "batch", "--out", "out/f32"]),
    ("pgm16", ["compare", "--frames-dir", "../inputs/pgm16", "--mode", "adaptive-limited",
               "--space-limit", "3", "--centered", "--out", "out/pgm16"]),
]


def test_the_checkout_matches_itself_and_a_moved_cell_shows(tmp_path):
    outputs.write_inputs(ROOT, tmp_path / "inputs", "1", dumps=DUMPS)
    results = [outputs.run_matrix(ROOT, tmp_path / side, "1", TINY) for side in ("a", "b")]
    assert [rc for rc, _, _ in results[0].values()] == [0, 0]
    assert outputs.compare(tmp_path / "a", tmp_path / "b", *results) == (6, [])

    # the first batch cell one ulp up: a relative move of at most 2**-52
    curves = tmp_path / "b" / "out" / "f32" / "curves.csv"
    lines = curves.read_text().split("\n")
    k, cell = lines[1].split(",")
    lines[1] = f"{k},{math.nextafter(float(cell), 2.0)!r}"
    curves.write_text("\n".join(lines))
    identical, moved = outputs.compare(tmp_path / "a", tmp_path / "b", *results)
    assert identical == 5 and len(moved) == 1
    assert moved[0].startswith("out/f32/curves.csv: moved, largest relative move ")
    assert 0.0 < float(moved[0].rsplit(" ", 1)[1]) <= 2.0**-52

    # a meta.json that moved names the keys that differ
    meta = tmp_path / "b" / "out" / "f32" / "meta.json"
    record = json.loads(meta.read_text())
    record["version"] = "0.0.0"
    meta.write_text(json.dumps(record))
    identical, moved = outputs.compare(tmp_path / "a", tmp_path / "b", *results)
    assert identical == 4 and moved[1] == "out/f32/meta.json: moved, keys version differ"
