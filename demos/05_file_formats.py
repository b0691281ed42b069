"""Round-trip a stream through the two on-disk formats.

Raw volumes: one headerless binary file per time-step, lexicographic name
order is time order. PGM frames: binary "P5" images, one per step. Both
reload into the same SampleStore the data left from.
"""

import tempfile
from pathlib import Path

import numpy as np

from streampca import (
    SampleStore,
    load_pgm_sequence,
    load_raw_volumes,
    save_raw_volumes,
    synth,
)

with tempfile.TemporaryDirectory(prefix="streampca_demo_") as tmp:
    workdir = Path(tmp)
    store, meta = synth("rotating_blob", d=256, n=8, seed=5)
    print(f"generated {meta.steps} frames of shape {meta.shape}")

    # raw float32 volumes
    raw_dir = workdir / "raw"
    paths = save_raw_volumes(store, raw_dir, element_type="f32")
    print(f"wrote {len(paths)} raw files, e.g. {paths[0].name}")
    reloaded, _ = load_raw_volumes(str(raw_dir / "*.raw"), meta.shape, "f32")
    err = np.max(np.abs(reloaded.matrix() - store.matrix()))
    print(f"raw f32 reload error: {err:.2e} (float32 rounding)")

    # 8-bit PGM frames, written by hand to show the layout
    pgm_dir = workdir / "pgm"
    pgm_dir.mkdir()
    side = meta.shape[0]
    for j, sample in enumerate(store):
        pixels = np.rint(sample * 255).astype(np.uint8)
        header = f"P5\n{side} {side}\n255\n".encode()
        (pgm_dir / f"frame_{j:03d}.pgm").write_bytes(header + pixels.tobytes())
    frames, frame_meta = load_pgm_sequence(pgm_dir)
    print(f"reloaded {frame_meta.steps} PGM frames of shape {frame_meta.shape}")

    # quantized round trip is exact: u8 values map back onto the same grid
    again = SampleStore.from_matrix(np.rint(frames.matrix() * 255) / 255.0)
    dump = save_raw_volumes(frames, workdir / "u8", element_type="u8")
    back, _ = load_raw_volumes(str(workdir / "u8" / "*.raw"), meta.shape, "u8")
    print(f"u8 round trip exact: {np.array_equal(back.matrix(), frames.matrix())}")
