"""Dataset ingestion and synthetic stream generators.

Two on-disk shapes are supported: headerless raw binary volumes (one file
per time-step, fastest-x row-major order) and binary "P5" PGM frames (one
image per time-step). Time order is the lexicographic order of the file
names unless a manifest (one path per line) overrides it. Integer element
types are scaled into [0, 1] by their type maximum unless scaling is
switched off.

The synthetic generators stand in for recorded datasets: seeded, bit
reproducible, and chosen so their spectra are known (exact low rank,
two-mode waves, smoothly evolving blobs, concentrated cascades).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import RngState, SampleStore, StreamPcaError


class MalformedFileError(StreamPcaError):
    """A data file does not match its declared shape or format."""


class EmptyDatasetError(StreamPcaError):
    """No files matched the requested pattern or directory."""


@dataclass
class DatasetMeta:
    """Provenance and shape of a loaded or generated dataset."""

    name: str
    shape: tuple
    element_type: str
    steps: int
    source: dict = field(default_factory=dict)


_ELEMENT_TYPES = {
    "u8": (np.uint8, 255.0),
    "u16": (np.uint16, 65535.0),
    "f32": (np.float32, None),
}


def _element_dtype(element_type: str, byte_order: str) -> tuple[np.dtype, float | None]:
    if element_type not in _ELEMENT_TYPES:
        raise ValueError(
            f"unknown element type {element_type!r}; choose from {sorted(_ELEMENT_TYPES)}"
        )
    if byte_order not in ("little", "big"):
        raise ValueError(f"byte order must be 'little' or 'big', got {byte_order!r}")
    base, maxval = _ELEMENT_TYPES[element_type]
    dt = np.dtype(base)
    if dt.itemsize > 1:
        dt = dt.newbyteorder("<" if byte_order == "little" else ">")
    return dt, maxval


def read_manifest(path) -> list[Path]:
    """File list from a manifest: one path per line, blanks ignored.

    Relative entries resolve against the manifest's own directory.
    """
    manifest = Path(path)
    base = manifest.parent
    files = []
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        p = Path(line)
        files.append(p if p.is_absolute() else base / p)
    if not files:
        raise EmptyDatasetError(f"manifest {manifest} lists no files")
    return files


def load_raw_volumes(
    path_pattern: str,
    shape,
    element_type: str = "f32",
    byte_order: str = "little",
    scale: bool = True,
    manifest=None,
) -> tuple[SampleStore, DatasetMeta]:
    """Load a sequence of headerless binary files, one time-step per file.

    Each file must hold exactly prod(shape) elements of the declared type;
    a size mismatch names the offending file. Files are taken in
    lexicographic order (or manifest order when given).
    """
    shape = tuple(int(s) for s in shape)
    dt, maxval = _element_dtype(element_type, byte_order)
    if manifest is not None:
        files = read_manifest(manifest)
    else:
        pattern = Path(path_pattern)
        files = sorted(pattern.parent.glob(pattern.name))
    if not files:
        raise EmptyDatasetError(f"no files match {path_pattern!r}")
    dim = int(np.prod(shape))
    expected_bytes = dim * dt.itemsize
    store = SampleStore(dim)
    for f in files:
        payload = Path(f).read_bytes()
        if len(payload) != expected_bytes:
            raise MalformedFileError(
                f"{f}: {len(payload)} bytes, expected {expected_bytes} "
                f"for shape {shape} of {element_type}"
            )
        values = np.frombuffer(payload, dtype=dt).astype(np.float64)
        if scale and maxval is not None:
            values = values / maxval
        store.append(values)
    meta = DatasetMeta(
        name=Path(path_pattern).stem,
        shape=shape,
        element_type=element_type,
        steps=store.count,
        source={
            "kind": "file",
            "pattern": str(path_pattern),
            "files": [str(f) for f in files],
            "byte_order": byte_order,
            "scaled": bool(scale and maxval is not None),
        },
    )
    return store, meta


def save_raw_volumes(
    store: SampleStore,
    out_dir,
    element_type: str = "f32",
    byte_order: str = "little",
    scale: bool = True,
    prefix: str = "step_",
) -> list[Path]:
    """Write one headerless binary file per time-step; inverse of the loader.

    Integer types are rescaled from [0, 1] back to the type range when
    ``scale`` is on, rounding to nearest. Returns the written paths in
    time order; names are zero-padded so lexicographic reload preserves it.
    """
    dt, maxval = _element_dtype(element_type, byte_order)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(max(store.count - 1, 0))))
    paths = []
    for j, sample in enumerate(store):
        values = sample
        if maxval is not None:
            if scale:
                values = np.rint(values * maxval)
            values = np.clip(values, 0, maxval)
        path = out / f"{prefix}{j:0{width}d}.raw"
        path.write_bytes(np.ascontiguousarray(values.astype(dt)).tobytes())
        paths.append(path)
    return paths


def _read_pgm(path: Path) -> tuple[int, int, int, np.ndarray]:
    """Parse one binary PGM; returns (width, height, maxval, raw float64 pixels)."""
    payload = path.read_bytes()
    if payload[:2] != b"P5":
        raise MalformedFileError(f"{path}: not a binary PGM (magic {payload[:2]!r})")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < len(payload) and payload[pos : pos + 1] == b"#":
            while pos < len(payload) and payload[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedFileError(f"{path}: truncated header")
        fields.append(payload[start:pos])
    pos += 1  # single whitespace byte separates header from pixels
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise MalformedFileError(f"{path}: non-numeric header fields {fields}") from None
    if width < 1 or height < 1 or not (0 < maxval <= 65535):
        raise MalformedFileError(
            f"{path}: bad dimensions {width}x{height} maxval {maxval}"
        )
    dt = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    expected = width * height * dt.itemsize
    pixels = payload[pos : pos + expected]
    if len(pixels) != expected:
        raise MalformedFileError(
            f"{path}: pixel payload holds {len(pixels)} bytes, expected {expected}"
        )
    values = np.frombuffer(pixels, dtype=dt).astype(np.float64)
    return width, height, maxval, values


def load_pgm_sequence(
    directory,
    scale: bool = True,
    manifest=None,
) -> tuple[SampleStore, DatasetMeta]:
    """Load a directory of binary PGM frames as a time-ordered sample store.

    All frames must share one size. Pixels are flattened row-major and
    scaled to [0, 1] by the frame's maxval (``scale=False`` keeps raw
    integer values).
    """
    directory = Path(directory)
    if manifest is not None:
        files = read_manifest(manifest)
    else:
        files = sorted(directory.glob("*.pgm"))
    if not files:
        raise EmptyDatasetError(f"no PGM files in {directory}")
    store = None
    frame_shape = None
    element_type = "u8"
    for f in files:
        width, height, maxval, values = _read_pgm(Path(f))
        if scale:
            values = values / maxval
        if store is None:
            frame_shape = (height, width)
            element_type = "u8" if maxval < 256 else "u16"
            store = SampleStore(width * height)
        elif (height, width) != frame_shape:
            raise MalformedFileError(
                f"{f}: frame is {height}x{width}, sequence is "
                f"{frame_shape[0]}x{frame_shape[1]}"
            )
        store.append(values)
    meta = DatasetMeta(
        name=directory.name,
        shape=frame_shape,
        element_type=element_type,
        steps=store.count,
        source={
            "kind": "file",
            "pattern": str(directory / "*.pgm"),
            "files": [str(f) for f in files],
            "scaled": bool(scale),
        },
    )
    return store, meta


GENERATORS = ("lowrank", "traveling_wave", "rotating_blob", "cascade")


def synth(
    generator: str,
    d: int,
    n: int,
    params: dict | None = None,
    seed: int = 0,
) -> tuple[SampleStore, DatasetMeta]:
    """Deterministic synthetic stream of ``n`` time-steps in ``d`` dimensions.

    Generators:

    * ``lowrank(rank, sigma)``: X = A B + sigma N with A (d x rank),
      B (rank x n) and N (d x n) all standard normal; exact rank plus
      isotropic noise.
    * ``traveling_wave(speed)``: x_t[i] = sin(2 pi (i - speed * t) / d);
      a single spatial wave sliding over the index axis, rank <= 2.
    * ``rotating_blob(radius_frac, width_frac)``: a Gaussian bump orbiting
      the center of a sqrt(d) x sqrt(d) grid, flattened row-major; d must
      be a perfect square.
    * ``cascade(rank=20, sigma=0.01, decay=0.85)``: low rank with smooth,
      amplitude-decaying sinusoidal temporal coefficients, so a small
      leading subspace carries nearly all variance.

    Random entries are drawn from the seeded in-repo generator in a fixed
    order (spatial patterns first, then temporal coefficients, then
    noise, each row-major), so a (generator, params, seed) triple is
    bit-reproducible.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; choose from {GENERATORS}")
    if d < 4 or n < 3:
        raise ValueError(f"need d >= 4 and n >= 3, got d={d}, n={n}")
    params = dict(params or {})
    rng = RngState(seed)
    shape = (d,)

    if generator == "lowrank":
        rank = int(params.setdefault("rank", 5))
        sigma = float(params.setdefault("sigma", 0.0))
        x = _lowrank_matrix(d, n, rank, sigma, rng)
    elif generator == "traveling_wave":
        speed = float(params.setdefault("speed", 1.0))
        i = np.arange(d)[:, None]
        t = np.arange(n)[None, :]
        x = np.sin(2.0 * np.pi * (i - speed * t) / d, order="F")
    elif generator == "rotating_blob":
        side = math.isqrt(d)
        if side * side != d:
            raise ValueError(f"rotating_blob needs a perfect-square d, got {d}")
        radius = float(params.setdefault("radius_frac", 0.25)) * side
        width = float(params.setdefault("width_frac", 0.08)) * side
        yy, xx = np.mgrid[0:side, 0:side]
        x = np.empty((d, n), order="F")  # one contiguous frame per column, written in place
        for t in range(n):
            angle = 2.0 * np.pi * t / n
            cx = side / 2.0 + radius * np.cos(angle)
            cy = side / 2.0 + radius * np.sin(angle)
            bump = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width**2))
            x[:, t] = bump.ravel()
        shape = (side, side)
    else:  # cascade
        rank = int(params.setdefault("rank", 20))
        sigma = float(params.setdefault("sigma", 0.01))
        decay = float(params.setdefault("decay", 0.85))
        a = rng.gaussian((d, rank))
        t = np.arange(n)
        b = np.empty((rank, n))
        for i in range(rank):
            phase = 2.0 * np.pi * rng.uniform()
            b[i] = decay**i * np.sin(2.0 * np.pi * 0.5 * (i + 1) * t / n + phase)
        x = a @ b + sigma * rng.gaussian((d, n))

    store = SampleStore.from_matrix(x)
    meta = DatasetMeta(
        name=generator,
        shape=shape,
        element_type="f32",
        steps=n,
        source={"kind": "synthetic", "generator": generator, "params": params, "seed": seed},
    )
    return store, meta


def _lowrank_matrix(d: int, n: int, rank: int, sigma: float, rng: RngState) -> np.ndarray:
    a = rng.gaussian((d, rank))
    b = rng.gaussian((rank, n))
    x = a @ b
    if sigma > 0.0:
        x = x + sigma * rng.gaussian((d, n))
    return x
