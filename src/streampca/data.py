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
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import NonFiniteSampleError, RngState, SampleStore, StreamPcaError


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


def _time_ordered(pattern, manifest) -> list[Path]:
    """The manifest's files when one is given, else the files matching the
    glob ``pattern`` in lexicographic order."""
    if manifest is not None:
        return read_manifest(manifest)
    path = Path(pattern)
    files = sorted(path.parent.glob(path.name))
    if not files:
        raise EmptyDatasetError(f"no files match {str(pattern)!r}")
    return files


def _load_files(pattern, manifest, name: str, read, **source) -> tuple[SampleStore, DatasetMeta]:
    """Read the time-ordered files (see ``_time_ordered``) into one store.

    ``read(path)`` returns a file's typed values (read in place from its
    bytes), shape, element type and divisor (``None`` keeps the values as
    they are). Each file's values are written into one column of a
    column-major float64 matrix, which widens them exactly, and that column
    is divided in place, so no float64 copy of a file exists besides its
    column; the store adopts the matrix, so the dataset is one read-only
    buffer. The one place file bytes become samples. The first file sets the
    dataset's shape and element type, and every later one must have its
    shape. ``source`` completes the meta's file record.
    """
    files = _time_ordered(pattern, manifest)
    x = shape = element_type = None
    for j, f in enumerate(files):
        values, frame_shape, frame_type, divisor = read(Path(f))
        if x is None:
            shape, element_type = frame_shape, frame_type
            x = np.empty((values.shape[0], len(files)), order="F")
        elif frame_shape != shape:
            raise MalformedFileError(
                f"{f}: frame is {'x'.join(map(str, frame_shape))}, "
                f"sequence is {'x'.join(map(str, shape))}"
            )
        column = x[:, j]
        column[...] = values
        if divisor is not None:
            column /= divisor
    store = SampleStore.from_matrix(x)
    record = {"kind": "file", "pattern": str(pattern), "files": [str(f) for f in files], **source}
    return store, DatasetMeta(name, shape, element_type, store.count, record)


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
    lexicographic order (or manifest order when given). An empty shape, or
    one with an entry below 1, raises ValueError before any file is read,
    as does an unknown element type or byte order.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or min(shape) < 1:
        raise ValueError(f"shape {shape} must hold one or more entries, each at least 1")
    dt, maxval = _element_dtype(element_type, byte_order)
    divisor = maxval if scale else None
    expected_bytes = int(np.prod(shape)) * dt.itemsize

    def read(f: Path):
        payload = f.read_bytes()
        if len(payload) != expected_bytes:
            raise MalformedFileError(
                f"{f}: {len(payload)} bytes, expected {expected_bytes} "
                f"for shape {shape} of {element_type}"
            )
        return np.frombuffer(payload, dtype=dt), shape, element_type, divisor

    source = {"byte_order": byte_order, "scaled": divisor is not None}
    return _load_files(path_pattern, manifest, Path(path_pattern).stem, read, **source)


def save_raw_volumes(
    store: SampleStore,
    out_dir,
    element_type: str = "f32",
    byte_order: str = "little",
) -> list[Path]:
    """Write one headerless binary file per time-step; inverse of the loader.

    Integer types are rescaled from [0, 1] back to the type range, rounding
    to nearest. Returns the written paths in time order; names are
    zero-padded so lexicographic reload preserves it.
    """
    dt, maxval = _element_dtype(element_type, byte_order)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(max(store.count - 1, 0))))
    paths = []
    for j, values in enumerate(store):
        if maxval is not None:
            values = np.clip(np.rint(values * maxval), 0, maxval)
        path = out / f"step_{j:0{width}d}.raw"
        path.write_bytes(values.astype(dt))
        paths.append(path)
    return paths


# "P5", then width, height and maxval, each after whitespace and comments, then the one
# whitespace byte before the pixels. A comment ends at its line break, and a "#" glued to a
# field stays in it, so no byte can be read two ways and a match takes linear time.
_PGM_SKIP = rb"(?:\s|#[^\r\n]*[\r\n])*"
_PGM_HEADER = re.compile(
    rb"P5" + _PGM_SKIP + rb"([^\s#]\S*)" + (rb"\s" + _PGM_SKIP + rb"([^\s#]\S*)") * 2 + rb"\s?"
)


def _read_pgm(path: Path, scale: bool) -> tuple[np.ndarray, tuple, str, int | None]:
    """Parse one binary PGM; returns its typed pixels, its (height, width), its
    element type and its divisor (maxval when ``scale`` is set, else ``None``).
    The header is one match of ``_PGM_HEADER``, in time linear in its length."""
    payload = path.read_bytes()
    header = _PGM_HEADER.match(payload)
    if header is None and payload[:2] != b"P5":
        raise MalformedFileError(f"{path}: not a binary PGM (magic {payload[:2]!r})")
    if header is None:
        raise MalformedFileError(f"{path}: truncated header")
    fields = list(header.groups())
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise MalformedFileError(f"{path}: non-numeric header fields {fields}") from None
    if width < 1 or height < 1 or not (0 < maxval <= 65535):
        raise MalformedFileError(f"{path}: bad dimensions {width}x{height} maxval {maxval}")
    element_type = "u8" if maxval < 256 else "u16"
    dt, _ = _element_dtype(element_type, "big")
    held, expected = len(payload) - header.end(), width * height * dt.itemsize
    if held < expected:
        raise MalformedFileError(f"{path}: pixel payload holds {held} bytes, expected {expected}")
    pixels = np.frombuffer(payload, dt, width * height, header.end())
    return pixels, (height, width), element_type, maxval if scale else None


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
    return _load_files(
        directory / "*.pgm", manifest, directory.name, lambda f: _read_pgm(f, scale),
        scaled=bool(scale),
    )


# each generator's parameters, with their defaults
_GENERATOR_PARAMS = {
    "lowrank": {"rank": 5, "sigma": 0.0},
    "traveling_wave": {"speed": 1.0},
    "rotating_blob": {"radius_frac": 0.25, "width_frac": 0.08},
    "cascade": {"rank": 20, "sigma": 0.01, "decay": 0.85},
}
GENERATORS = tuple(_GENERATOR_PARAMS)
# the parameters that must be more than finite: how the error words the rule, and the rule
_PARAM_RULES = {
    "rank": ("an integer >= 1", lambda v: v >= 1 and v == int(v)),
    "sigma": ("finite and >= 0", lambda v: v >= 0),
    "width_frac": ("finite and > 0", lambda v: v > 0),
}


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
    bit-reproducible. Every parameter is checked before any number is
    drawn: one the generator does not read, one that is not finite, a
    ``rank`` that is not an integer >= 1, a negative ``sigma`` and a
    ``width_frac`` at or below 0 raise ValueError naming the generator,
    the parameter and its value. A finite parameter so extreme that the
    data overflows or is not finite (say ``decay=1e200``) raises ValueError
    naming the generator and every parameter.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; choose from {GENERATORS}")
    if d < 4 or n < 3:
        raise ValueError(f"need d >= 4 and n >= 3, got d={d}, n={n}")
    defaults = _GENERATOR_PARAMS[generator]
    for key in params or {}:
        if key not in defaults:
            raise ValueError(f"{generator} takes no parameter {key!r}; it reads {sorted(defaults)}")
    params = {**defaults, **(params or {})}
    for key, value in params.items():
        rule, holds = _PARAM_RULES.get(key, ("finite", math.isfinite))
        if not (math.isfinite(value) and holds(value)):
            raise ValueError(f"{generator} parameter {key!r} must be {rule}, got {value}")
    try:
        # an overflow raises: as a Python float, under this errstate in numpy, or, where a
        # BLAS thread leaves an infinity unflagged, at from_matrix's scan of the data
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            store, shape = _generate(generator, d, n, params, seed)
    except (OverflowError, FloatingPointError, NonFiniteSampleError) as err:
        raise ValueError(f"{generator} parameters {params} give no finite data: {err}") from None
    meta = DatasetMeta(
        name=generator,
        shape=shape,
        element_type="f32",
        steps=n,
        source={"kind": "synthetic", "generator": generator, "params": params, "seed": seed},
    )
    return store, meta


def _generate(generator: str, d: int, n: int, params: dict, seed: int) -> tuple[SampleStore, tuple]:
    """The store of a checked ``synth`` call's (d, n) data matrix, and its frame shape."""
    rng = RngState(seed)
    shape = (d,)

    if generator == "lowrank":
        rank = int(params["rank"])
        sigma = float(params["sigma"])
        a = rng.gaussian((d, rank))
        b = rng.gaussian((rank, n))
        x = _plus_noise(a, b, sigma, rng) if sigma > 0.0 else a @ b
    elif generator == "traveling_wave":
        speed = float(params["speed"])
        i = np.arange(d)[:, None]
        t = np.arange(n)[None, :]
        # 2 pi (i - speed t) / d, in place in one column-major buffer
        x = np.subtract(i, speed * t, order="F")
        x *= 2.0 * np.pi
        x /= d
        np.sin(x, out=x)
    elif generator == "rotating_blob":
        side = math.isqrt(d)
        if side * side != d:
            raise ValueError(f"rotating_blob needs a perfect-square d, got {d}")
        radius = float(params["radius_frac"]) * side
        width = float(params["width_frac"]) * side
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
        rank = int(params["rank"])
        sigma = float(params["sigma"])
        decay = float(params["decay"])
        a = rng.gaussian((d, rank))
        t = np.arange(n)
        b = np.empty((rank, n))
        phases = 2.0 * np.pi * rng.uniform(rank)
        for i in range(rank):
            b[i] = decay**i * np.sin(2.0 * np.pi * 0.5 * (i + 1) * t / n + phases[i])
        x = _plus_noise(a, b, sigma, rng)

    return SampleStore.from_matrix(x), shape


def _plus_noise(a, b, sigma: float, rng: RngState) -> np.ndarray:
    """a @ b + sigma * N with N standard normal, summed into N's buffer so
    no third dataset-sized array is alive."""
    x = rng.gaussian((a.shape[0], b.shape[1]))
    x *= sigma
    x += a @ b
    return x
