"""Shared numeric primitives: sample storage, seeded randomness, and
dot-product accounting.

Everything downstream (the batch oracle, the streaming updates, the
evaluation tools) builds on the types in this module. All scalars are
64-bit floats; narrower input data is widened on ingest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


DEGENERATE_TOL = 1e-12  # a vector whose norm is at or below this has no direction


class StreamPcaError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(StreamPcaError):
    """Vector or matrix dimensions do not agree."""


class DegenerateVectorError(StreamPcaError):
    """A vector whose norm is below tolerance where a direction is needed."""


class DegenerateDataError(StreamPcaError):
    """Too few samples for the operation, or samples that carry no variance."""


class ConvergenceError(StreamPcaError):
    """Eigensolver did not converge."""


class NonFiniteSampleError(StreamPcaError):
    """A sample holds NaN or infinite entries, or is finite but so large that
    its norm or a streaming step on it overflows."""


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _unreachable(v: np.ndarray) -> bool:
    """True when no writeable array can reach the contiguous ``v``'s memory:
    ``v`` and the array that owns that memory are both read-only."""
    owner = v
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return (
        v.flags.c_contiguous
        and not (v.flags.writeable or owner.flags.writeable)
        and owner.flags.owndata
    )


def _freeze_converted(vec: np.ndarray, source) -> np.ndarray:
    """``vec``, set read-only when ``_as_vector`` made it as a fresh array from
    ``source`` (an ndarray of another dtype, a list or a tuple), so that no
    other array can reach its memory; never an object's own memory."""
    if vec is not source and vec.base is None and isinstance(source, (np.ndarray, list, tuple)):
        vec.flags.writeable = False
    return vec


class SampleStore:
    """Growable ordered collection of equal-length time-step vectors.

    Insertion order is time order: index ``j`` holds time-step ``j``.
    Samples are read-only, contiguous float64 vectors. ``append`` shares a
    sample that no writeable array can reach and copies any other;
    ``from_matrix`` adopts an F-contiguous float64 matrix without copying
    it and sets that matrix read-only.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self._samples: list[np.ndarray] = []
        # the read-only buffer whose columns are the samples, while the store is exactly that
        self._buffer: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, x) -> "SampleStore":
        """Build a store from a (dim, count) matrix whose columns are time-steps.

        The store adopts one column-major float64 buffer: the input itself
        when it already is one, else a single converted copy. The buffer
        is set read-only, its columns are the samples, and ``matrix()``
        returns it as it is until a sample is appended.
        """
        m = np.asarray(x, dtype=np.float64, order="F")
        if m.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
        store = cls(m.shape[0])
        m.flags.writeable = False
        store._samples = list(m.T)
        store._buffer = m
        return store

    @property
    def count(self) -> int:
        return len(self._samples)

    def __getitem__(self, j: int) -> np.ndarray:
        return self._samples[j]

    def __iter__(self):
        return iter(self._samples)

    def append(self, v) -> None:
        """Store ``v`` as the next time-step.

        A contiguous float64 vector is stored as is when it and the array
        that owns its memory are both read-only, and a vector converted
        from another type or from a list is set read-only in place; any
        other vector is stored as one read-only copy.
        """
        vec = _freeze_converted(_as_vector(v), v)
        if vec.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"sample has {vec.shape[0]} elements, store holds {self.dim}-vectors"
            )
        if not _unreachable(vec):
            vec = vec.copy()
            vec.flags.writeable = False
        self._samples.append(vec)
        self._buffer = None

    def matrix(self, columns=None, out=None) -> np.ndarray:
        """(dim, count) matrix of the stored samples, or of ``columns``.

        A store that is exactly the columns of one buffer (``from_matrix``,
        and so ``synth``, ``center`` and the loaders) returns that
        read-only, column-major buffer itself: callers read it and must
        not write to it. Any other store, and any call with ``columns`` or
        ``out``, restacks the samples into a fresh C-order array, or into
        ``out`` when that is given and returns it.
        """
        if columns is None and out is None and self._buffer is not None:
            return self._buffer
        if columns is None:
            cols = self._samples
        else:
            cols = [self._samples[j] for j in columns]
        if not cols:
            return np.empty((self.dim, 0)) if out is None else out
        return np.stack(cols, axis=1, out=out)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53


class RngState:
    """SplitMix64 pseudo-random generator.

    The state advances by the odd constant 0x9E3779B97F4A7C15 per draw and
    each output is the standard SplitMix64 finalizer of the new state
    (xor-shift 30, multiply, xor-shift 27, multiply, xor-shift 31, all
    modulo 2**64). Identical seeds therefore give identical integer and
    uniform streams on every platform. Gaussian variates use Box-Muller on
    top of the uniform stream; vectorized block draws consume exactly the
    same stream positions as repeated scalar draws would.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def __repr__(self):
        return f"RngState(seed={self.seed})"

    @staticmethod
    def _mix_scalar(z: int) -> int:
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        """Next 64-bit word of the stream."""
        self._state = (self._state + _GAMMA) & _MASK64
        return self._mix_scalar(self._state)

    def _block_u64(self, m: int) -> np.ndarray:
        # in place, so the peak is the block plus one shifted copy
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + m * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, size=None):
        """Uniform float64 draws in [0, 1) with 53-bit resolution."""
        if size is None:
            return (self.next_u64() >> 11) * _U53
        words = self._block_u64(int(np.prod(size)))
        u = (words >> np.uint64(11)).astype(np.float64) * _U53
        return u.reshape(size)

    def gaussian(self, size=None):
        """Standard normal draws via Box-Muller on the uniform stream.

        Pairs of stream words produce pairs of variates; the second variate
        of the final pair is discarded for odd counts.
        """
        scalar = size is None
        m = 1 if scalar else int(np.prod(size))
        pairs = (m + 1) // 2
        words = self._block_u64(2 * pairs)
        # in place, so no more than two output-sized arrays are alive at once
        words >>= np.uint64(11)
        r = words[0::2].astype(np.float64)
        theta = words[1::2].astype(np.float64)
        del words
        r += 1.0  # u1 in (0, 1] so the log is finite
        r *= _U53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= _U53
        theta *= 2.0 * np.pi
        out = np.empty(2 * pairs)
        np.cos(theta, out=out[0::2])
        np.sin(theta, out=out[1::2])
        out[0::2] *= r
        out[1::2] *= r
        if scalar:
            return float(out[0])
        return out[:m].reshape(size)

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % bound


@dataclass
class OpCounter:
    """Running tally of d-vector inner products.

    Every Euclidean inner product of two data-dimension vectors counts
    once, including squared-norm evaluations; index bookkeeping and scalar
    arithmetic are free. ``charge`` books one whole step, adding its count
    to the total and logging (step_index, count), so the per-step log
    always sums to the total.
    """

    dot_products: int = 0
    per_step_log: list = field(default_factory=list)

    def charge(self, step_index: int, count: int) -> None:
        self.dot_products += count
        self.per_step_log.append((step_index, count))


def normalize(v) -> np.ndarray:
    """Return v / ||v||, raising DegenerateVectorError when ||v|| <= DEGENERATE_TOL
    and NonFiniteSampleError when ||v|| is not finite."""
    vec = _as_vector(v)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = math.sqrt(float(vec @ vec))
    if not math.isfinite(nrm):
        raise NonFiniteSampleError(f"vector norm is {nrm}")
    if nrm <= DEGENERATE_TOL:
        raise DegenerateVectorError(f"vector norm {nrm:.3e} is at or below {DEGENERATE_TOL:.0e}")
    return vec / nrm


def sample_indices(n: int, k: int, rng: RngState) -> np.ndarray:
    """k distinct indices from range(n), uniform without replacement.

    Returned ascending so downstream arithmetic is order-deterministic.
    When k >= n the full index set comes back and the generator is not
    advanced (the deterministic branch of the streaming update). Otherwise
    a partial Fisher-Yates shuffle of range(n) draws ``rng.below(n - i)``
    for i = 0..k-1; only the entries it displaces are held, so a call
    costs O(k) time and memory whatever n is.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got n={n}, k={k}")
    if k >= n:
        return np.arange(n)
    displaced = {}  # position -> the entry swapped into it; every other position holds itself
    picked = np.empty(k, dtype=int)
    for i in range(k):
        j = i + rng.below(n - i)
        picked[i] = displaced.get(j, j)
        displaced[j] = displaced.get(i, i)
    picked.sort()
    return picked
