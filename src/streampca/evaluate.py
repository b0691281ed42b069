"""Quantitative comparison of eigenspaces against sample data.

The single figure of merit throughout is the cumulative explained-variance
curve: the fraction of total sample variance captured by the first k
components, as a function of k. Curves are computed by projecting samples,
never by forming a d x d matrix, so bases with and without eigenvalues are
measured by the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import EigenSpace
from .core import DegenerateDataError, DimensionMismatchError, NonFiniteSampleError, SampleStore


@dataclass
class CurveSeries:
    """Cumulative explained-variance fractions, one entry per component.

    The fractions are of the samples the curve was measured on, as given;
    a curve of ``center(store)`` is a curve of mean-subtracted samples.
    The values are finite, lie in [0, 1] and do not decrease, within
    rounding; a curve that breaks either rule raises ValueError naming its
    label and the offending extreme or step.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("a curve needs a 1-D, non-empty value list")
        lo, hi = np.min(self.values), np.max(self.values)
        # written so that a NaN, which fails every comparison, fails the range check too
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-9):
            extreme = f"min {lo:.4g}" if lo < -1e-12 else f"max {hi:.4g}"
            raise ValueError(f"curve {self.label!r} values must lie in [0, 1]; {extreme}")
        if self.values.size > 1 and (step := np.min(np.diff(self.values))) < -1e-12:
            raise ValueError(f"curve {self.label!r} values must be non-decreasing; step {step:.4g}")

    def __len__(self) -> int:
        return self.values.size


def explained_variance(space: EigenSpace, store: SampleStore, label: str = "") -> CurveSeries:
    """Cumulative explained-variance curve of a basis over stored samples.

    Component i contributes e_i = sum_t <v_i, x_t>^2 / sum_t ||x_t||^2
    over the samples as stored (pass ``center(store)`` to measure
    mean-subtracted variance); the curve is the running sum of the e_i in
    component order. Each ||x_t||^2 sums the sample's squares pairwise,
    and ``math.fsum`` adds those n values, so the total does not depend on
    how the store lays its samples out. Finite samples whose total
    overflows float64 raise NonFiniteSampleError. The call reads the store
    in place and allocates the (components, steps) scores, which are
    ``eigenfunctions(space, store)``, and one sample's squares at a time.
    """
    scores = eigenfunctions(space, store)
    if store.count < 2:
        raise DegenerateDataError(f"need at least 2 samples, have {store.count}")
    try:
        with np.errstate(over="ignore"):
            total = math.fsum(float(np.square(x).sum()) for x in store)
    except OverflowError:  # fsum's own sum of finite terms overflowed
        total = math.inf
    if not math.isfinite(total):
        raise NonFiniteSampleError("the samples' total variance overflows float64")
    if total <= 0.0:
        raise DegenerateDataError("samples carry no variance")
    shares = np.square(scores, out=scores).sum(axis=1) / total
    return CurveSeries(values=np.cumsum(shares), label=label)


def curve_gap(a: CurveSeries, b: CurveSeries) -> float:
    """Largest pointwise curve difference, in percentage points.

    Curves of different lengths are compared on the common prefix.
    """
    m = min(len(a), len(b))
    return float(np.max(np.abs(a.values[:m] - b.values[:m]))) * 100.0


def mean_curve(runs, label: str = "") -> CurveSeries:
    """Pointwise arithmetic mean of equal-length curves."""
    runs = list(runs)
    if not runs:
        raise ValueError("cannot average an empty list of curves")
    length = len(runs[0])
    if any(len(r) != length for r in runs):
        raise DimensionMismatchError("curves must have equal length to average")
    stacked = np.stack([r.values for r in runs], axis=0)
    return CurveSeries(values=stacked.mean(axis=0), label=label or f"mean of {len(runs)} runs")


def eigenfunctions(space: EigenSpace, store: SampleStore) -> np.ndarray:
    """Score time series f_i(t) = <v_i, x_t> for every component, as a
    (components, steps) array.

    Summing v_i * f_i(t) over i reproduces the projection of x_t onto the
    spanned subspace, so these are the temporal coefficients of the basis.
    The store is read in place; the result is the only array allocated.
    """
    if space.dim != store.dim:
        raise DimensionMismatchError(
            f"space dim {space.dim} does not match store dim {store.dim}"
        )
    return space.components @ store.matrix()


def subspace_overlap(a: EigenSpace, b: EigenSpace, k: int) -> float:
    """Mean squared singular value of the top-k cross-projection matrix M.

    That is ||M||_F^2 / k, the trace of M M^T over k. Equals 1 exactly
    when the leading k-dimensional spans coincide and 0 when they are
    orthogonal.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"space dims differ: {a.dim} vs {b.dim}")
    if k < 1 or k > len(a) or k > len(b):
        raise ValueError(f"k={k} exceeds a component count ({len(a)}, {len(b)})")
    m = a.components[:k] @ b.components[:k].T
    return float((m**2).sum()) / k
