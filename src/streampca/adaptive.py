"""One-step-per-time-step eigenspace tracking.

Each incoming sample updates every maintained component once, using all
second-order correlations between the new sample and (a subset of) the
previous ones, then rebuilds the trailing component from the deflation
residual. Three regimes fall out of two knobs:

* full-dimensional: ``space_limit >= n`` and ``processing_limit >= n``
  keep every component and every previous sample in play;
* limited-dimensional: a constant ``space_limit`` caps the number of
  components, bounding the work per step to O(space_limit * n) inner
  products;
* stochastic: once n exceeds ``processing_limit``, each step draws that
  many previous samples uniformly without replacement, bounding the work
  per step to O(space_limit * processing_limit) = O(1) inner products.

A single-component Oja baseline is included for comparison.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .batch import EigenSpace
from .core import (
    DegenerateVectorError,
    NonFiniteSampleError,
    OpCounter,
    RngState,
    SampleStore,
    _as_vector,
    as_sample,
    normalize,
    sample_indices,
)


# each component's rank-1 deflation is applied over row blocks of at most this size,
# so its product buffer stays this small whatever the workspace's size
_DEFLATE_BLOCK_BYTES = 256 * 1024
# numpy's ufunc buffer size, in elements, during a step. At the default 8192, numpy 2.x
# buffers the deflation's column-times-row product for rows of up to 2730 elements, which
# measured 4-6x slower than an unbuffered inner loop at d = 500 to 2730 (numpy 2.4, 2-vCPU
# Xeon); at 1024 only rows of up to 341 are buffered. Each element is the same multiply
# either way, and the step's reductions keep their bits too
_STEP_BUFSIZE = 1024


@dataclass
class AdaptiveConfig:
    """The streaming update's two knobs and its sampler seed.

    space_limit: maximum number of components maintained.
    processing_limit: maximum number of previous samples correlated with
        the new sample per component per step; smaller than n triggers
        the stochastic regime.
    seed: seed for the sampling generator (stochastic regime only).
    """

    space_limit: int
    processing_limit: int
    seed: int = 0

    def __post_init__(self):
        if self.space_limit < 1:
            raise ValueError(f"space_limit must be >= 1, got {self.space_limit}")
        if self.processing_limit < 1:
            raise ValueError(
                f"processing_limit must be >= 1, got {self.processing_limit}"
            )


@dataclass
class AdaptiveState:
    """Everything the streaming update carries between time-steps.

    ``components`` is one read-only (p, dim) float64 array whose rows are
    the tracked unit components, in the order the update keeps them. Each
    step commits a fresh array, so a reference taken earlier keeps its
    values.
    """

    config: AdaptiveConfig
    store: SampleStore
    components: np.ndarray
    rng: RngState = None
    counter: OpCounter = field(default_factory=OpCounter)
    degenerate_events: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.store.dim

    @property
    def n(self) -> int:
        """Time-steps consumed so far: one stored sample per step."""
        return self.store.count

    def eigenspace(self) -> EigenSpace:
        """The current components as an EigenSpace that shares their read-only array."""
        return EigenSpace(self.components)


def initialize(x1, x2, config: AdaptiveConfig) -> AdaptiveState:
    """Start a stream from its first two time-steps.

    The single initial component is (x2 - x1) / ||x2 - x1||. Both samples
    must pass ``core.as_sample``, x2 at x1's length. Identical first
    samples are an error (supply the next distinct time-step as x2).
    """
    a = as_sample(x1)
    b = as_sample(x2, a.shape[0])
    try:
        with np.errstate(over="ignore"):
            v0 = normalize(b - a)
    except DegenerateVectorError as err:
        raise DegenerateVectorError(
            "first two samples coincide; supply the next distinct time-step as x2"
        ) from err
    store = SampleStore(a.shape[0])
    store.append(a)
    store.append(b)
    components = v0[None, :]
    components.flags.writeable = False
    return AdaptiveState(
        config=config,
        store=store,
        components=components,
        rng=RngState(config.seed),
    )


def update_component(v, previous, new):
    """One raw component update against the deflated workspace.

    Implements

        v~ = v + sum_j <v, x~_j> <x~_j, x~_new>^2 x~_j
               + <v, x~_new> ((sum_j <x~_j, x~_new>) + <x~_new, x~_new>)^2 x~_new

    with x~_j the columns of ``previous`` (the deflated previous samples
    entering this step) and x~_new the deflated new time-step ``new``.
    Previous samples are reweighted by their squared correlation with the
    new sample; the new sample's weight squares the total correlation it
    carries. With the full index set the squared single sum equals the
    expanded double sum over all pairs of correlations, so this is the
    cheaper of the two equivalent forms.

    The result is NOT normalized. It costs 2 * previous.shape[1] + 2 inner
    products; ``ingest`` charges them with the rest of its step. The sums
    are homogeneous of degree 6 in the data, so scaling every sample by s
    weighs the identity term v by s^-6 against them: the data's units act
    as a step size (README, "The update depends on the data's units"). The
    deterministic cascade run gives EV@20 0.4405 at s=2^-12 and 0.9999 from
    2^0 up; a 60x40 Gaussian stream's components at 2^2, 2^4 and 2^8 lie
    3.2e-4, 7.7e-8 and 4.0e-14 from those at 2^20.
    """
    vec = _as_vector(v)
    xs = np.asarray(previous, dtype=np.float64)
    xn = _as_vector(new)
    scores = vec @ xs
    corrs = xs.T @ xn
    new_score = float(vec @ xn)
    self_corr = float(xn @ xn)
    weight = (float(corrs.sum()) + self_corr) ** 2
    return vec + xs @ (scores * corrs**2) + new_score * weight * xn


def _deflate(rows, v, part):
    """Subtract from every row of ``rows`` its projection on the unit vector ``v``, in place.

    Rows are taken ``len(part)`` at a time: each block's product is written
    into ``part`` and then subtracted, so the result equals
    ``rows - np.outer(rows @ v, v)`` bit for bit.
    """
    scores = rows @ v
    block = len(part)
    for lo in range(0, len(rows), block):
        piece = rows[lo : lo + block]
        piece -= np.multiply(scores[lo : lo + block, None], v, out=part[: len(piece)])


def ingest(state: AdaptiveState, x_new) -> AdaptiveState:
    """Advance the stream by one time-step, updating the state in place.

    ``x_new`` must pass ``core.as_sample`` at the state's length, and the
    store keeps the vector that check returns, so a sample converted from
    another dtype is converted and stored once. A deflation workspace is
    built from the (sampled) previous samples plus the new sample, every
    maintained component is updated and re-normalized, and the summed
    residual of the fully deflated workspace becomes the trailing
    component. Each updated component is re-orthogonalised against the
    ones updated before it by two block classical Gram-Schmidt passes (two
    matrix-vector products each; ``state.counter`` is charged the paper's
    one pass), and is written into a row of one fresh array that, sliced
    to the rows kept, becomes ``state.components``. The workspace is
    sample-major, one row per sample, so each component's rank-1 deflation
    runs along contiguous d-long rows, in place; ``update_component`` sees
    its (d, k) transpose. The deflation's product goes through one buffer
    of at most 256 KiB, allocated once per step, and the step runs under a
    ufunc buffer size of ``_STEP_BUFSIZE`` elements (the caller's size is
    restored on exit and on a raise), so that numpy does not buffer the
    product's rows. A residual whose norm is at or below
    ``core.DEGENERATE_TOL`` is dropped and logged in
    ``state.degenerate_events`` as (time-step, component position), and a
    full space's trailing component, which the step does not update, goes
    with it; the space regrows on later steps. A centred deterministic
    limited run whose space is full ends this way, because its last
    workspace sums to zero: it ends one component short of the space
    limit. A space of one keeps its lone component instead. A finite
    sample so large that the step overflows raises NonFiniteSampleError.
    The state changes only once the whole step has succeeded, so any
    raised error leaves it as it was.
    The step inherits ``update_component``'s s^-6 dependence on the units.
    """
    x = as_sample(x_new, state.dim)
    cfg = state.config
    n = state.n
    rng = copy.copy(state.rng)
    indices = sample_indices(n, cfg.processing_limit, rng)
    k = len(indices)
    position = min(n, cfg.space_limit)  # of the trailing component, counted from 1
    updated = min(position - 1, len(state.components))
    # row i takes updated component i, and the last row the residual (if it is kept).
    # The basis outlives the step and the workspace does not, so it is allocated first:
    # the workspace then lies above it on the heap and leaves no hole below a live basis
    basis = np.empty((updated + 1, state.dim))
    # workspace rows: the sampled previous steps, copied once, then the new step. The
    # loop keeps no second copy, which would raise the peak memory of a run
    rows = np.empty((k + 1, state.dim))
    state.store.matrix(columns=indices, out=rows[:k].T)
    rows[k] = x
    previous, new = rows[:k].T, rows[k]
    block = max(1, _DEFLATE_BLOCK_BYTES // rows[0].nbytes)
    part = np.empty((min(block, k + 1), state.dim))
    try:
        # an overflow shows up as a non-finite norm in normalize, so numpy need not warn.
        # Leaving the block restores the caller's buffer size too, on a raise as well
        with np.errstate(over="ignore", invalid="ignore"):
            np.setbufsize(_STEP_BUFSIZE)
            for i in range(updated):
                v = state.components[i]
                vt = update_component(v, previous, new)
                vnew = vt + float(vt @ v) * v
                # the raw update only deflates the workspace, not the components updated
                # before it: classical Gram-Schmidt against them, twice ("twice is enough")
                done = basis[:i]
                for _ in range(2 if i else 0):
                    vnew -= (done @ vnew) @ done
                # v~.v >= 1 keeps the norm >= 2 up to the re-projection, which cancels a
                # component lying in the span of those before it (a kept rounding residual)
                try:
                    vnew = basis[i] = normalize(vnew)
                except DegenerateVectorError as err:
                    raise DegenerateVectorError(
                        f"component {i + 1} degenerated at time-step {n + 1}"
                    ) from err
                _deflate(rows, vnew, part)
            try:
                basis[updated] = normalize(rows.sum(axis=0))
                kept = updated + 1
            except DegenerateVectorError:
                kept = updated
    except (OverflowError, NonFiniteSampleError) as err:
        # OverflowError: the weight's Python float square in update_component
        raise NonFiniteSampleError(f"time-step {n + 1} overflows the update: {err}") from err
    # a trailing component this step did not update was orthogonalised only against
    # the old components, so it goes, and the residual (if any) takes its place. A
    # space of one updates nothing, and its lone component is orthonormal by itself
    basis.flags.writeable = False
    components = basis[:kept] if kept else state.components
    # commit, the store first: its append can still raise while it copies a writeable sample.
    # Per updated component i: 2k + 2 in update_component, 1 for the share, i to
    # reorthogonalize (the paper's one Gram-Schmidt pass; the two block passes above do
    # 2i), 1 for the norm, k + 1 to deflate; 1 for the residual
    state.store.append(x)
    state.counter.charge(n + 1, updated * (3 * k + 5) + updated * (updated - 1) // 2 + 1)
    if kept == updated:
        state.degenerate_events.append((n + 1, position))
    state.components = components
    state.rng = rng
    return state


def run_adaptive(samples, config: AdaptiveConfig) -> AdaptiveState:
    """Feed a whole sample sequence through the streaming update.

    ``samples`` is a SampleStore or any iterable of equal-length vectors
    with at least two entries, consumed in time order. The state's store
    shares the samples of a store built by ``SampleStore.from_matrix`` (and
    so by ``synth``, ``center`` and the loaders) rather than copying them.
    """
    iterator = iter(samples)
    try:
        x1 = next(iterator)
        x2 = next(iterator)
    except StopIteration:
        raise ValueError("need at least two samples to start a stream") from None
    state = initialize(x1, x2, config)
    for x in iterator:
        ingest(state, x)
    return state


def check_learning_rate(learning_rate: float) -> None:
    """Raise ValueError unless 0 < ``learning_rate`` < inf, the rule for ``oja``'s step size."""
    if not 0 < learning_rate < math.inf:  # NaN fails it too
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")


def oja(samples, learning_rate: float) -> np.ndarray:
    """Single-component Oja baseline: the unit component after the stream.

    Starts from the normalized first sample and applies
    v <- normalize(v + learning_rate * <x, v> x) for every later one. The
    rate must pass ``check_learning_rate``. Every sample must pass
    ``core.as_sample``, at the first one's length; an overflowing step
    raises NonFiniteSampleError.
    """
    check_learning_rate(learning_rate)
    iterator = iter(samples)
    first = next(iterator, None)
    if first is None:
        raise ValueError("the Oja baseline needs at least one sample")
    v = normalize(as_sample(first))
    for x_new in iterator:
        x = as_sample(x_new, v.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            v = normalize(v + learning_rate * float(x @ v) * x)
    return v
