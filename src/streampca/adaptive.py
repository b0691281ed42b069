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
    DEGENERATE_TOL,
    DegenerateVectorError,
    DimensionMismatchError,
    NonFiniteSampleError,
    OpCounter,
    RngState,
    SampleStore,
    _as_vector,
    normalize,
    sample_indices,
)


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
    """Everything the streaming update carries between time-steps."""

    config: AdaptiveConfig
    store: SampleStore
    components: list = field(default_factory=list)
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
        """Snapshot of the current components as an EigenSpace."""
        return EigenSpace(dim=self.dim, components=np.stack(self.components, axis=0))


def _finite_sample(x) -> np.ndarray:
    v = _as_vector(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteSampleError("sample has NaN or infinite entries")
    return v


def initialize(x1, x2, config: AdaptiveConfig) -> AdaptiveState:
    """Start a stream from its first two time-steps.

    The single initial component is (x2 - x1) / ||x2 - x1||. Identical
    first samples are an error (supply the next distinct time-step as
    x2), and so are non-finite samples (NonFiniteSampleError).
    """
    a = _finite_sample(x1)
    b = _finite_sample(x2)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"first samples disagree in length: {a.shape[0]} vs {b.shape[0]}"
        )
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
    return AdaptiveState(
        config=config,
        store=store,
        components=[v0],
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
    products; ``ingest`` charges them with the rest of its step.
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


def ingest(state: AdaptiveState, x_new) -> AdaptiveState:
    """Advance the stream by one time-step, updating the state in place.

    A deflation workspace is built from the (sampled) previous samples
    plus the new sample, every maintained component is updated and
    re-normalized, and the summed residual of the fully deflated workspace
    becomes the trailing component. The workspace is sample-major, one
    row per sample, so each component's rank-1 deflation runs along
    contiguous d-long rows; ``update_component`` sees its (d, k)
    transpose. A residual whose norm is at or below
    ``core.DEGENERATE_TOL`` is dropped and logged in
    ``state.degenerate_events`` as (time-step, component position); the
    space regrows on later steps. A finite sample so large that the step
    overflows raises NonFiniteSampleError. The state changes only once
    the whole step has succeeded, so any raised error leaves it as it was.
    """
    x = _finite_sample(x_new)
    if x.shape[0] != state.dim:
        raise DimensionMismatchError(
            f"sample has {x.shape[0]} elements, stream carries {state.dim}-vectors"
        )
    cfg = state.config
    n = state.n
    rng = copy.copy(state.rng)
    indices = sample_indices(n, cfg.processing_limit, rng)
    k = len(indices)
    # workspace rows: the sampled previous steps, copied once, then the new step. The
    # loop keeps no second copy, which would raise the peak memory of a run
    rows = np.empty((k + 1, state.dim))
    state.store.matrix(columns=indices, out=rows[:k].T)
    rows[k] = x
    previous, new = rows[:k].T, rows[k]
    components = list(state.components)
    updated = min(min(n, cfg.space_limit) - 1, len(components))
    try:
        # an overflow shows up as a non-finite norm below, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(updated):
                v = components[i]
                vt = update_component(v, previous, new)
                vnew = vt + float(vt @ v) * v
                # the raw update only deflates the workspace, not the components updated before it
                for prev in components[:i]:
                    vnew = vnew - float(vnew @ prev) * prev
                nrm = math.sqrt(float(vnew @ vnew))
                if not math.isfinite(nrm):
                    raise OverflowError(f"component {i + 1} has norm {nrm}")
                # v~.v >= 1 keeps the norm >= 2 up to the re-projection, which cancels a
                # component lying in the span of those before it (a kept rounding residual)
                if nrm <= DEGENERATE_TOL:
                    raise DegenerateVectorError(f"component {i + 1} degenerated at time-step {n + 1}")
                vnew = vnew / nrm
                components[i] = vnew
                rows -= np.outer(rows @ vnew, vnew)
            residual = rows.sum(axis=0)
            nrm = math.sqrt(float(residual @ residual))
        if not math.isfinite(nrm):
            raise OverflowError(f"residual has norm {nrm}")
    except OverflowError as err:
        raise NonFiniteSampleError(f"time-step {n + 1} overflows the update: {err}") from err
    position = min(n, cfg.space_limit)
    degenerate = nrm <= DEGENERATE_TOL
    if not degenerate:
        residual = residual / nrm
        if len(components) < position:
            components.append(residual)
        else:
            components[position - 1] = residual
    # commit. Per updated component i: 2k + 2 in update_component, 1 for the
    # share, i to reorthogonalize, 1 for the norm, k + 1 to deflate; 1 for the residual
    state.counter.add(updated * (3 * k + 5) + updated * (updated - 1) // 2 + 1)
    state.store.append(x)
    if degenerate:
        state.degenerate_events.append((n + 1, position))
    state.components = components
    state.rng = rng
    state.counter.mark_step(n + 1)
    return state


def run_adaptive(samples, config: AdaptiveConfig) -> AdaptiveState:
    """Feed a whole sample sequence through the streaming update.

    ``samples`` is a SampleStore or any iterable of equal-length vectors
    with at least two entries, consumed in time order.
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


@dataclass
class OjaState:
    """Single-component Oja baseline: v <- normalize(v + lr * <x, v> x)."""

    component: np.ndarray
    learning_rate: float

    def __post_init__(self):
        self.component = _as_vector(self.component)
        if abs(float(np.linalg.norm(self.component)) - 1.0) > 1e-12:
            raise ValueError("Oja component must be unit-norm")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")


def oja_update(state: OjaState, x_new) -> OjaState:
    """One Oja step on a new sample; returns a fresh state. NaN/Inf raise NonFiniteSampleError."""
    x = _finite_sample(x_new)
    v = state.component
    if x.shape[0] != v.shape[0]:
        raise DimensionMismatchError(
            f"sample has {x.shape[0]} elements, component has {v.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        updated = v + state.learning_rate * float(x @ v) * x
    return OjaState(component=normalize(updated), learning_rate=state.learning_rate)
