import contextlib
import hashlib
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import (
    AdaptiveConfig,
    DegenerateVectorError,
    DimensionMismatchError,
    EigenSpace,
    NonFiniteSampleError,
    RngState,
    SampleStore,
    center,
    dual_pca,
    explained_variance,
    curve_gap,
    ingest,
    initialize,
    load_pgm_sequence,
    load_raw_volumes,
    normalize,
    oja,
    run_adaptive,
    save_raw_volumes,
    synth,
    update_component,
)

from conftest import FIXTURE_D, FIXTURE_N, FIXTURE_SEED, overflowing_store
from streampca.adaptive import _DEFLATE_BLOCK_BYTES, _deflate

# Regression value for the seed-42 fixture stream: largest gap between the
# streaming curve and the batch curve, frozen from the verified run.
FIXTURE_GAP_PP = 8.772481591528047
FIXTURE_DEGENERATE_EVENTS = [(7, 6), (8, 7), (9, 8), (10, 9)]


# ---------------------------------------------------------------------------
# Scalar transcription of the streaming update, used as an oracle. Written
# with plain Python lists and explicit loops on purpose: it shares no code
# or summation order with the package implementation.
# ---------------------------------------------------------------------------

def _pdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _pnorm(a):
    return math.sqrt(_pdot(a, a))


def oracle_stream(samples, space_limit, processing_limit, tol=1e-12):
    samples = [list(map(float, s)) for s in samples]
    d = len(samples[0])
    diff = [b - a for a, b in zip(samples[0], samples[1])]
    nd = _pnorm(diff)
    basis = [[x / nd for x in diff]]
    x_all = [samples[0], samples[1]]
    n = 2
    events = []
    for x in samples[2:]:
        x_all.append(list(x))
        workspace = [col[:] for col in x_all]
        assert n <= processing_limit, "oracle covers the deterministic branch only"
        idx = list(range(n))
        new = n
        updated = min(min(n, space_limit) - 1, len(basis))
        for i in range(updated):
            v = basis[i]
            corrs = [_pdot(workspace[j], workspace[new]) for j in idx]
            scores = [_pdot(v, workspace[j]) for j in idx]
            new_score = _pdot(v, workspace[new])
            self_corr = _pdot(workspace[new], workspace[new])
            weight = (sum(corrs) + self_corr) ** 2
            vt = []
            for t in range(d):
                acc = v[t]
                for jj, j in enumerate(idx):
                    acc += scores[jj] * corrs[jj] ** 2 * workspace[j][t]
                acc += new_score * weight * workspace[new][t]
                vt.append(acc)
            share = _pdot(vt, v)
            vnew = [vt[t] + share * v[t] for t in range(d)]
            for m in range(i):
                proj = _pdot(vnew, basis[m])
                vnew = [vnew[t] - proj * basis[m][t] for t in range(d)]
            nn = _pnorm(vnew)
            vnew = [v_ / nn for v_ in vnew]
            basis[i] = vnew
            for j in idx + [new]:
                proj = _pdot(vnew, workspace[j])
                workspace[j] = [workspace[j][t] - proj * vnew[t] for t in range(d)]
        residual = [sum(workspace[j][t] for j in idx + [new]) for t in range(d)]
        rn = _pnorm(residual)
        position = min(n, space_limit)
        if rn <= tol:
            events.append((n + 1, position))
        else:
            residual = [x_ / rn for x_ in residual]
            if len(basis) < position:
                basis.append(residual)
            else:
                basis[position - 1] = residual
        n += 1
    return basis, events


def _snapshot(state):
    """Everything a streaming step may change, in bit-comparable form."""
    return (
        state.n,
        state.store.matrix().tobytes(),
        [v.tobytes() for v in state.components],
        state.counter.dot_products,
        list(state.counter.per_step_log),
        state.rng._state,
        list(state.degenerate_events),
    )


def _failing_update(fail_at):
    """Patch the streaming step so that its ``fail_at``-th component update
    (counting from 0) returns a zero vector, which the step's normalisation
    refuses with DegenerateVectorError."""
    calls = itertools.count()

    def update(v, *args):
        if next(calls) == fail_at:
            return np.zeros_like(v)
        return update_component(v, *args)

    return mock.patch("streampca.adaptive.update_component", side_effect=update)


class TestInitialize:
    def test_direct_substitution(self):
        state = initialize([1, 0], [1, 1], AdaptiveConfig(space_limit=5, processing_limit=5))
        assert np.allclose(state.components[0], [0.0, 1.0], atol=1e-15)
        assert state.n == 2
        assert state.store.count == 2

    def test_three_four_five(self):
        state = initialize([0, 0], [3, 4], AdaptiveConfig(space_limit=5, processing_limit=5))
        assert np.allclose(state.components[0], [0.6, 0.8], atol=1e-15)

    def test_identical_samples(self):
        with pytest.raises(DegenerateVectorError):
            initialize([1, 1], [1, 1], AdaptiveConfig(space_limit=5, processing_limit=5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            initialize([1, 0], [1, 0, 0], AdaptiveConfig(space_limit=5, processing_limit=5))

    def test_rejects_samples_whose_difference_overflows(self):
        cfg = AdaptiveConfig(space_limit=5, processing_limit=5)
        with pytest.raises(NonFiniteSampleError):
            initialize([0.0, 0.0, 0.0], [1e155, 0.0, 0.0], cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        cfg = AdaptiveConfig(space_limit=5, processing_limit=5)
        with pytest.raises(NonFiniteSampleError):
            initialize([bad, 0.0], [1.0, 1.0], cfg)
        with pytest.raises(NonFiniteSampleError):
            initialize([1.0, 0.0], [1.0, bad], cfg)


class TestUpdateComponent:
    def test_all_coupling_terms_vanish(self):
        # new column orthogonal to v and to the indexed columns
        w = np.array(
            [
                [1.0, 0.0],
                [0.0, 0.0],
                [0.0, 1.0],
            ]
        )
        v = np.array([0.0, 1.0, 0.0])
        vt = update_component(v, w[:, :1], w[:, 1])
        assert np.array_equal(vt, v)

    def test_empty_index_set(self):
        w = np.array([[2.0], [1.0]])
        v = np.array([1.0, 0.0])
        vt = update_component(v, w[:, :0], w[:, 0])
        # v + <v,x> <x,x>^2 x with x=(2,1): 2 * 25 * (2,1) = (100,50)
        assert np.array_equal(vt, [101.0, 50.0])

    def test_line_formula_by_hand(self):
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        vt = update_component([0.0, 1.0], w[:, :1], w[:, 1])
        assert np.array_equal(vt, [9.0, 10.0])

    def test_result_does_not_depend_on_layout(self):
        rng = RngState(5)
        v = normalize(rng.gaussian(50))
        previous = rng.gaussian((50, 7))
        new = rng.gaussian(50)
        # ingest's sample-major workspace hands over F-ordered views of the same values
        rows = np.empty((8, 50))
        rows[:7] = previous.T
        rows[7] = new
        assert previous.flags.c_contiguous and not rows[:7].T.flags.c_contiguous
        want = update_component(v, previous, new)
        got = update_component(v, rows[:7].T, rows[7])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestIngest:
    def test_one_component_per_step(self):
        rng = RngState(17)
        samples = [rng.gaussian(8) for _ in range(7)]
        state = run_adaptive(samples, AdaptiveConfig(space_limit=100, processing_limit=100))
        assert len(state.components) == 6
        assert state.n == 7

    def test_matches_scalar_transcription(self, fixture_matrix):
        samples = [fixture_matrix[:, j] for j in range(FIXTURE_N)]
        cfg = AdaptiveConfig(space_limit=FIXTURE_N, processing_limit=FIXTURE_N)
        state = run_adaptive(samples, cfg)
        basis, events = oracle_stream(samples, FIXTURE_N, FIXTURE_N)
        assert len(state.components) == len(basis)
        assert state.degenerate_events == events
        for got, want in zip(state.components, basis):
            assert np.max(np.abs(got - np.array(want))) <= 1e-9

    def test_full_dimensional_stream_matches_scalar_transcription(self):
        # every step updates every component; the late steps re-orthogonalise 22 of them
        data = RngState(3).gaussian((30, 24))
        samples = [data[:, j] for j in range(24)]
        cfg = AdaptiveConfig(space_limit=24, processing_limit=24)
        state = initialize(samples[0], samples[1], cfg)
        for x in samples[2:]:
            ingest(state, x)
            v = state.components
            assert np.max(np.abs(v @ v.T - np.eye(len(v)))) <= 1e-12
        assert state.counter.per_step_log[-1] == (24, 22 * (3 * 23 + 5) + 22 * 21 // 2 + 1)
        basis, events = oracle_stream(samples, 24, 24)
        assert state.degenerate_events == events == []
        assert np.max(np.abs(state.components - np.array(basis))) <= 1e-9

    def test_components_are_one_read_only_array(self):
        data = RngState(9).gaussian((12, 8))
        state = run_adaptive([data[:, j] for j in range(8)], AdaptiveConfig(6, 8))
        v = state.components
        assert isinstance(v, np.ndarray) and v.shape == (6, 12) and v.dtype == np.float64
        space = state.eigenspace()
        assert np.shares_memory(space.components, v)
        with pytest.raises(ValueError):
            space.components[0, 0] = 1.0
        with pytest.raises(ValueError):
            v[1] = 0.0
        # a step commits a fresh array, so a reference taken before it keeps its values
        kept = v.copy()
        ingest(state, RngState(10).gaussian(12))
        assert not np.shares_memory(state.components, v)
        assert np.array_equal(v, kept)

    def test_fixture_degenerate_events(self, fixture_adaptive_state):
        # residuals vanish once the 5 dimensions are saturated
        assert fixture_adaptive_state.degenerate_events == FIXTURE_DEGENERATE_EVENTS
        assert len(fixture_adaptive_state.components) == FIXTURE_D

    def test_fixture_curve_gap_regression(self, fixture_store, fixture_batch_space, fixture_adaptive_state):
        batch = explained_variance(fixture_batch_space, fixture_store, label="batch")
        adaptive = explained_variance(
            fixture_adaptive_state.eigenspace(), fixture_store, label="adaptive"
        )
        gap = curve_gap(batch, adaptive)
        assert gap == pytest.approx(FIXTURE_GAP_PP, abs=1e-8)

    def test_deterministic_branch_is_seed_independent(self):
        data = RngState(31).gaussian((12, 10))
        samples = [data[:, j] for j in range(10)]
        states = [
            run_adaptive(samples, AdaptiveConfig(space_limit=6, processing_limit=50, seed=s))
            for s in (1, 999)
        ]
        for va, vb in zip(states[0].components, states[1].components):
            assert np.array_equal(va, vb)

    def test_orthonormal_after_every_ingest(self):
        data = RngState(41).gaussian((15, 12))
        cfg = AdaptiveConfig(space_limit=12, processing_limit=12)
        state = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, 12):
            ingest(state, data[:, j])
            v = np.stack(state.components)
            dev = np.max(np.abs(v @ v.T - np.eye(len(v))))
            assert dev <= 1e-8

    def test_components_stay_in_sample_span(self):
        data = RngState(52).gaussian((20, 8))
        samples = [data[:, j] for j in range(8)]
        state = run_adaptive(samples, AdaptiveConfig(space_limit=8, processing_limit=8))
        q, _ = np.linalg.qr(data)
        for v in state.components:
            outside = v - q @ (q.T @ v)
            assert np.linalg.norm(outside) <= 1e-6

    @pytest.mark.parametrize("processing", [40, 4], ids=["limited", "stochastic"])
    def test_never_writes_into_stored_samples(self, processing):
        # the step deflates its workspace in place; the samples it was copied from stay
        data = RngState(63).gaussian((16, 32))
        cfg = AdaptiveConfig(space_limit=5, processing_limit=processing, seed=2)
        state = initialize(data[:, 0], data[:, 1], cfg)

        def hashes(vectors):
            return [hashlib.sha256(v.tobytes()).hexdigest() for v in vectors]

        fed = hashes(data.T)
        for j in range(2, 32):
            before = hashes(state.store)
            ingest(state, data[:, j])
            assert hashes(state.store)[:j] == before
        assert hashes(state.store) == fed
        assert hashes(data.T) == fed

    def test_stored_samples_refuse_writes(self):
        data = RngState(1).gaussian((6, 8))
        cfg = AdaptiveConfig(space_limit=4, processing_limit=8)
        state = initialize(data[:, 0], data[:, 1], cfg)
        twin = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, 5):
            ingest(state, data[:, j])
            ingest(twin, data[:, j])
        with pytest.raises(ValueError):
            state.store[0][0] = 99.0
        with pytest.raises(ValueError):
            next(iter(state.store))[0] = 99.0
        for j in range(5, 8):
            ingest(state, data[:, j])
            ingest(twin, data[:, j])
        assert np.array_equal(np.stack(state.components), np.stack(twin.components))

    def test_dimension_mismatch(self):
        state = initialize([1.0, 0.0], [0.0, 1.0], AdaptiveConfig(space_limit=4, processing_limit=4))
        with pytest.raises(DimensionMismatchError):
            ingest(state, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_leaves_state_unchanged(self, bad):
        # stochastic regime, so an untouched generator is checked as well
        data = RngState(71).gaussian((10, 12))
        cfg = AdaptiveConfig(space_limit=4, processing_limit=3, seed=5)
        state = initialize(data[:, 0], data[:, 1], cfg)
        reference = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, 8):
            ingest(state, data[:, j])
            ingest(reference, data[:, j])
        n = state.n
        count = state.store.count
        components = [v.copy() for v in state.components]
        log = list(state.counter.per_step_log)
        poisoned = data[:, 8].copy()
        poisoned[3] = bad
        with pytest.raises(NonFiniteSampleError):
            ingest(state, poisoned)
        assert state.n == n
        assert state.store.count == count
        assert len(state.components) == len(components)
        assert all(np.array_equal(a, b) for a, b in zip(state.components, components))
        assert state.counter.per_step_log == log
        for j in range(8, 12):
            ingest(state, data[:, j])
            ingest(reference, data[:, j])
        assert state.n == reference.n == 12
        assert state.counter.per_step_log == reference.counter.per_step_log
        for va, vb in zip(state.components, reference.components):
            assert np.array_equal(va, vb)

    def test_degenerate_step_leaves_state_unchanged(self):
        # the second of four component updates fails, after the first has been computed
        data = RngState(13).gaussian((6, 9))
        cfg = AdaptiveConfig(space_limit=5, processing_limit=5, seed=4)
        state = initialize(data[:, 0], data[:, 1], cfg)
        reference = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, 8):
            ingest(state, data[:, j])
            ingest(reference, data[:, j])
        before = _snapshot(state)
        with _failing_update(1), pytest.raises(
            DegenerateVectorError, match="component 2 degenerated at time-step 9"
        ):
            ingest(state, data[:, 8])
        assert _snapshot(state) == before
        ingest(state, data[:, 8])
        ingest(reference, data[:, 8])
        assert state.n == 9
        assert _snapshot(state) == _snapshot(reference)

    def test_a_failed_append_leaves_state_unchanged(self):
        # the store copies a writeable sample as the step commits, and that copy can fail
        data = RngState(13).gaussian((6, 4))
        state = initialize(data[:, 0], data[:, 1], AdaptiveConfig(4, 3, seed=1))
        ingest(state, data[:, 2])
        before = _snapshot(state)
        with mock.patch.object(SampleStore, "append", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                ingest(state, data[:, 3].copy())
        assert _snapshot(state) == before

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        dim=st.integers(2, 6),
        steps=st.integers(3, 14),
        space=st.integers(1, 6),
        processing=st.integers(1, 8),
        fail_at=st.integers(0, 5),
    )
    def test_each_ingest_commits_one_step_or_nothing(
        self, seed, dim, steps, space, processing, fail_at
    ):
        # each step first runs with its fail_at-th component update raising;
        # a step that updates fewer components commits on that first try
        data = RngState(seed).gaussian((dim, steps))
        cfg = AdaptiveConfig(space_limit=space, processing_limit=processing, seed=seed)
        state = initialize(data[:, 0], data[:, 1], cfg)
        reference = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, steps):
            before = _snapshot(state)
            try:
                with _failing_update(fail_at):
                    ingest(state, data[:, j])
            except DegenerateVectorError:
                assert _snapshot(state) == before
                ingest(state, data[:, j])
            ingest(reference, data[:, j])
            assert _snapshot(state) == _snapshot(reference)
            n, stored, _, _, log, _, events = before
            assert state.n == state.store.count == n + 1
            assert state.store.matrix()[:, :n].tobytes() == stored
            assert np.array_equal(state.store[n], data[:, j])
            assert state.counter.per_step_log[:-1] == log
            assert state.counter.per_step_log[-1][0] == n + 1
            assert state.degenerate_events[: len(events)] == events
            assert len(state.degenerate_events) - len(events) in (0, 1)
            assert sum(c for _, c in state.counter.per_step_log) == state.counter.dot_products

    @pytest.mark.parametrize(
        "space, scale",
        [
            (5, 1e50),  # the component norm overflows to inf
            (5, 1e60),  # the component turns NaN
            (5, 1e80),  # the weight's Python float square raises OverflowError
            (1, 1e154),  # no component is updated; the residual norm overflows
        ],
    )
    def test_overflowing_sample_leaves_state_unchanged(self, space, scale):
        cfg = AdaptiveConfig(space_limit=space, processing_limit=5)
        state = initialize([0.0, 0.0, 0.0], [scale, 0.0, 0.0], cfg)
        before = _snapshot(state)
        with pytest.raises(NonFiniteSampleError):
            ingest(state, [scale, 2 * scale, 0.0])
        assert _snapshot(state) == before

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        dim=st.integers(2, 8),
        steps=st.integers(3, 20),
        space=st.integers(2, 6),
        processing=st.integers(1, 8),
        exponent=st.integers(-20, 20),
    )
    def test_update_keeps_the_old_component(self, seed, dim, steps, space, processing, exponent):
        # v~.v = 1 + sum(scores^2 corrs^2) + new_score^2 weight >= 1 for a unit v, so
        # ||v~ + (v~.v) v|| >= 2 and no updated component can fall to DEGENERATE_TOL
        shares = []

        def update(v, previous, new):
            vt = update_component(v, previous, new)
            shares.append(float(vt @ v))
            return vt

        data = np.ldexp(RngState(seed).gaussian((dim, steps)), exponent)
        cfg = AdaptiveConfig(space_limit=space, processing_limit=processing, seed=seed)
        state = initialize(data[:, 0], data[:, 1], cfg)
        with mock.patch("streampca.adaptive.update_component", side_effect=update):
            for j in range(2, steps):
                # the re-projection may still cancel a component; see the test below
                with contextlib.suppress(DegenerateVectorError):
                    ingest(state, data[:, j])
        assert shares and all(share >= 1 - 1e-9 for share in shares)

    def test_component_in_the_span_of_earlier_ones_is_refused(self):
        # 2-D data scaled by 2^11: step 7's rounding residual exceeds DEGENERATE_TOL and
        # becomes a third component, which step 8's re-projection cancels to norm ~0
        data = np.ldexp(RngState(0).gaussian((2, 11)), 11)
        cfg = AdaptiveConfig(space_limit=4, processing_limit=1)
        state = run_adaptive([data[:, j] for j in range(7)], cfg)
        assert len(state.components) == 3
        before = _snapshot(state)
        with pytest.raises(DegenerateVectorError):
            ingest(state, data[:, 7])
        assert _snapshot(state) == before

    def test_limited_mode_caps_components(self):
        data = RngState(61).gaussian((30, 25))
        samples = [data[:, j] for j in range(25)]
        state = run_adaptive(samples, AdaptiveConfig(space_limit=5, processing_limit=25))
        assert len(state.components) == 5

    def test_run_adaptive_needs_two_samples(self):
        with pytest.raises(ValueError):
            run_adaptive([np.ones(3)], AdaptiveConfig(space_limit=2, processing_limit=2))

    @pytest.mark.parametrize("space", [5, 10, 20])
    def test_full_space_drops_a_trailing_component_it_did_not_update(self, space):
        # a centred deterministic run's last workspace sums to zero, so its residual drops
        # while the space is full; the trailing component, orthogonalised only against the
        # old components, goes with it instead of staying beside the updated ones
        store, _ = synth("lowrank", 300, 60, params={"rank": 10, "sigma": 0.05}, seed=3)
        samples = center(store)
        state = initialize(samples[0], samples[1], AdaptiveConfig(space, 60))
        for j in range(2, 60):
            ingest(state, samples[j])
            v = np.stack(state.components)
            assert np.max(np.abs(v @ v.T - np.eye(len(v)))) <= 1e-8
        assert state.degenerate_events[-1] == (60, space)
        assert len(state.components) == space - 1


    @pytest.mark.parametrize("centred", [False, True], ids=["raw", "centred"])
    def test_space_one_keeps_one_unit_component(self, centred):
        # a space of one updates no component, so a step whose residual drops keeps the
        # lone component; the centred stream's last workspace sums to zero and drops
        store, _ = synth("lowrank", 50, 20, seed=0)
        samples = center(store) if centred else store
        state = initialize(samples[0], samples[1], AdaptiveConfig(space_limit=1, processing_limit=20))
        for j in range(2, 20):
            ingest(state, samples[j])
            assert len(state.components) == 1
            assert abs(float(state.components[0] @ state.components[0]) - 1.0) <= 1e-12
        assert ((20, 1) in state.degenerate_events) == centred


class TestDeflation:
    @pytest.mark.parametrize("d", [500, 2730, 2731, 4096])
    @pytest.mark.parametrize("bufsize", [8192, 1024])
    def test_block_deflation_keeps_its_bits(self, d, bufsize):
        # numpy buffers the product's rows up to bufsize / 3 elements long and runs longer
        # ones unbuffered; either way each row is the same multiply and the same subtract
        block = _DEFLATE_BLOCK_BYTES // (8 * d)
        rng = RngState(d)
        rows = rng.gaussian((2 * block + 3, d))
        v = normalize(rng.gaussian(d))
        want = rows - np.outer(rows @ v, v)
        old = np.setbufsize(bufsize)
        try:
            _deflate(rows, v, np.empty((block, d)))
        finally:
            np.setbufsize(old)
        assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("outcome", ["committed", "overflow", "degenerate"])
    def test_step_restores_the_ufunc_settings(self, outcome):
        scale = 1e50 if outcome == "overflow" else 1.0
        state = initialize([0.0, 0.0, 0.0], [scale, 0.0, 0.0], AdaptiveConfig(5, 5))
        errors = {
            "committed": contextlib.nullcontext(),
            "overflow": pytest.raises(NonFiniteSampleError),
            "degenerate": pytest.raises(DegenerateVectorError),
        }[outcome]
        failing = _failing_update(0) if outcome == "degenerate" else contextlib.nullcontext()
        old = np.setbufsize(2048)
        try:
            with np.errstate(under="raise", divide="ignore"):
                before = (np.getbufsize(), np.geterr())
                with errors, failing:
                    ingest(state, [scale, 2 * scale, 0.0])
                assert (np.getbufsize(), np.geterr()) == before
        finally:
            np.setbufsize(old)
        assert state.n == (3 if outcome == "committed" else 2)


class TestSampleSharing:
    @pytest.mark.parametrize(
        "source",
        [
            lambda x, _: SampleStore.from_matrix(x),
            lambda x, _: center(SampleStore.from_matrix(x)),
            lambda x, tmp_path: load_raw_volumes(str(tmp_path / "step_*.raw"), (30,))[0],
            lambda x, _: synth("lowrank", 30, 12, params={"rank": 3}, seed=1)[0],
        ],
        ids=["from_matrix", "center", "load_raw_volumes", "synth"],
    )
    def test_run_adaptive_shares_every_sample(self, source, tmp_path):
        x = np.asfortranarray(RngState(8).gaussian((30, 12)))
        save_raw_volumes(SampleStore.from_matrix(x), tmp_path)
        store = source(x, tmp_path)
        state = run_adaptive(store, AdaptiveConfig(space_limit=4, processing_limit=12))
        assert state.n == 12
        assert all(np.shares_memory(state.store[j], store[j]) for j in range(12))

    def test_ingest_stores_a_converted_sample_once(self):
        # the float64 vector converted from a float32 sample is frozen, so append keeps it
        data = RngState(9).gaussian((6, 3))
        state = run_adaptive([data[:, 0], data[:, 1]], AdaptiveConfig(space_limit=2, processing_limit=3))
        received = []
        append = SampleStore.append

        def spy(store, v):
            received.append(v)
            append(store, v)

        with mock.patch.object(SampleStore, "append", spy):
            ingest(state, data[:, 2].astype(np.float32))
        assert received[0].dtype == np.float64 and not received[0].flags.writeable
        assert state.store[2] is received[0]
        assert np.shares_memory(state.store[2], received[0])

    def test_ingest_copies_a_writeable_float64_sample(self):
        data = RngState(9).gaussian((6, 3))
        state = run_adaptive([data[:, 0], data[:, 1]], AdaptiveConfig(space_limit=2, processing_limit=3))
        x = data[:, 2].copy()
        ingest(state, x)
        assert x.flags.writeable and not np.shares_memory(state.store[2], x)
        assert np.array_equal(state.store[2], x)

    @pytest.mark.parametrize("loader", ["raw", "pgm"])
    def test_loaded_and_adopted_stores_stream_alike(self, loader, tmp_path):
        # the loader's buffer and from_matrix of the same values give the same components
        pixels = np.arange(7 * 12).reshape(12, 7) * 5 % 251
        pixels[:, 3] = (pixels[:, 3] * 3) % 256
        if loader == "raw":
            for t in range(12):
                (tmp_path / f"s{t:02d}.raw").write_bytes(pixels[t].astype(np.uint8).tobytes())
            loaded, _ = load_raw_volumes(str(tmp_path / "*.raw"), (7,), "u8")
        else:
            for t in range(12):
                head = b"P5\n7 1\n255\n"
                (tmp_path / f"f{t:02d}.pgm").write_bytes(head + pixels[t].astype(np.uint8).tobytes())
            loaded, _ = load_pgm_sequence(tmp_path)
        adopted = SampleStore.from_matrix(pixels.T / 255.0)
        for config in (AdaptiveConfig(4, 12), AdaptiveConfig(3, 5, seed=2)):
            a, b = run_adaptive(loaded, config), run_adaptive(adopted, config)
            assert len(a.components) == len(b.components)
            assert all(np.array_equal(u, v) for u, v in zip(a.components, b.components))
            assert a.degenerate_events == b.degenerate_events

    def test_step_peak_memory_is_one_workspace(self):
        # one deterministic step at d=2000 against 60 previous samples: the deflation works
        # in place over row blocks, so no second workspace-sized array is ever alive
        k, d = 60, 2000
        data = RngState(11).gaussian((d, k + 1))
        state = run_adaptive(
            SampleStore.from_matrix(data[:, :k]), AdaptiveConfig(space_limit=5, processing_limit=k + 1)
        )
        tracemalloc.start()
        try:
            ingest(state, data[:, k])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (k + 1) * d * 8 + 2**20


class TestComplexityCounters:
    def test_deterministic_per_step_formula(self):
        data = RngState(71).gaussian((9, 12))
        samples = [data[:, j] for j in range(12)]
        sl = 6
        state = run_adaptive(samples, AdaptiveConfig(space_limit=sl, processing_limit=100))
        comps = 1
        for step, count in state.counter.per_step_log:
            n = step - 1
            k = n  # deterministic branch
            updated = min(min(n, sl) - 1, comps)
            expected = sum(3 * k + 5 + i for i in range(updated)) + 1
            assert count == expected
            if comps < min(n, sl):
                comps += 1

    def test_per_step_bound(self):
        # per updated component: <= c1 * min(n, limit) + c2 inner products,
        # with c1 = 3 and c2 absorbing the share/normalize/reorthogonalize terms
        data = RngState(81).gaussian((10, 40))
        samples = [data[:, j] for j in range(40)]
        sl, pl = 6, 9
        state = run_adaptive(samples, AdaptiveConfig(space_limit=sl, processing_limit=pl, seed=2))
        c1, c2 = 3, sl + 6
        for step, count in state.counter.per_step_log:
            n = step - 1
            assert count <= sl * (c1 * min(n, pl) + c2)

    def test_stochastic_steps_constant(self):
        data = RngState(91).gaussian((10, 50))
        samples = [data[:, j] for j in range(50)]
        sl, pl = 4, 7
        state = run_adaptive(samples, AdaptiveConfig(space_limit=sl, processing_limit=pl, seed=3))
        tail = [c for step, c in state.counter.per_step_log if step > pl + 1]
        assert len(set(tail)) == 1


class TestStochasticAgreement:
    def test_low_rank_stream(self):
        # every stochastic run lands near the deterministic curve at the cap
        rng = RngState(7)
        a = rng.gaussian((500, 8))
        b = rng.gaussian((8, 200))
        noise = rng.gaussian((500, 200))
        data = a @ b + 0.02 * noise
        store = SampleStore.from_matrix(data)
        samples = [data[:, j] for j in range(200)]
        det = run_adaptive(samples, AdaptiveConfig(space_limit=20, processing_limit=200))
        det_val = explained_variance(det.eigenspace(), store).values[19]
        for seed in range(1, 11):
            cfg = AdaptiveConfig(space_limit=20, processing_limit=40, seed=seed)
            state = run_adaptive(samples, cfg)
            val = explained_variance(state.eigenspace(), store).values[19]
            assert abs(val - det_val) <= 0.05


class TestDataUnits:
    # the update adds a degree-6 term to v, so scaling the data by s weighs the identity by s^-6

    def test_components_converge_as_s_to_the_minus_six(self):
        x = RngState(3).gaussian((60, 40))

        def components(scale):
            cfg = AdaptiveConfig(space_limit=10, processing_limit=40)
            return np.stack(run_adaptive(SampleStore.from_matrix(x * scale), cfg).components)

        limit = components(2.0**20)
        far, near = (np.max(np.abs(components(2.0**e) - limit)) for e in (2, 4))
        # 3.16e-4 at 2^2 and 7.73e-8 at 2^4: a ratio of 4088, about 4^6
        assert 2.0**11 <= far / near <= 2.0**13

    def test_small_units_lose_explained_variance(self):
        store, _ = synth("lowrank", 200, 60, params={"rank": 5, "sigma": 0.05}, seed=1)
        x = store.matrix()

        def ev5(exponent):
            scaled = SampleStore.from_matrix(x * 2.0**exponent)
            state = run_adaptive(scaled, AdaptiveConfig(space_limit=5, processing_limit=60))
            return explained_variance(state.eigenspace(), scaled).values[4]

        # EV@5 is 0.97955 at 2^-12 and 0.99908 at 2^0
        assert ev5(0) - ev5(-12) >= 0.01
        assert abs(ev5(0) - ev5(6)) <= 1e-6


class TestOja:
    # each stream starts from its normalized first sample
    def test_orthogonal_sample_is_noop(self):
        assert np.array_equal(oja([[1.0, 0.0], [0.0, 1.0]], 0.7), [1.0, 0.0])

    def test_collinear_sample_restores_component(self):
        assert np.array_equal(oja([[1.0, 0.0], [1.0, 0.0]], 1.0), [1.0, 0.0])

    def test_quoted_rule_by_hand(self):
        out = oja([[1.0, 0.0], [1.0, 1.0]], 0.5)
        expected = np.array([1.5, 0.5]) / math.sqrt(2.5)
        assert np.allclose(out, expected, atol=1e-15)
        assert abs(out[0] - 0.9486832980505138) <= 1e-12
        assert abs(out[1] - 0.31622776601683794) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sample(self, bad):
        with pytest.raises(NonFiniteSampleError):
            oja([[1.0, 0.0], [bad, 1.0]], 0.1)

    def test_unit_norm_enforced(self):
        # a start sample of norm 2 still gives a unit component
        assert np.array_equal(oja([[2.0, 0.0]], 0.1), [1.0, 0.0])

    def test_rejects_bad_arguments(self):
        for samples, rate in (([[1.0, 0.0], [0.0, 1.0]], 0.0), ([[1.0, 0.0]], -0.1), ([], 0.1)):
            with pytest.raises(ValueError):
                oja(samples, rate)
        with pytest.raises(DimensionMismatchError):
            oja([[1.0, 0.0], [1.0, 0.0, 0.0]], 0.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_rate_that_is_not_positive_and_finite(self, rate):
        # NaN passes a test of rate <= 0, and a NaN or infinite step gives a NaN component
        with pytest.raises(ValueError, match=f"positive and finite, got {rate}"):
            oja([[1.0, 0.0], [1.0, 1.0]], rate)


def _overflowing_step(space, scale):
    cfg = AdaptiveConfig(space_limit=space, processing_limit=5)
    state = initialize([0.0, 0.0, 0.0], [scale, 0.0, 0.0], cfg)
    ingest(state, [scale, 2 * scale, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _overflowing_step(5, 1e50),
        lambda: _overflowing_step(5, 1e60),
        lambda: _overflowing_step(1, 1e154),
        lambda: initialize([0.0, 0.0, 0.0], [1e155, 0.0, 0.0], AdaptiveConfig(5, 5)),
        lambda: initialize([-1e308, 0.0], [1e308, 0.0], AdaptiveConfig(5, 5)),
        lambda: normalize([1e200, 0.0]),
        lambda: oja([[1.0, 0.0], [1e200, 1.0]], 0.1),
        lambda: run_adaptive(overflowing_store(), AdaptiveConfig(5, 5)),
        lambda: dual_pca(overflowing_store()),
        lambda: explained_variance(EigenSpace(np.eye(3)[1:]), overflowing_store()),
        # each sample's squares sum to 1e308; only math.fsum's total overflows
        lambda: explained_variance(
            EigenSpace(np.eye(3)[:1]),
            SampleStore.from_matrix(np.outer([1e154, 0.0, 0.0], np.ones(4))),
        ),
    ],
    ids=[
        "ingest-1e50", "ingest-1e60", "ingest-space1-1e154", "initialize-1e155",
        "initialize-difference", "normalize-1e200", "oja-1e200", "run-adaptive-store",
        "dual-pca-store", "explained-variance-store", "explained-variance-total",
    ],
)
def test_overflow_raises_the_typed_error_not_a_warning(call):
    # the step's norm checks turn an overflow into the typed error; numpy must not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError):
            call()


def _stream_snapshot(state):
    return (
        np.stack(state.components).tobytes(),
        state.store.matrix().tobytes(),
        list(state.counter.per_step_log),
        list(state.degenerate_events),
        state.rng._state,
    )


_BAD_SAMPLES = [
    ("wrong-length", [1.0, 2.0, 3.0, 4.0], DimensionMismatchError),
    ("nan", [1.0, math.nan, 3.0], NonFiniteSampleError),
    # a sample with both faults is refused for its values, not its length
    ("nan-and-wrong-length", [1.0, math.nan, 3.0, 4.0], NonFiniteSampleError),
]


@pytest.mark.parametrize(
    "entry, sample, error",
    [
        pytest.param(entry, sample, error, id=f"{entry}-{name}")
        for entry in ["initialize", "ingest", "oja", "append", "from_matrix"]
        for name, sample, error in _BAD_SAMPLES
        # a matrix's columns all have its length, so it can only hold non-finite samples
        if entry != "from_matrix" or error is NonFiniteSampleError
    ],
)
def test_one_sample_check_at_every_entry_point(entry, sample, error):
    cfg = AdaptiveConfig(space_limit=3, processing_limit=2, seed=4)
    data = RngState(13).gaussian((3, 6))
    if entry == "from_matrix":
        m = np.zeros((len(sample), 3), order="F")  # adopted as it is, so any flag change shows
        m[:, 1] = sample
        with pytest.raises(error, match="time-step 2 has NaN or infinite entries"):
            SampleStore.from_matrix(m)
        assert m.flags.writeable
    elif entry == "append":
        store = SampleStore.from_matrix(data)
        with pytest.raises(error):
            store.append(sample)
        assert store.count == 6 and np.array_equal(store.matrix(), data)
    elif entry == "initialize":
        with pytest.raises(error):
            initialize(data[:, 0], sample, cfg)
    elif entry == "oja":
        with pytest.raises(error):
            oja([data[:, 0], data[:, 1], sample], 0.1)
    else:
        state = initialize(data[:, 0], data[:, 1], cfg)
        for j in range(2, 6):
            ingest(state, data[:, j])
        before = _stream_snapshot(state)
        with pytest.raises(error):
            ingest(state, sample)
        assert _stream_snapshot(state) == before


class TestConfigValidation:
    def test_positive_limits_required(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(space_limit=0, processing_limit=5)
        with pytest.raises(ValueError):
            AdaptiveConfig(space_limit=5, processing_limit=0)
