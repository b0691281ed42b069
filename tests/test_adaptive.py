import contextlib
import hashlib
import itertools
import math
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
    NonFiniteSampleError,
    OjaState,
    RngState,
    SampleStore,
    dual_pca,
    explained_variance,
    curve_gap,
    ingest,
    initialize,
    normalize,
    oja_update,
    run_adaptive,
    update_component,
)

from conftest import FIXTURE_D, FIXTURE_N, FIXTURE_SEED

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
    (counting from 0) raises DegenerateVectorError."""
    calls = itertools.count()

    def update(*args):
        if next(calls) == fail_at:
            raise DegenerateVectorError("injected")
        return update_component(*args)

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
        with _failing_update(1), pytest.raises(DegenerateVectorError):
            ingest(state, data[:, 8])
        assert _snapshot(state) == before
        ingest(state, data[:, 8])
        ingest(reference, data[:, 8])
        assert state.n == 9
        assert _snapshot(state) == _snapshot(reference)

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


class TestOja:
    def test_orthogonal_sample_is_noop(self):
        state = OjaState(component=np.array([1.0, 0.0]), learning_rate=0.7)
        out = oja_update(state, [0.0, 1.0])
        assert np.array_equal(out.component, [1.0, 0.0])

    def test_collinear_sample_restores_component(self):
        state = OjaState(component=np.array([1.0, 0.0]), learning_rate=1.0)
        out = oja_update(state, [1.0, 0.0])
        assert np.array_equal(out.component, [1.0, 0.0])

    def test_quoted_rule_by_hand(self):
        state = OjaState(component=np.array([1.0, 0.0]), learning_rate=0.5)
        out = oja_update(state, [1.0, 1.0])
        expected = np.array([1.5, 0.5]) / math.sqrt(2.5)
        assert np.allclose(out.component, expected, atol=1e-15)
        assert abs(out.component[0] - 0.9486832980505138) <= 1e-12
        assert abs(out.component[1] - 0.31622776601683794) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sample(self, bad):
        state = OjaState(component=np.array([1.0, 0.0]), learning_rate=0.1)
        with pytest.raises(NonFiniteSampleError):
            oja_update(state, [bad, 1.0])

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            OjaState(component=np.array([2.0, 0.0]), learning_rate=0.1)


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
        lambda: oja_update(OjaState([1.0, 0.0], 0.1), [1e200, 1.0]),
    ],
    ids=[
        "ingest-1e50", "ingest-1e60", "ingest-space1-1e154", "initialize-1e155",
        "initialize-difference", "normalize-1e200", "oja-1e200",
    ],
)
def test_overflow_raises_the_typed_error_not_a_warning(call):
    # the step's norm checks turn an overflow into the typed error; numpy must not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError):
            call()


class TestConfigValidation:
    def test_positive_limits_required(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(space_limit=0, processing_limit=5)
        with pytest.raises(ValueError):
            AdaptiveConfig(space_limit=5, processing_limit=0)
