import math
import tracemalloc

import numpy as np
import pytest

from streampca import (
    AdaptiveConfig,
    CurveSeries,
    DegenerateDataError,
    DimensionMismatchError,
    EigenSpace,
    RngState,
    SampleStore,
    center,
    curve_gap,
    dual_pca,
    eigenfunctions,
    explained_variance,
    mean_curve,
    run_adaptive,
    subspace_overlap,
    synth,
)

# Frozen regression values for the shared seed-42 fixture stream.
FIXTURE_GAP_PP = 8.772481591528047
FIXTURE_OVERLAP_TOP3 = 0.9737637615437787
FIXTURE_STOCHASTIC_MEAN = [
    0.41039861060251726,
    0.7240314990768182,
    0.8557044020528366,
    0.9537231618544038,
    1.0,
]


class TestExplainedVariance:
    def test_rank_one_data_full_basis(self):
        store = SampleStore.from_matrix([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0]])
        space = EigenSpace(np.eye(2))
        curve = explained_variance(space, store)
        assert np.allclose(curve.values, [1.0, 1.0], atol=1e-12)

    def test_full_batch_space_reaches_one(self, fixture_store, fixture_batch_space):
        curve = explained_variance(fixture_batch_space, fixture_store)
        assert abs(curve.values[-1] - 1.0) <= 1e-9

    def test_truncated_space_on_exact_low_rank(self):
        store, _ = synth("lowrank", d=30, n=20, params={"rank": 3, "sigma": 0.0}, seed=5)
        space = dual_pca(store)
        truncated = EigenSpace(space.components[:7])
        curve = explained_variance(truncated, store)
        assert abs(curve.values[2] - 1.0) <= 1e-9

    def test_matches_eigenvalue_ratios(self):
        # projection-based and eigenvalue-based definitions agree on batch output
        for centered in (False, True):
            data = RngState(13).gaussian((15, 9))
            store = SampleStore.from_matrix(data)
            if centered:
                store = center(store)
            space = dual_pca(store)
            curve = explained_variance(space, store)
            ratios = np.cumsum(space.eigenvalues) / space.eigenvalues.sum()
            assert np.max(np.abs(curve.values - ratios)) <= 1e-9

    def test_shares_bounded_for_orthonormal_space(self):
        data = RngState(19).gaussian((12, 8))
        store = SampleStore.from_matrix(data)
        space = dual_pca(store)
        curve = explained_variance(space, store)
        shares = np.diff(np.concatenate([[0.0], curve.values]))
        assert np.all(shares >= -1e-12)
        assert curve.values[-1] <= 1.0 + 1e-9

    def test_matches_the_two_temporary_formula_bit_for_bit(self, fixture_store, fixture_batch_space):
        # the total is squared in place in the curve's own copy: same values, same summation order
        lowrank, _ = synth("lowrank", 300, 60, params={"rank": 10, "sigma": 0.05}, seed=3)
        for space, store in ((fixture_batch_space, fixture_store), (dual_pca(lowrank), lowrank)):
            x = store.matrix()
            shares = ((space.components @ x) ** 2).sum(axis=1) / float((x**2).sum())
            assert np.array_equal(explained_variance(space, store).values, np.cumsum(shares))

    def test_zero_variance_data(self):
        store = SampleStore.from_matrix(np.zeros((3, 4)))
        space = EigenSpace([[1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateDataError):
            explained_variance(space, store)

    def test_dim_mismatch(self):
        store = SampleStore.from_matrix(np.zeros((3, 4)))
        space = EigenSpace(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            explained_variance(space, store)

    def test_one_sample(self):
        store = SampleStore.from_matrix(np.ones((3, 1)))
        with pytest.raises(DegenerateDataError):
            explained_variance(EigenSpace(np.eye(3)), store)


class TestReadsTheStoreInPlace:
    # d=2000, n=100, 10 components: a restacked copy of the store would be 1.6 MB
    D, N, P = 2000, 100, 10

    @pytest.fixture(scope="class")
    def store_and_space(self):
        store = SampleStore.from_matrix(np.asfortranarray(RngState(5).gaussian((self.D, self.N))))
        return store, EigenSpace(dual_pca(store).components[: self.P])

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_explained_variance_allocates_its_scores(self, store_and_space):
        # the (components, steps) scores and one d-vector of squares for the total
        store, space = store_and_space
        _, peak = self._peak(lambda: explained_variance(space, store))
        assert peak <= self.P * self.N * 8 + self.D * 8 + 8192

    def test_eigenfunctions_allocate_their_result(self, store_and_space):
        store, space = store_and_space
        funcs, peak = self._peak(lambda: eigenfunctions(space, store))
        assert peak <= funcs.nbytes + 8192

    def test_total_is_the_fsum_of_per_sample_squared_norms(self, store_and_space):
        store, space = store_and_space
        x = store.matrix()
        total = math.fsum(float((x[:, t] ** 2).sum()) for t in range(self.N))
        shares = ((space.components @ x) ** 2).sum(axis=1) / total
        assert np.array_equal(explained_variance(space, store).values, np.cumsum(shares))


class TestCurveGap:
    def test_identical_curves(self):
        a = CurveSeries([0.5, 1.0], label="a")
        assert curve_gap(a, a) == 0.0

    def test_direct_substitution(self):
        a = CurveSeries([0.5, 1.0])
        b = CurveSeries([0.4, 1.0])
        assert abs(curve_gap(a, b) - 10.0) <= 1e-12

    def test_common_prefix_truncation(self):
        a = CurveSeries([0.5, 0.8, 1.0])
        b = CurveSeries([0.5, 0.7])
        assert abs(curve_gap(a, b) - 10.0) <= 1e-12

    def test_fixture_regression(self, fixture_store, fixture_batch_space, fixture_adaptive_state):
        batch = explained_variance(fixture_batch_space, fixture_store)
        adaptive = explained_variance(fixture_adaptive_state.eigenspace(), fixture_store)
        assert curve_gap(batch, adaptive) == pytest.approx(FIXTURE_GAP_PP, abs=1e-8)

    def test_metric_properties(self):
        rng = RngState(3)
        for _ in range(20):
            vals = np.sort(rng.uniform((3, 4)), axis=1)
            a, b, c = (CurveSeries(v) for v in vals)
            assert curve_gap(a, b) == curve_gap(b, a)
            assert curve_gap(a, a) == 0.0
            assert curve_gap(a, c) <= curve_gap(a, b) + curve_gap(b, c) + 1e-12


class TestMeanCurve:
    def test_single_run_is_itself(self):
        a = CurveSeries([0.2, 0.9])
        m = mean_curve([a])
        assert np.array_equal(m.values, a.values)

    def test_pointwise_mean(self):
        m = mean_curve([CurveSeries([0.2, 0.6]), CurveSeries([0.4, 0.8])])
        assert np.allclose(m.values, [0.3, 0.7], atol=1e-15)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            mean_curve([])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mean_curve([CurveSeries([0.5, 1.0]), CurveSeries([1.0])])

    def test_fixture_stochastic_mean_regression(self, fixture_matrix, fixture_store):
        samples = [fixture_matrix[:, j] for j in range(fixture_matrix.shape[1])]
        curves = []
        for seed in range(1, 11):
            cfg = AdaptiveConfig(space_limit=10, processing_limit=4, seed=seed)
            state = run_adaptive(samples, cfg)
            curves.append(explained_variance(state.eigenspace(), fixture_store))
        m = mean_curve(curves)
        assert np.max(np.abs(m.values - np.array(FIXTURE_STOCHASTIC_MEAN))) <= 1e-8


class TestEigenfunctions:
    def test_identity_basis_returns_coordinates(self):
        store = SampleStore.from_matrix([[1.0, 0.0], [0.0, 1.0]])
        space = EigenSpace(np.eye(2))
        funcs = eigenfunctions(space, store)
        assert np.array_equal(funcs, np.eye(2))

    def test_full_basis_reconstructs_samples(self, fixture_store, fixture_batch_space):
        funcs = eigenfunctions(fixture_batch_space, fixture_store)
        approx = fixture_batch_space.components.T @ funcs
        assert np.max(np.abs(approx - fixture_store.matrix())) <= 1e-9

    def test_traveling_wave_quadrature(self):
        # speed chosen so the window covers exactly one temporal period
        store, _ = synth("traveling_wave", d=64, n=40, params={"speed": 1.6}, seed=0)
        space = dual_pca(store)
        assert len(space) == 2
        funcs = eigenfunctions(space, store)
        t = np.arange(40)
        omega = 2.0 * np.pi * 1.6 / 64.0
        design = np.stack([np.cos(omega * t), np.sin(omega * t)], axis=1)
        phases = []
        for i in range(2):
            coef, *_ = np.linalg.lstsq(design, funcs[i], rcond=None)
            resid = np.linalg.norm(funcs[i] - design @ coef) / np.linalg.norm(funcs[i])
            assert resid < 1e-6
            phases.append(math.atan2(-coef[1], coef[0]))
        delta = abs(phases[0] - phases[1]) % (2.0 * math.pi)
        delta = min(delta, 2.0 * math.pi - delta)
        assert abs(delta - math.pi / 2.0) <= 1e-6

    def test_dim_mismatch(self):
        store = SampleStore.from_matrix(np.zeros((3, 4)))
        space = EigenSpace(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            eigenfunctions(space, store)


class TestSubspaceOverlap:
    def test_identical_spaces(self):
        space = EigenSpace(np.eye(3))
        assert subspace_overlap(space, space, 3) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_one_dim_spaces(self):
        a = EigenSpace([[1.0, 0.0]])
        b = EigenSpace([[0.0, 1.0]])
        assert subspace_overlap(a, b, 1) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_regression(self, fixture_batch_space, fixture_adaptive_state):
        adaptive = fixture_adaptive_state.eigenspace()
        top5 = subspace_overlap(fixture_batch_space, adaptive, 5)
        assert top5 == pytest.approx(1.0, abs=1e-9)  # both span all of R^5
        top3 = subspace_overlap(fixture_batch_space, adaptive, 3)
        assert top3 == pytest.approx(FIXTURE_OVERLAP_TOP3, abs=1e-8)

    def test_rotation_invariance(self):
        # spanning the same plane with a rotated basis keeps overlap at 1
        c, s = math.cos(0.3), math.sin(0.3)
        a = EigenSpace([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = EigenSpace([[c, s, 0.0], [-s, c, 0.0]])
        assert subspace_overlap(a, b, 2) == pytest.approx(1.0, abs=1e-12)

    def test_k_out_of_range(self):
        a = EigenSpace([[1.0, 0.0]])
        with pytest.raises(ValueError):
            subspace_overlap(a, a, 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subspace_overlap(EigenSpace(np.eye(2)), EigenSpace(np.eye(3)), 1)


class TestCurveSeriesInvariants:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            CurveSeries([0.5, 0.4])

    def test_errors_name_the_label_and_the_extreme(self):
        # the largest value out of range, the smallest below it, and the most negative step
        for values, message in (
            ([0.5, 1.368], "curve 'adaptive' values must lie in [0, 1]; max 1.368"),
            ([-0.25, 1.5], "curve 'adaptive' values must lie in [0, 1]; min -0.25"),
            ([0.5, 0.4, 0.45, 0.2], "curve 'adaptive' values must be non-decreasing; step -0.25"),
        ):
            with pytest.raises(ValueError) as err:
                CurveSeries(values, label="adaptive")
            assert str(err.value) == message

    def test_rejects_above_one(self):
        # a non-finite value fails the same range check
        for values in ([0.5, 1.5], [0.5, math.inf], [-math.inf, 0.5], [math.nan], [0.5, math.nan]):
            with pytest.raises(ValueError, match="must lie in"):
                CurveSeries(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CurveSeries([])
