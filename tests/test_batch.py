import math
import tracemalloc

import numpy as np
import pytest

from streampca import (
    ConvergenceError,
    DegenerateDataError,
    DimensionMismatchError,
    EigenSpace,
    RngState,
    SampleStore,
    center,
    dual_pca,
    gram,
    sym_eig,
    synth,
)
from streampca.batch import RANK_TOL

# Eigenvalues of the symmetric 6x6 built from RngState(42), frozen from the
# roots of its characteristic polynomial (numpy.poly + numpy.roots, an
# independent route through the companion matrix).
CHARPOLY_ROOTS_6X6 = [
    2.696873476124479,
    1.6835024800422331,
    -0.1965369285072714,
    -0.6744292361541764,
    -1.0493041512735923,
    -2.780340937354195,
]


def _angle(u, v):
    # 2 asin(|a - b| / 2) on sign-aligned unit vectors; acos(|cos|) cannot
    # resolve angles below ~1.5e-8, where the cosine rounds to 1.0
    a = np.asarray(u, dtype=np.float64) / np.linalg.norm(u)
    b = np.asarray(v, dtype=np.float64) / np.linalg.norm(v)
    if float(np.dot(a, b)) < 0.0:
        b = -b
    return 2.0 * math.asin(min(1.0, float(np.linalg.norm(a - b)) / 2.0))


class TestGram:
    def test_orthonormal_columns(self):
        store = SampleStore.from_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(gram(store), np.eye(2))

    def test_antipodal_pair(self):
        store = SampleStore.from_matrix([[1.0, -1.0], [0.0, 0.0]])
        assert np.array_equal(gram(store), [[1.0, -1.0], [-1.0, 1.0]])

    def test_identical_samples_center_to_zero(self):
        store = SampleStore.from_matrix([[1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(gram(center(store)), np.zeros((2, 2)))

    def test_insufficient_data(self):
        store = SampleStore(2)
        store.append([1.0, 0.0])
        with pytest.raises(DegenerateDataError):
            gram(store)

    def test_exact_symmetry(self):
        store = SampleStore.from_matrix(RngState(6).gaussian((7, 5)))
        g = gram(store)
        assert np.array_equal(g, g.T)
        assert np.all(g.diagonal() >= 0.0)


@pytest.mark.parametrize(
    "generator, d, n, params",
    [
        ("cascade", 2000, 300, {}),
        ("rotating_blob", 4096, 800, {}),
        ("lowrank", 500, 100, {"rank": 30, "sigma": 0.05}),
        ("lowrank", 1024, 200, {"rank": 200, "sigma": 1.0}),
    ],
    ids=["cascade", "blob", "lowrank", "full-rank"],
)
def test_center_holds_its_result_and_one_block(generator, d, n, params):
    # the centred result, which the new store adopts, and one C-order row block
    store, _ = synth(generator, d, n, params=params, seed=9)
    tracemalloc.start()
    try:
        centred = center(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * d * n * 8 + 256 * 1024
    # the mean of a C-order copy of the whole store: its rows are summed pairwise
    x = np.ascontiguousarray(store.matrix())
    assert np.array_equal(centred.matrix(), x - x.mean(axis=1, keepdims=True))


def test_dual_pca_allocates_its_result_and_gram_sized_arrays():
    # the samples are read in place: beyond the (rank, d) result only n x n arrays
    d, n = 2000, 100
    store = SampleStore.from_matrix(np.asfortranarray(RngState(5).gaussian((d, n))))
    tracemalloc.start()
    try:
        space = dual_pca(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= space.components.nbytes + 6 * n * n * 8


def test_dual_pca_normalises_by_the_linalg_norm():
    # the column norms are taken without np.linalg.norm's squared copy, to the same bits
    store, _ = synth("cascade", 300, 40, seed=2)
    x = store.matrix()
    mu, u = sym_eig(x.T @ x)
    primal = x @ u[:, mu > RANK_TOL * mu[0]]
    primal /= np.linalg.norm(primal, axis=0, keepdims=True)
    assert np.array_equal(dual_pca(store).components, primal.T)


class TestSymEig:
    def test_diagonal_input(self):
        w, q = sym_eig(np.diag([3.0, 1.0]))
        assert np.array_equal(w, [3.0, 1.0])
        assert np.allclose(np.abs(q), np.eye(2), atol=1e-15)

    def test_known_2x2(self):
        w, q = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [3.0, 1.0], atol=1e-12)
        r = 1.0 / math.sqrt(2.0)
        assert _angle(q[:, 0], [r, r]) <= 1e-8
        assert _angle(q[:, 1], [r, -r]) <= 1e-8

    def test_random_6x6_against_charpoly_roots(self):
        m = RngState(42).gaussian((6, 6))
        m = (m + m.T) / 2.0
        w, _ = sym_eig(m)
        assert np.max(np.abs(w - np.array(CHARPOLY_ROOTS_6X6))) <= 1e-8

    def test_reconstruction_residual_and_orthonormality(self):
        for seed, n in ((0, 5), (1, 12), (2, 40)):
            m = RngState(seed).gaussian((n, n))
            m = (m + m.T) / 2.0
            w, q = sym_eig(m)
            recon = q @ np.diag(w) @ q.T
            assert np.max(np.abs(recon - m)) <= max(0.0, 1e-9 * np.max(np.abs(m)))
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-9

    def test_eigenvalue_sum_is_trace(self):
        m = RngState(10).gaussian((15, 15))
        m = (m + m.T) / 2.0
        w, _ = sym_eig(m)
        assert abs(w.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))

    def test_sorted_descending(self):
        m = RngState(11).gaussian((9, 9))
        m = (m + m.T) / 2.0
        w, _ = sym_eig(m)
        assert np.all(np.diff(w) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_empty_matrix(self):
        with pytest.raises(DimensionMismatchError, match="non-empty square matrix"):
            sym_eig(np.empty((0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(ValueError):
            sym_eig(m)

    def test_peak_memory_is_close_to_eighs(self):
        # the checks share one n x n buffer and free it before eigh allocates its own
        g = gram(synth("cascade", d=2000, n=300, seed=9)[0])
        peaks = []
        for solve in (sym_eig, np.linalg.eigh):
            tracemalloc.start()
            try:
                solve(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.15 * peaks[1]

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        m = RngState(3).gaussian((6, 6))
        with pytest.raises(ConvergenceError):
            sym_eig((m + m.T) / 2.0)

    def test_rank_deficient_gram(self):
        # more samples than dimensions: half the spectrum is numerically zero
        data = RngState(42).gaussian((5, 10))
        g = data.T @ data
        g = (g + g.T) / 2.0
        w, q = sym_eig(g)
        wn = np.sort(np.linalg.eigvalsh(g))[::-1]
        assert np.max(np.abs(w - wn)) <= 1e-9 * max(1.0, wn[0])


class TestDualPca:
    def test_antipodal_pair(self):
        store = SampleStore.from_matrix([[1.0, -1.0], [0.0, 0.0]])
        space = dual_pca(store)
        assert len(space) == 1
        assert abs(abs(space.components[0, 0]) - 1.0) <= 1e-12
        assert abs(space.components[0, 1]) <= 1e-12
        assert abs(space.eigenvalues[0] - 2.0) <= 1e-12

    def test_rank_one_data(self):
        cols = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        space = dual_pca(SampleStore.from_matrix(cols))
        assert len(space) == 1
        assert abs(abs(space.components[0, 1]) - 1.0) <= 1e-12

    def test_matches_direct_covariance_eigendecomposition(self):
        # oracle: the d x d covariance built explicitly, fed to the same solver
        data = RngState(1).gaussian((20, 8))
        store = SampleStore.from_matrix(data)
        space = dual_pca(center(store))
        xc = data - data.mean(axis=1, keepdims=True)
        cov = (xc @ xc.T) / (data.shape[1] - 1)
        w, q = sym_eig(cov)
        for i in range(len(space)):
            assert abs(space.eigenvalues[i] - w[i]) <= 1e-8
            assert _angle(space.components[i], q[:, i]) <= 1e-6

    def test_primal_parallel_to_mapped_dual(self):
        # Gram eigenvector u maps to the primal component along X u
        data = RngState(14).gaussian((30, 6))
        store = SampleStore.from_matrix(data)
        space = dual_pca(store)
        mu, u = sym_eig(gram(store))
        for i in range(len(space)):
            mapped = data @ u[:, i]
            assert _angle(space.components[i], mapped) <= 1e-8

    def test_components_orthonormal(self):
        data = RngState(21).gaussian((40, 9))
        space = dual_pca(SampleStore.from_matrix(data))
        g = space.components @ space.components.T
        assert np.max(np.abs(g - np.eye(len(space)))) <= 1e-8

    def test_eigenvalue_sum_matches_total_variance(self):
        for centered in (False, True):
            data = RngState(33).gaussian((25, 7))
            store = SampleStore.from_matrix(data)
            space = dual_pca(center(store) if centered else store)
            x = data - data.mean(axis=1, keepdims=True) if centered else data
            total = (x**2).sum() / (store.count - 1)
            assert abs(space.eigenvalues.sum() - total) <= 1e-9 * total

    def test_centered_rank_cap(self):
        data = RngState(2).gaussian((12, 6))
        space = dual_pca(center(SampleStore.from_matrix(data)))
        assert len(space) <= 5

    def test_rank_zero_error(self):
        store = SampleStore.from_matrix([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        with pytest.raises(DegenerateDataError):
            dual_pca(center(store))


class TestOracleEquivalenceProperty:
    def test_random_instances(self):
        # small instances only; the acceptance suite runs the full 50
        rng = RngState(99)
        for _ in range(8):
            d = 2 + rng.below(24)
            n = 2 + rng.below(11)
            data = rng.gaussian((d, n))
            store = SampleStore.from_matrix(data)
            space = dual_pca(center(store))
            xc = data - data.mean(axis=1, keepdims=True)
            cov = (xc @ xc.T) / (n - 1)
            w, q = sym_eig(cov)
            for i in range(len(space)):
                assert abs(space.eigenvalues[i] - w[i]) <= 1e-8
                if i + 1 < len(w) and w[i] - w[i + 1] < 1e-6:
                    continue  # tied pair: per-vector angles are not defined
                if i > 0 and w[i - 1] - w[i] < 1e-6:
                    continue
                assert _angle(space.components[i], q[:, i]) <= 1e-6


class TestEigenSpaceInvariants:
    def test_rejects_non_unit_components(self):
        with pytest.raises(ValueError):
            EigenSpace([[2.0, 0.0]])

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(ValueError):
            EigenSpace(np.eye(2), eigenvalues=[1.0, 2.0])

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            EigenSpace(np.eye(2), eigenvalues=[1.0, -0.5])
