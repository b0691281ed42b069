"""Batch PCA through the Gram-matrix route.

For n samples in d dimensions with n << d, the d x d covariance
eigenproblem is equivalent to the n x n Gram eigenproblem: if
X^T X u = mu u then X u is an (unnormalized) covariance eigenvector with
eigenvalue mu / (n - 1). This module computes the full spectrum that way,
with LAPACK's symmetric eigensolver, and serves as the reference every
streaming estimate is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DimensionMismatchError,
    InsufficientDataError,
    RankZeroError,
    SampleStore,
)


@dataclass
class EigenSpace:
    """Ordered orthonormal basis with optional eigenvalues.

    ``components`` is a (p, dim) array whose rows are unit vectors.
    ``eigenvalues``, when present, are non-negative and non-increasing.
    The basis describes whatever samples produced it; centre them with
    ``center`` first for covariance PCA.
    """

    dim: int
    components: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        self.components = np.atleast_2d(np.asarray(self.components, dtype=np.float64))
        if self.components.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"components have {self.components.shape[1]} entries, dim is {self.dim}"
            )
        norms = np.linalg.norm(self.components, axis=1)
        if self.components.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-8:
            raise ValueError("components must be unit-norm within 1e-8")
        if self.eigenvalues is not None:
            self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
            if self.eigenvalues.shape[0] != self.components.shape[0]:
                raise DimensionMismatchError("one eigenvalue per component required")
            if self.eigenvalues.size:
                if np.min(self.eigenvalues) < -1e-10:
                    raise ValueError("eigenvalues must be non-negative")
            if self.eigenvalues.size > 1:
                if np.max(np.diff(self.eigenvalues)) > 1e-10:
                    raise ValueError("eigenvalues must be non-increasing")

    def __len__(self) -> int:
        return self.components.shape[0]


RANK_TOL = 1e-10  # Gram eigenvalues at or below RANK_TOL * mu_max count as zero


def center(store: SampleStore) -> SampleStore:
    """New store holding the samples minus their mean, in the same order.

    The one place a mean is subtracted: every routine takes its samples
    as given, so pass ``center(store)`` for mean-subtracted PCA.
    """
    x = store.matrix()
    # column-major, so the new store adopts the result without a copy
    return SampleStore.from_matrix(np.subtract(x, x.mean(axis=1, keepdims=True), order="F"))


def gram(store: SampleStore) -> np.ndarray:
    """n x n matrix of pairwise inner products of the samples as stored.

    The result is exactly symmetric: each pair is computed once and
    mirrored.
    """
    if store.count < 2:
        raise InsufficientDataError(f"need at least 2 samples, have {store.count}")
    x = store.matrix()
    g = x.T @ x
    return np.triu(g) + np.triu(g, 1).T


def sym_eig(m):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending and
    eigenvectors as the matching columns of an orthonormal matrix. Raises
    DimensionMismatchError for an empty or non-square input, ValueError
    for a non-finite or asymmetric matrix and ConvergenceError when LAPACK
    does not converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a)))
    if float(np.max(np.abs(a - a.T))) > 1e-9 * max(1.0, scale):
        raise ValueError("matrix is not symmetric within 1e-9")
    try:
        w, q = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigh did not converge: {err}") from err
    return w[::-1], q[:, ::-1]


def dual_pca(store: SampleStore) -> EigenSpace:
    """Full PCA basis of the samples as stored, via the Gram eigenproblem.

    Gram eigenpairs (mu, u) with mu > RANK_TOL * mu_max map to primal
    components X u (normalized) with eigenvalue mu / (n - 1), ordered by
    descending eigenvalue. Raises RankZeroError when nothing survives the
    tolerance. No mean is subtracted; pass ``center(store)`` for that.
    """
    g = gram(store)
    mu, u = sym_eig(g)
    if mu[0] <= 0.0:
        raise RankZeroError("all Gram eigenvalues are at or below zero")
    keep = mu > RANK_TOL * mu[0]
    if not np.any(keep):
        raise RankZeroError("all Gram eigenvalues fall below the rank tolerance")
    mu = mu[keep]
    u = u[:, keep]
    primal = store.matrix() @ u
    primal /= np.linalg.norm(primal, axis=0, keepdims=True)
    return EigenSpace(dim=store.dim, components=primal.T, eigenvalues=mu / (store.count - 1))


def project(space: EigenSpace, x) -> np.ndarray:
    """Scores of a sample against the basis: w_i = <v_i, x>."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"sample has shape {vec.shape}, space dim is {space.dim}"
        )
    return space.components @ vec


def reconstruct(space: EigenSpace, w) -> np.ndarray:
    """Sample rebuilt from scores: sum_i w_i v_i."""
    scores = np.asarray(w, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] != len(space):
        raise DimensionMismatchError(
            f"got {scores.shape} scores for {len(space)} components"
        )
    return space.components.T @ scores
