"""Batch PCA through the Gram-matrix route.

For n samples in d dimensions with n << d, the d x d covariance
eigenproblem is equivalent to the n x n Gram eigenproblem: if
X^T X u = mu u then X u is an (unnormalized) covariance eigenvector with
eigenvalue mu / (n - 1). This module computes the full spectrum that way,
with LAPACK's symmetric eigensolver, and serves as the reference every
streaming estimate is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DegenerateDataError,
    DimensionMismatchError,
    NonFiniteSampleError,
    SampleStore,
)


@dataclass
class EigenSpace:
    """Ordered orthonormal basis with optional eigenvalues.

    ``components`` is a (p, dim) array whose rows are unit vectors; a
    single vector is one component. ``eigenvalues``, when present, are
    non-negative and non-increasing. The basis describes whatever samples
    produced it; centre them with ``center`` first for covariance PCA.
    """

    components: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        self.components = np.atleast_2d(np.asarray(self.components, dtype=np.float64))
        # the row norms without np.linalg.norm's squared copy of the components
        norms = np.sqrt(np.einsum("ij,ij->i", self.components, self.components))
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

    @property
    def dim(self) -> int:
        return self.components.shape[1]

    def __len__(self) -> int:
        return self.components.shape[0]


RANK_TOL = 1e-10  # Gram eigenvalues at or below RANK_TOL * mu_max count as zero


def center(store: SampleStore) -> SampleStore:
    """New store holding the samples minus their mean, in the same order.

    The one place a mean is subtracted: every routine takes its samples
    as given, so pass ``center(store)`` for mean-subtracted PCA. Each row
    mean sums its row pairwise over one C-order copy (that rounding feeds
    every step on the centred store), freed before the result is allocated.
    """
    x = store.matrix()
    means = np.ascontiguousarray(x).mean(axis=1)
    # column-major, so the new store adopts the result without a copy
    return SampleStore.from_matrix(np.subtract(x, means[:, None], order="F"))


def gram(store: SampleStore) -> np.ndarray:
    """n x n matrix of pairwise inner products of the samples as stored.

    The result is exactly symmetric: numpy computes a product of a matrix
    with its own transpose as one triangle (BLAS ``syrk``) and mirrors it.
    Finite samples whose inner products overflow float64 raise
    NonFiniteSampleError, as the streaming step does.
    """
    if store.count < 2:
        raise DegenerateDataError(f"need at least 2 samples, have {store.count}")
    x = store.matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x
    if not np.isfinite(g).all():
        raise NonFiniteSampleError("the samples' inner products overflow float64")
    return g


def sym_eig(m):
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns (eigenvalues, eigenvectors): eigenvalues sorted descending and
    eigenvectors as the matching columns of an orthonormal matrix. ``eigh``
    reads one triangle of the matrix as given, with no symmetrising copy;
    the finiteness and symmetry checks share one n x n buffer, freed before
    ``eigh`` runs. Raises DimensionMismatchError for an empty or non-square
    input, ValueError for a non-finite or asymmetric matrix and
    ConvergenceError when LAPACK does not converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {a.shape}")
    # one n x n buffer serves both maxima and is freed before eigh allocates its own
    t = np.abs(a)
    scale = float(t.max())  # NaN when any entry is
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    np.abs(np.subtract(a, a.T, out=t), out=t)
    asymmetry = float(t.max())
    del t
    if asymmetry > 1e-9 * max(1.0, scale):
        raise ValueError("matrix is not symmetric within 1e-9")
    try:
        # eigh reads the lower triangle alone, which the check above keeps within 1e-9 of
        # the symmetric part; gram's matrix is exactly symmetric, so no symmetrising copy
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigh did not converge: {err}") from err
    return w[::-1], q[:, ::-1]


def dual_pca(store: SampleStore) -> EigenSpace:
    """Full PCA basis of the samples as stored, via the Gram eigenproblem.

    Gram eigenpairs (mu, u) with mu > RANK_TOL * mu_max map to primal
    components X u (normalized) with eigenvalue mu / (n - 1), ordered by
    descending eigenvalue. Raises DegenerateDataError for fewer than two
    samples or samples that carry no variance. No mean is subtracted;
    pass ``center(store)`` for that. The store is read in place; the call
    allocates the n x n Gram and eigenvectors and its result.
    """
    g = gram(store)
    mu, u = sym_eig(g)
    if mu[0] <= 0.0:
        raise DegenerateDataError("all Gram eigenvalues are at or below zero")
    keep = mu > RANK_TOL * mu[0]
    mu = mu[keep]
    u = u[:, keep]
    primal = store.matrix() @ u
    # the column norms in np.linalg.norm's summation order, without its squared copy
    primal /= np.sqrt(np.einsum("ij,ij->j", primal, primal))
    return EigenSpace(primal.T, eigenvalues=mu / (store.count - 1))

