"""Functional principal component analysis on a quadrature grid.

The sample covariance surface is diagonalized through the symmetric matrix
``W^{1/2} C W^{1/2}`` where ``W`` is the diagonal of quadrature weights, so
the recovered eigenfunctions are orthonormal in the quadrature inner product
and the component scores have variance equal to the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

from .fdata import FunctionalSample, Grid

__all__ = ["FpcBasis", "fpc_decompose", "project_scores", "reconstruct"]

# Relative cutoff below which trailing eigenvalues are treated as zero.
_EIGVAL_RTOL = 1e-10


@dataclass(frozen=True)
class FpcBasis:
    """Leading eigenfunctions of a sample covariance operator.

    Parameters
    ----------
    grid : Grid
        Grid the eigenfunctions are evaluated on.
    mean : ndarray, shape (p,)
        Sample mean curve removed before the decomposition.
    eigenfunctions : ndarray, shape (K, p)
        Eigenfunctions, orthonormal under the grid's quadrature weights.
    eigenvalues : ndarray, shape (K,)
        Matching eigenvalues in decreasing order, all nonnegative; numerically
        zero ones are exactly 0.0, and ``rank_deficient`` says if any are.
    """

    grid: Grid
    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_components(self) -> int:
        return self.eigenfunctions.shape[0]

    @property
    def rank_deficient(self) -> bool:
        return bool(np.any(self.eigenvalues == 0.0))


def fpc_decompose(sample: FunctionalSample, n_components: int) -> tuple[FpcBasis, np.ndarray]:
    """Extract leading principal components of a functional sample.

    Only the ``n_components`` leading eigenpairs of the weighted covariance
    are computed, by one direct LAPACK ``dsyevr`` call with the workspace
    ``dsyevr_lwork`` returns: bisection and inverse iteration (``dstebz``,
    ``dstein``) on the tridiagonal form, or MRRR (``dstemr``) when all ``p``
    are asked for. A slice of a larger decomposition (``_leading``) matches
    a fresh decomposition at the smaller truncation to rounding. An
    overflowing covariance raises ``ValueError``, and a LAPACK failure
    ``LinAlgError`` (a ``ValueError`` too).

    Parameters
    ----------
    sample : FunctionalSample
        ``n`` curves on a common grid of ``p`` points.
    n_components : int
        Number of components requested; at most ``min(n - 1, p)``.

    Returns
    -------
    basis : FpcBasis
        Eigenfunctions, eigenvalues and the removed mean curve.
    scores : ndarray, shape (n, K)
        Quadrature projections of the centered curves onto the basis.
    """
    if n_components < 1:
        raise ValueError("n_components must be positive")
    n, p = sample.values.shape
    if n < 2:
        raise ValueError("need at least two curves to estimate a covariance")
    if n_components > min(n - 1, p):
        raise ValueError(
            f"n_components={n_components} exceeds the covariance rank bound "
            f"min(n - 1, p) = {min(n - 1, p)}"
        )
    K = n_components

    mean = sample.values.mean(axis=0)
    centered = sample.values - mean
    w = sample.grid.weights
    sqrt_w = np.sqrt(w)

    # Overflow is reported once, by the check below, not also as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = centered.T @ centered / n
        sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    if not np.isfinite(sym).all():
        raise ValueError("the weighted covariance is not finite; rescale the curves")
    # The call scipy.linalg.eigh(sym, subset_by_index=[p - K, p - 1],
    # driver="evr") makes; another workspace size changes the bytes.
    lwork, liwork, _ = dsyevr_lwork(p, lower=1)
    eigvals, eigvecs, m, _, info = dsyevr(
        sym, compute_v=1, range="I", lower=1, il=p - K + 1, iu=p, lwork=int(lwork), liwork=liwork
    )
    if info != 0:
        raise LinAlgError(f"dsyevr failed with info = {info}")
    eigvals, eigvecs = eigvals[:m], eigvecs[:, :m]
    order = np.argsort(eigvals)[::-1]
    lam = eigvals[order]
    vecs = eigvecs[:, order]

    # Numerically nil eigenvalues become 0.0; all do if the covariance vanishes.
    cutoff = _EIGVAL_RTOL * lam[0] if lam[0] > 0.0 else np.inf
    lam = np.where(lam < cutoff, 0.0, lam)

    # Back-transform to eigenfunctions of the covariance operator and fix
    # the sign so the entry of largest magnitude is positive.
    funcs = (vecs / sqrt_w[:, None]).T
    peaks = funcs[np.arange(K), np.argmax(np.abs(funcs), axis=1)]
    funcs = np.where(peaks[:, None] < 0, -funcs, funcs)

    basis = FpcBasis(sample.grid, mean, funcs, lam)
    scores = centered @ (funcs * w).T
    return basis, scores


def _leading(decomposition: tuple, k: int) -> tuple:
    """The first ``k`` components of an ``fpc_decompose`` result."""
    basis, scores = decomposition
    funcs, lam = basis.eigenfunctions[:k], basis.eigenvalues[:k]
    return replace(basis, eigenfunctions=funcs, eigenvalues=lam), scores[:, :k]


def project_scores(basis: FpcBasis, sample: FunctionalSample) -> np.ndarray:
    """Project curves onto a fitted basis after removing its stored mean."""
    if sample.grid is not basis.grid and not sample.grid.close_to(basis.grid):
        raise ValueError("sample grid does not match the basis grid")
    centered = sample.values - basis.mean
    return centered @ (basis.eigenfunctions * basis.grid.weights).T


def reconstruct(basis: FpcBasis, scores: np.ndarray) -> FunctionalSample:
    """Rebuild curves from scores: mean plus the score-weighted basis."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != basis.n_components:
        raise ValueError("scores must have one column per basis component")
    values = basis.mean + scores @ basis.eigenfunctions
    return FunctionalSample(values, basis.grid)
