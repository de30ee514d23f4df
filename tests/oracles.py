"""Slow but independent references used to cross-check the fast paths."""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from fflqr.fpca import _EIGVAL_RTOL, FpcBasis
from fflqr.qreg import check_loss


def objective_value(X, y, beta, tau):
    return float(np.sum(check_loss(y - X @ beta, tau)))


def brute_force_qr(X, y, tau):
    """Global check-loss minimum by enumerating exact-fit candidates.

    Some optimal solution always interpolates q observations, so trying
    every nonsingular q-row subset finds the optimum.  Only viable for
    very small q.
    """
    n, q = X.shape
    best = np.inf
    best_beta = None
    for rows in combinations(range(n), q):
        sub = X[list(rows)]
        if np.linalg.matrix_rank(sub) < q:
            continue
        beta = np.linalg.solve(sub, y[list(rows)])
        val = objective_value(X, y, beta, tau)
        if val < best:
            best = val
            best_beta = beta
    return best, best_beta


def linprog_qr(X, y, tau):
    """Check-loss minimum via the primal linear program (HiGHS)."""
    n, q = X.shape
    c = np.concatenate([np.zeros(q), tau * np.ones(n), (1.0 - tau) * np.ones(n)])
    A_eq = np.hstack([X, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * q + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun), res.x[:q]


def mspe_naive(true_values, pred_values, points):
    """Mean squared L2 distance by explicit per-curve trapezoid sums."""
    total = 0.0
    for yt, yp in zip(true_values, pred_values):
        diff2 = (yt - yp) ** 2
        acc = 0.0
        for j in range(len(points) - 1):
            h = points[j + 1] - points[j]
            acc += 0.5 * h * (diff2[j] + diff2[j + 1])
        total += acc
    return total / len(true_values)


def full_fpca(sample, K):
    """``fpc_decompose`` from the full eigendecomposition of the weighted
    covariance (``np.linalg.eigh``), with the same zero cutoff and sign rule."""
    values, w = sample.values, sample.grid.weights
    mean = values.mean(axis=0)
    centered = values - mean
    sqrt_w = np.sqrt(w)
    cov = centered.T @ centered / len(values)
    eigvals, eigvecs = np.linalg.eigh(sqrt_w[:, None] * cov * sqrt_w[None, :])
    order = np.argsort(eigvals)[::-1][:K]
    lam, vecs = eigvals[order], eigvecs[:, order]
    lam = np.where(lam < (_EIGVAL_RTOL * lam[0] if lam[0] > 0.0 else np.inf), 0.0, lam)
    funcs = (vecs / sqrt_w[:, None]).T
    peaks = funcs[np.arange(K), np.argmax(np.abs(funcs), axis=1)]
    funcs = np.where(peaks[:, None] < 0, -funcs, funcs)
    return FpcBasis(sample.grid, mean, funcs, lam), centered @ (funcs * w).T
