"""Slow but independent references used to cross-check the fast paths."""

from itertools import combinations

import numpy as np
import scipy.linalg
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


def _fpca(sample, K, eigh):
    """The steps of ``fpc_decompose`` with ``eigh`` for its eigensolver:
    centring, the weighted covariance ``sym``, ``eigh(sym)``, the zero
    cutoff and the sign rule."""
    mean = sample.values.mean(axis=0)
    centered = sample.values - mean
    w = sample.grid.weights
    sqrt_w = np.sqrt(w)
    cov = centered.T @ centered / len(centered)
    eigvals, eigvecs = eigh(sqrt_w[:, None] * cov * sqrt_w[None, :])
    order = np.argsort(eigvals)[::-1][:K]
    lam, vecs = eigvals[order], eigvecs[:, order]
    lam = np.where(lam < (_EIGVAL_RTOL * lam[0] if lam[0] > 0.0 else np.inf), 0.0, lam)
    funcs = (vecs / sqrt_w[:, None]).T
    peaks = funcs[np.arange(K), np.argmax(np.abs(funcs), axis=1)]
    funcs = np.where(peaks[:, None] < 0, -funcs, funcs)
    return FpcBasis(sample.grid, mean, funcs, lam), centered @ (funcs * w).T


def full_fpca(sample, K):
    """``fpc_decompose`` from the full eigendecomposition of the weighted
    covariance (``np.linalg.eigh``), with the same zero cutoff and sign rule."""
    return _fpca(sample, K, np.linalg.eigh)


def evr_fpca(sample, K):
    """``fpc_decompose`` through ``scipy.linalg.eigh``'s ``dsyevr`` driver on
    the ``K`` leading eigenpairs, which it must match bit for bit."""
    p = sample.grid.size
    return _fpca(
        sample, K, lambda sym: scipy.linalg.eigh(sym, subset_by_index=[p - K, p - 1], driver="evr")
    )


def masked_step(v, dv):
    """Ratio test by masked division: per row, the least ``-v / dv`` over the
    entries with ``dv < 0``, and +inf where there is none."""
    ratio = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0)
    return ratio.min(axis=1)


def masked_box_step(a, s, da):
    """``min(masked_step(a, da), masked_step(s, -da))`` by masked division."""
    ratio = np.divide(-a, da, out=np.full_like(a, np.inf), where=da < 0)
    np.divide(s, da, out=ratio, where=da > 0)
    return ratio.min(axis=1)


def cox_de_boor(x, knots, order):
    """The ``len(knots) - order`` B-splines of ``order`` on ``knots`` at the
    points ``x``, shape (len(x), len(knots) - order), by the Cox-de Boor
    recursion; the last nonempty knot interval is closed on the right."""
    x, t = np.asarray(x, dtype=float), np.asarray(knots, dtype=float)
    B = ((t[:-1] <= x[:, None]) & (x[:, None] < t[1:])).astype(float)
    last = np.flatnonzero(t[:-1] < t[1:])[-1]
    B[x == t[last + 1], last] = 1.0
    for k in range(1, order):
        nxt = np.zeros((len(x), B.shape[1] - 1))
        for i in range(nxt.shape[1]):
            if t[i + k] > t[i]:
                nxt[:, i] += (x - t[i]) / (t[i + k] - t[i]) * B[:, i]
            if t[i + k + 1] > t[i + 1]:
                nxt[:, i] += (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * B[:, i + 1]
        B = nxt
    return B


def bspline_ls_reference(Y, X, X_new, n_basis=20, order=4):
    """``predict(fit_bspline_ls(Y, X, n_basis, order), X_new).values`` from
    scratch: response coordinates by weighted ``lstsq`` of the curves on a
    clamped uniform basis, predictor blocks as quadrature inner products with
    it, and a plain ``lstsq`` fit of the coordinates on those blocks."""
    def basis(grid):
        a, b = grid.points[0], grid.points[-1]
        inner = np.linspace(a, b, n_basis - order + 2)
        return cox_de_boor(grid.points, np.r_[[a] * (order - 1), inner, [b] * (order - 1)], order)

    def design(samples):
        blocks = [s.values @ (basis(s.grid) * s.grid.weights[:, None]) for s in samples]
        return np.column_stack([np.ones(len(samples[0].values))] + blocks)

    B = basis(Y.grid)
    root_w = np.sqrt(Y.grid.weights)
    coords = np.linalg.lstsq(B * root_w[:, None], (Y.values * root_w).T, rcond=None)[0].T
    theta = np.linalg.lstsq(design(X), coords, rcond=None)[0]
    return design(X_new) @ theta @ B.T
