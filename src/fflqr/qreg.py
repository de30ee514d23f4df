"""Linear quantile regression via an interior-point method.

Minimizes the check loss ``sum_i rho_tau(y_i - x_i' b)`` by solving the
equivalent bounded-variable linear program with a primal-dual
predictor-corrector iteration (Frisch-Newton). The dual LP is

    max  y' a   s.t.  X' a = (1 - tau) X' 1,   0 <= a <= 1,

and the regression coefficients are recovered from the multipliers of the
equality constraints.

One core solves a stack of problems, each with its own design, response
and level. Normal matrices are formed and factored for the whole stack;
step lengths, convergence and failure are tracked per problem by masks,
and problems leave the stack as they finish. A normal matrix the batched
factorization rejects is retried alone with jitter. Every operation acts
on one problem at a time, so a problem's coefficients do not depend on the
stack it is solved in. ``qr_fit_multi`` is the public single-design entry;
fits and bands go through the stacked ``_fit_stack``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, RankDeficiencyWarning

__all__ = [
    "QrProblem",
    "check_loss",
    "qr_fit",
    "qr_fit_multi",
    "qr_objective",
]

_MAX_ITER = 200
_GAP_ABS = 1e-10
_GAP_REL = 1e-9
_STEP_FRAC = 0.9995


def check_loss(u, tau: float):
    """Check loss ``rho_tau(u) = u * (tau - 1{u < 0})``, elementwise."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def _validate(design, responses, tau: float, ndim: int) -> tuple:
    """Float arrays of a design and its response vector (``ndim=1``) or
    response columns (``ndim=2``), checked for shape, tau and finiteness."""
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    n, q = design.shape
    if responses.ndim != ndim or responses.shape[0] != n:
        shape = "(n,)" if ndim == 1 else "(n, K)"
        raise ValueError(f"responses must be {shape} with n matching the design rows")
    _check_values(design, responses, tau)
    return design, responses


def _check_values(designs, responses, taus) -> None:
    """Raise ``ValueError`` unless the designs, shaped (..., n, q), have
    n >= q, every level lies in (0, 1) and all values are finite."""
    n, q = designs.shape[-2:]
    if n < q:
        raise ValueError(f"need at least as many rows as columns ({n} < {q})")
    taus = np.asarray(taus)
    if not np.all((0.0 < taus) & (taus < 1.0)):
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not (np.all(np.isfinite(designs)) and np.all(np.isfinite(responses))):
        raise ValueError("design and response must be finite")


@dataclass(frozen=True)
class QrProblem:
    """A single quantile regression instance.

    Parameters
    ----------
    design : ndarray, shape (n, q)
        Design matrix; include a column of ones for an intercept.
    response : ndarray, shape (n,)
        Observed responses.
    tau : float
        Quantile level in (0, 1).
    """

    design: np.ndarray
    response: np.ndarray
    tau: float

    def __post_init__(self):
        design, response = _validate(self.design, self.response, self.tau, ndim=1)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of each matrix in a stack with the matching vector."""
    return (A @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each pair of matching rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per row, the largest alpha keeping ``v + alpha * dv`` nonnegative."""
    ratio = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0)
    return ratio.min(axis=1)


def _cholesky(M: np.ndarray) -> tuple:
    """Lower Cholesky factors of a stack of normal matrices, and the mask of
    the matrices factored. When the batched factorization fails, each matrix
    is retried alone, and only the failing ones get growing diagonal jitter."""
    try:
        return np.linalg.cholesky(M), np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.empty_like(M)
    factored = np.zeros(len(M), dtype=bool)
    for b, Mb in enumerate(M):
        jitter = 0.0
        scale = np.trace(Mb) / len(Mb)
        for _ in range(4):
            try:
                L[b] = np.linalg.cholesky(Mb + jitter * np.eye(len(Mb)))
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-12 * max(scale, 1.0))
            else:
                factored[b] = True
                break
    return L, factored


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L' x = rhs`` for each factor in the stack."""
    return np.linalg.solve(L.swapaxes(1, 2), np.linalg.solve(L, rhs[..., None]))[..., 0]


def _frisch_newton(X: np.ndarray, y: np.ndarray, tau: np.ndarray) -> tuple:
    """Interior-point solve of a stack of quantile regressions.

    ``X`` is (B, n, q) with full-rank designs, ``y`` is (B, n) and ``tau``
    is (B,). Returns the (B, q) coefficients and the mask of the problems
    solved. Every operation acts on each problem alone, so a problem gets
    the same coefficients in any stack; solved and failed problems leave
    the stack as they finish.
    """
    # Contiguous rows keep every reduction in one summation order.
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    B, n, q = X.shape
    coefs = np.zeros((B, q))
    solved = np.zeros(B, dtype=bool)
    idx = np.arange(B)
    tau = np.asarray(tau, dtype=float)[:, None]
    a = np.repeat(1.0 - tau, n, axis=1)
    s = 1.0 - a

    Q, R = np.linalg.qr(X)
    nu = np.linalg.solve(R, _mv(Q.swapaxes(1, 2), -y)[..., None])[..., 0]
    zeta = -y - _mv(X, nu)
    h = np.maximum(1e-4, 1e-4 * np.mean(np.abs(zeta), axis=1))[:, None]
    z = np.maximum(zeta, 0.0) + h
    w = np.maximum(-zeta, 0.0) + h

    for _ in range(_MAX_ITER):
        # zeta = c - X nu with c = -y, so -zeta are the residuals y - X b.
        zeta = -y - _mv(X, nu)
        gap = _dot(a, z) + _dot(s, w)
        objective = np.sum(-zeta * (tau - (-zeta < 0)), axis=1)
        done = (gap < _GAP_ABS) | (gap < _GAP_REL * (1.0 + np.abs(objective)))
        if done.any():
            coefs[idx[done]] = -nu[done]
            solved[idx[done]] = True
            keep = ~done
            X, y, tau, a, s, z, w, nu, zeta, gap, idx = (
                v[keep] for v in (X, y, tau, a, s, z, w, nu, zeta, gap, idx)
            )
            if idx.size == 0:
                break

        d = 1.0 / (z / a + w / s)
        L, keep = _cholesky(X.swapaxes(1, 2) @ (X * d[..., None]))
        if not keep.all():
            X, y, tau, a, s, z, w, nu, zeta, gap, idx, d, L = (
                v[keep] for v in (X, y, tau, a, s, z, w, nu, zeta, gap, idx, d, L)
            )
        mu = (gap / (2.0 * n))[:, None]

        # Affine (predictor) direction: pure Newton toward complementarity 0.
        dnu = _cho_solve(L, _mv(X.swapaxes(1, 2), d * zeta))
        da = d * (_mv(X, dnu) - zeta)
        dz = -z * (1.0 + da / a)
        dw = -w * (1.0 - da / s)

        alpha_p = np.minimum(1.0, np.minimum(_step(a, da), _step(s, -da)))[:, None]
        alpha_d = np.minimum(1.0, np.minimum(_step(z, dz), _step(w, dw)))[:, None]
        mu_aff = (
            _dot(a + alpha_p * da, z + alpha_d * dz)
            + _dot(s - alpha_p * da, w + alpha_d * dw)
        )[:, None] / (2.0 * n)
        sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8)

        # Combined corrector step with the same factorization.
        t1 = sigma * mu - da * dz - a * z
        t2 = sigma * mu + da * dw - s * w
        r = d * (t1 / a - t2 / s)
        dnu = _cho_solve(L, -_mv(X.swapaxes(1, 2), r))
        da = d * _mv(X, dnu) + r
        dz = (t1 - z * da) / a
        dw = (t2 + w * da) / s

        alpha_p = np.minimum(1.0, _STEP_FRAC * np.minimum(_step(a, da), _step(s, -da)))
        alpha_d = np.minimum(1.0, _STEP_FRAC * np.minimum(_step(z, dz), _step(w, dw)))
        a = a + alpha_p[:, None] * da
        s = s - alpha_p[:, None] * da
        nu = nu + alpha_d[:, None] * dnu
        z = z + alpha_d[:, None] * dz
        w = w + alpha_d[:, None] * dw

    return coefs, solved


def _column_rank(X: np.ndarray) -> np.ndarray:
    """Indices of an independent column subset found by pivoted QR.

    Emits a ``RankDeficiencyWarning`` when some columns are dependent.
    """
    n, q = X.shape
    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = 0
    if diag.size > 0 and diag[0] > 0.0:
        rank = int(np.sum(diag > diag[0] * max(n, q) * np.finfo(float).eps))
    if rank < q:
        warnings.warn(
            f"design has rank {rank} < {q}; dependent columns dropped",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return np.sort(piv[:rank])


def qr_fit(problem: QrProblem) -> np.ndarray:
    """Coefficients minimizing the check loss for one response vector.

    Returns
    -------
    ndarray, shape (q,)
        Minimizer of ``sum_i rho_tau(y_i - x_i' b)``; see ``qr_fit_multi``.
    """
    return qr_fit_multi(problem.design, problem.response[:, None], problem.tau)[:, 0]


def _fit_stack(designs: np.ndarray, responses: np.ndarray, taus) -> tuple:
    """Fit every response column of every design at every level in one stack.

    ``designs`` is (G, n, q), ``responses`` is (G, n, K) and ``taus`` has T
    levels. Returns the (G, T, q, K) coefficients and the (G, T, K) mask of
    the problems solved; ``ValueError`` for n < q, a level outside (0, 1)
    or a value that is not finite. Each design's dependent columns are
    found once and get zero coefficients; designs that keep the same
    columns share one call of the interior-point core.
    """
    _check_values(designs, responses, taus)
    G, n, q = designs.shape
    K = responses.shape[2]
    taus = np.asarray(taus, dtype=float)
    T = taus.size
    coefs = np.zeros((G, T, q, K))
    solved = np.ones((G, T, K), dtype=bool)
    groups = {}
    for g, design in enumerate(designs):
        groups.setdefault(tuple(_column_rank(design)), []).append(g)
    for keep, members in groups.items():
        if not keep:
            continue
        m = len(members)
        # Problems in (design, level, response column) order.
        X = np.repeat(designs[members][:, :, keep], T * K, axis=0)
        y = np.tile(responses[members].swapaxes(1, 2), (1, T, 1)).reshape(-1, n)
        b, ok = _frisch_newton(X, y, np.repeat(np.tile(taus, m), K))
        b = b.reshape(m, T, K, -1).swapaxes(2, 3)
        coefs[np.ix_(members, range(T), keep, range(K))] = b
        solved[members] = ok.reshape(m, T, K)
    return coefs, solved


def _column_failure(solved: np.ndarray):
    """The ``NumericalError`` naming the first response column whose problem
    was not solved, or None when every column was."""
    failed = np.flatnonzero(~solved)
    if failed.size == 0:
        return None
    return NumericalError(
        f"response column {failed[0]}: interior point did not converge in "
        f"{_MAX_ITER} iterations or could not factor its normal equations"
    )


def qr_fit_multi(design: np.ndarray, responses: np.ndarray, tau: float) -> np.ndarray:
    """Fit one quantile regression per response column on a shared design.

    Parameters
    ----------
    design : ndarray, shape (n, q)
        Include a column of ones for an intercept.
    responses : ndarray, shape (n, K)
    tau : float
        Quantile level in (0, 1).

    Returns
    -------
    ndarray, shape (q, K)
        Column k minimizes ``sum_i rho_tau(y_ik - x_i' b)``. With a
        rank-deficient design, dependent columns get zero coefficients and a
        ``RankDeficiencyWarning`` is emitted. A column whose problem is not
        solved raises ``NumericalError`` naming it.
    """
    design, responses = _validate(design, responses, tau, ndim=2)
    coefs, solved = _fit_stack(design[None], responses[None], [tau])
    failure = _column_failure(solved[0, 0])
    if failure is not None:
        raise failure
    return coefs[0, 0]


def qr_objective(
    design: np.ndarray, responses: np.ndarray, coefs: np.ndarray, tau: float
) -> np.ndarray:
    """Check-loss objective per response column at the (q, K) coefficients."""
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if responses.ndim == 1:
        responses = responses[:, None]
    if design.shape[0] != responses.shape[0]:
        raise ValueError("design and responses must have matching rows")
    if np.shape(coefs) != (design.shape[1], responses.shape[1]):
        raise ValueError("coefficient matrix shape does not match the problem")
    return check_loss(responses - design @ coefs, tau).sum(axis=0)
