"""Linear quantile regression via an interior-point method.

Minimizes the check loss ``sum_i rho_tau(y_i - x_i' b)`` by solving the
equivalent bounded-variable linear program with a primal-dual
predictor-corrector iteration (Frisch-Newton). The dual LP is

    max  y' a   s.t.  X' a = (1 - tau) X' 1,   0 <= a <= 1,

and the regression coefficients are recovered from the multipliers of the
equality constraints.
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
    if n < q:
        raise ValueError(f"need at least as many rows as columns ({n} < {q})")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(responses))):
        raise ValueError("design and response must be finite")
    return design, responses


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


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha keeping ``v + alpha * dv`` nonnegative."""
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _solve_normal(X: np.ndarray, d: np.ndarray, rhs: np.ndarray) -> tuple:
    """Factor ``X' diag(d) X`` and solve against ``rhs``, with jitter retries."""
    M = (X * d[:, None]).T @ X
    jitter = 0.0
    scale = np.trace(M) / M.shape[0]
    for _ in range(4):
        try:
            factor = scipy.linalg.cho_factor(
                M + jitter * np.eye(M.shape[0]), lower=True
            )
            return factor, scipy.linalg.cho_solve(factor, rhs)
        except scipy.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-12 * max(scale, 1.0))
    raise NumericalError("normal equations factorization failed")


def _frisch_newton(X: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Interior-point solve of one quantile regression on a full-rank design."""
    n, q = X.shape
    c = -y
    a = np.full(n, 1.0 - tau)
    s = 1.0 - a

    nu = np.linalg.lstsq(X, -y, rcond=None)[0]
    zeta = c - X @ nu
    h = max(1e-4, 1e-4 * float(np.mean(np.abs(zeta))))
    z = np.maximum(zeta, 0.0) + h
    w = np.maximum(-zeta, 0.0) + h

    for _ in range(_MAX_ITER):
        gap = float(a @ z + s @ w)
        objective = float(np.sum(check_loss(y - X @ (-nu), tau)))
        if gap < _GAP_ABS or gap < _GAP_REL * (1.0 + abs(objective)):
            return -nu

        mu = gap / (2.0 * n)
        d = 1.0 / (z / a + w / s)
        zeta = c - X @ nu

        # Affine (predictor) direction: pure Newton toward complementarity 0.
        factor, dnu = _solve_normal(X, d, X.T @ (d * zeta))
        da = d * (X @ dnu - zeta)
        dz = -z * (1.0 + da / a)
        dw = -w * (1.0 - da / s)

        alpha_p = min(1.0, _max_step(a, da), _max_step(s, -da))
        alpha_d = min(1.0, _max_step(z, dz), _max_step(w, dw))
        mu_aff = (
            (a + alpha_p * da) @ (z + alpha_d * dz)
            + (s - alpha_p * da) @ (w + alpha_d * dw)
        ) / (2.0 * n)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        # Combined corrector step with the same factorization.
        t1 = sigma * mu - da * dz - a * z
        t2 = sigma * mu + da * dw - s * w
        r = d * (t1 / a - t2 / s)
        dnu = scipy.linalg.cho_solve(factor, -X.T @ r)
        da = d * (X @ dnu) + r
        dz = (t1 - z * da) / a
        dw = (t2 + w * da) / s

        alpha_p = min(1.0, _STEP_FRAC * min(_max_step(a, da), _max_step(s, -da)))
        alpha_d = min(
            1.0, _STEP_FRAC * min(_max_step(z, dz), _max_step(w, dw))
        )
        a = a + alpha_p * da
        s = s - alpha_p * da
        nu = nu + alpha_d * dnu
        z = z + alpha_d * dz
        w = w + alpha_d * dw

    raise NumericalError(
        f"interior point did not converge in {_MAX_ITER} iterations "
        f"(duality gap {gap:.3e}, objective {objective:.6g})"
    )


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
        ``RankDeficiencyWarning`` is emitted.
    """
    design, responses = _validate(design, responses, tau, ndim=2)
    keep = _column_rank(design)
    coefs = np.zeros((design.shape[1], responses.shape[1]))
    if keep.size > 0:
        X = design[:, keep]
        for k in range(responses.shape[1]):
            try:
                coefs[keep, k] = _frisch_newton(X, responses[:, k], tau)
            except NumericalError as exc:
                raise NumericalError(f"response column {k}: {exc}") from exc
    return coefs


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
