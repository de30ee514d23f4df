"""Linear quantile regression via an interior-point method.

Minimizes the check loss ``sum_i rho_tau(y_i - x_i' b)`` by solving the
equivalent bounded-variable linear program with a primal-dual
predictor-corrector iteration (Frisch-Newton). The dual LP is

    max  y' a   s.t.  X' a = (1 - tau) X' 1,   0 <= a <= 1,

and the regression coefficients are recovered from the multipliers of the
equality constraints. Each iteration factors every problem's normal matrix
``X' D X`` by Cholesky and inverts the factor once; the predictor and the
corrector direction each cost two matrix-vector products with the inverse.

One core solves a stack of problems, each with its own design, response
and level. Designs of one width form a group owning a block of rows of the
per-problem state; only design products and normal equations run per group.
Convergence and failure are tracked per problem by masks, and problems
leave as they finish; a matrix the batched Cholesky rejects is retried
alone with jitter. Every operation acts on one problem at a time, so a
problem's coefficients do not depend on its stack. ``qr_fit_multi`` is the
public single-design entry; fits, bands and selection solve designs of any
widths through ``_fit_stack``, which packs designs, in group order, into
core calls of at most ``_STACK_BYTES`` of stacked designs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, _warn_rank

__all__ = [
    "QrProblem",
    "check_loss",
    "qr_fit",
    "qr_fit_multi",
    "qr_objective",
]

_MAX_ITER = 200
_GAP_REL = 1e-9
_STEP_FRAC = 0.9995
# Stacked design bytes per core call, about one L2 cache. The core sweeps
# its stack several times per iteration: five n=2000 designs (3.8 MiB)
# solved 10-15% slower in one call than in five.
_STACK_BYTES = 2 << 20


def check_loss(u, tau: float):
    """Check loss ``rho_tau(u) = u * (tau - 1{u < 0})``, elementwise."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def _check_values(design, responses, taus, ndim: int = 2) -> None:
    """Raise ``ValueError`` unless ``design`` is a 2-D (n, q) matrix with
    n >= q, ``responses`` is (n,) (``ndim=1``) or (n, K) (``ndim=2``), every
    level lies in (0, 1) and all values are finite."""
    if design.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    n, q = design.shape
    if responses.ndim != ndim or responses.shape[0] != n:
        shape = "(n,)" if ndim == 1 else "(n, K)"
        raise ValueError(f"responses must be {shape} with n matching the design rows")
    if n < q:
        raise ValueError(f"need at least as many rows as columns ({n} < {q})")
    taus = np.asarray(taus)
    if not np.all((0.0 < taus) & (taus < 1.0)):
        raise ValueError("tau must lie strictly inside (0, 1)")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(responses))):
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
        Quantile level in (0, 1), converted with ``float`` (``"0.5"`` is 0.5).
    """

    design: np.ndarray
    response: np.ndarray
    tau: float

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        response = np.asarray(self.response, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        _check_values(design, response, tau, ndim=1)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "tau", float(tau))


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of each matrix in a stack with the matching vector."""
    return (A @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each pair of matching rows."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _over(v: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """``v / rate`` where ``rate > 0``; +inf, or NaN for a zero ``v`` or a NaN
    ``rate``, elsewhere. Overwrites the temporary ``rate``, which must not
    hold -0.0 (that would give -inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(v, np.maximum(rate, 0.0, out=rate), out=rate)


def _step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per row, the largest alpha keeping ``v + alpha * dv`` nonnegative, for
    positive ``v``: the least ``v / -dv`` over the entries with ``dv < 0``,
    +inf when there are none. Each quotient is the IEEE ``-v / dv``; ``fmin``
    skips the NaN of a zero ``v`` over a zero direction, or of a NaN
    direction. ``0.0 - dv`` is +0.0 for ``dv = ±0``."""
    return np.fmin.reduce(_over(v, 0.0 - dv), axis=1, initial=np.inf)


def _box_step(a: np.ndarray, s: np.ndarray, da: np.ndarray) -> np.ndarray:
    """``min(_step(a, da), _step(s, -da))`` in one reduction; ``da + 0.0`` is
    +0.0 for ``da = ±0``."""
    ratios = np.fmin(_over(a, 0.0 - da), _over(s, da + 0.0))
    return np.fmin.reduce(ratios, axis=1, initial=np.inf)


def _cholesky(M: np.ndarray) -> tuple:
    """Lower Cholesky factors of a stack of normal matrices, and the mask of
    the matrices factored. When the batched factorization fails, each matrix
    is retried alone, and only the failing ones get growing diagonal jitter;
    a matrix left unfactored gets the identity in its slot."""
    try:
        return np.linalg.cholesky(M), np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.array(np.broadcast_to(np.eye(M.shape[1]), M.shape))
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


def _cho_solve(Linv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L' x = rhs`` for each inverted Cholesky factor ``L^-1`` in
    the stack, as ``L^-T (L^-1 rhs)``: two matrix-vector products."""
    return _mv(Linv.swapaxes(1, 2), _mv(Linv, rhs))


def _slices(groups) -> list:
    """The consecutive row slices the groups own, in order."""
    stops = itertools.accumulate(len(grp[1]) for grp in groups)
    return [slice(stop - len(grp[1]), stop) for grp, stop in zip(groups, stops)]


def _keep(keep: np.ndarray, groups: list, rows) -> tuple:
    """Groups (index, per-problem arrays) and row arrays cut to ``keep``; empty groups go."""
    kept = [grp[:1] + tuple(v[keep[rs]] for v in grp[1:])
            for grp, rs in zip(groups, _slices(groups)) if keep[rs].any()]
    return kept, tuple(v[keep] for v in rows)


def _newton(groups: list, v: np.ndarray) -> tuple:
    """Per group, ``dnu`` solving ``L L' dnu = X' v`` on its rows, from the
    group's inverted factors ``L^-1``, and ``X dnu``."""
    dnus = [_cho_solve(Linv, _mv(X.swapaxes(1, 2), v[rs]))
            for (_, X, _, Linv), rs in zip(groups, _slices(groups))]
    return dnus, np.concatenate([_mv(grp[1], dnu) for grp, dnu in zip(groups, dnus)])


def _frisch_newton(Xs, y: np.ndarray, tau: np.ndarray) -> tuple:
    """Interior-point solve of a stack of quantile regressions.

    ``Xs`` lists G stacks of full-rank designs, the g-th (B_g, n, q_g), whose
    problems own consecutive rows of ``y`` (B, n) and ``tau`` (B,). Returns
    the G (B_g, q_g) coefficient arrays and the (B,) mask of the problems
    solved. Every operation acts on each problem alone, so a problem gets
    the same coefficients in any stack; problems leave as they finish, and
    so do problems whose normal matrix ``_cholesky`` cannot factor. Each
    iteration's group tuples hold the inverses of the factors, which both
    Newton directions share.
    """
    # Contiguous rows keep every reduction in one summation order.
    Xs = [np.ascontiguousarray(X, dtype=float) for X in Xs]
    y = np.ascontiguousarray(y, dtype=float)
    coefs = [np.zeros((len(X), X.shape[2])) for X in Xs]
    solved = np.zeros(len(y), dtype=bool)
    if len(y) == 0:
        return coefs, solved
    # Each problem is solved on y / 2^e, with 2^e > max|y| (1 for an all-zero
    # row), and its coefficients scaled back: the absolute terms below (the
    # gap test's 1 + |objective|, the offsets' 1e-4 floors) then do not
    # depend on the units of y, and a power-of-two rescaling is exact.
    scale = np.ldexp(1.0, np.frexp(np.abs(y).max(axis=1))[1])
    y = y / scale[:, None]
    n = y.shape[1]
    idx = np.arange(len(y))
    first = np.cumsum([0] + [len(X) for X in Xs])  # group g's first row of y
    tau = np.asarray(tau, dtype=float)[:, None]
    a = np.repeat(1.0 - tau, n, axis=1)
    s = 1.0 - a

    groups = [(g, X) for g, X in enumerate(Xs) if len(X)]
    for i, rs in enumerate(_slices(groups)):
        Q, R = np.linalg.qr(groups[i][1])
        groups[i] += (np.linalg.solve(R, _mv(Q.swapaxes(1, 2), -y[rs])[..., None])[..., 0],)
    # zeta = c - X nu with c = -y, so -zeta are the residuals y - X b.
    zeta = -y - np.concatenate([_mv(X, nu) for _, X, nu in groups])
    h = np.maximum(1e-4, 1e-4 * np.mean(np.abs(zeta), axis=1))[:, None]
    z = np.maximum(zeta, 0.0) + h
    w = np.maximum(-zeta, 0.0) + h

    for _ in range(_MAX_ITER):
        gap = _dot(a, z) + _dot(s, w)
        objective = np.sum(-zeta * (tau - (-zeta < 0)), axis=1)
        done = gap < _GAP_REL * (1.0 + np.abs(objective))
        if done.any():
            for (g, _, nu), rs in zip(groups, _slices(groups)):
                ids = idx[rs][done[rs]]
                coefs[g][ids - first[g]] = -nu[done[rs]] * scale[ids, None]
            solved[idx[done]] = True
            rows = (y, tau, a, s, z, w, zeta, gap, idx)
            groups, (y, tau, a, s, z, w, zeta, gap, idx) = _keep(~done, groups, rows)
            if idx.size == 0:
                break

        d = 1.0 / (z / a + w / s)
        factors = [_cholesky(X.swapaxes(1, 2) @ (X * d[rs, :, None]))
                   for (_, X, _), rs in zip(groups, _slices(groups))]
        groups = [grp + (np.linalg.inv(L),) for grp, (L, _) in zip(groups, factors)]
        keep = np.concatenate([ok for _, ok in factors])
        if not keep.all():
            rows = (y, tau, a, s, z, w, zeta, gap, idx, d)
            groups, (y, tau, a, s, z, w, zeta, gap, idx, d) = _keep(keep, groups, rows)
            if idx.size == 0:
                break
        mu = (gap / (2.0 * n))[:, None]

        # Affine (predictor) direction: pure Newton toward complementarity 0.
        dnus, Xdnu = _newton(groups, d * zeta)
        da = d * (Xdnu - zeta)
        dz = -z * (1.0 + da / a)
        dw = -w * (1.0 - da / s)

        alpha_p = np.minimum(1.0, _box_step(a, s, da))[:, None]
        alpha_d = np.minimum(1.0, np.minimum(_step(z, dz), _step(w, dw)))[:, None]
        mu_aff = (
            _dot(a + alpha_p * da, z + alpha_d * dz)
            + _dot(s - alpha_p * da, w + alpha_d * dw)
        )[:, None] / (2.0 * n)
        sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8)

        # Combined corrector step with the same inverted factors.
        t1 = sigma * mu - da * dz - a * z
        t2 = sigma * mu + da * dw - s * w
        r = d * (t1 / a - t2 / s)
        dnus, Xdnu = _newton(groups, -r)
        da = d * Xdnu + r
        dz = (t1 - z * da) / a
        dw = (t2 + w * da) / s

        alpha_p = np.minimum(1.0, _STEP_FRAC * _box_step(a, s, da))
        alpha_d = np.minimum(1.0, _STEP_FRAC * np.minimum(_step(z, dz), _step(w, dw)))
        a = a + alpha_p[:, None] * da
        s = s - alpha_p[:, None] * da
        z = z + alpha_d[:, None] * dz
        w = w + alpha_d[:, None] * dw
        groups = [(g, X, nu + alpha_d[rs, None] * dnu)
                  for (g, X, nu, _), rs, dnu in zip(groups, _slices(groups), dnus)]
        # The next iteration's residuals, at the new nu.
        zeta = -y - np.concatenate([_mv(X, nu) for _, X, nu in groups])

    return coefs, solved


def _column_rank(X: np.ndarray) -> np.ndarray:
    """Indices of an independent column subset found by pivoted QR.

    Emits a ``RankDeficiencyWarning`` when some columns are dependent.
    """
    n, q = X.shape
    R, piv = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = 0
    if diag.size > 0 and diag[0] > 0.0:
        rank = int(np.sum(diag > diag[0] * max(n, q) * np.finfo(float).eps))
    if rank < q:
        _warn_rank(f"design has rank {rank} < {q}; dependent columns dropped")
    return np.sort(piv[:rank])


def qr_fit(problem: QrProblem) -> np.ndarray:
    """Coefficients minimizing the check loss for one response vector.

    Returns
    -------
    ndarray, shape (q,)
        Minimizer of ``sum_i rho_tau(y_i - x_i' b)``; see ``qr_fit_multi``.
    """
    return qr_fit_multi(problem.design, problem.response[:, None], problem.tau)[:, 0]


def _packs(sizes) -> list:
    """Consecutive runs of indices whose sizes total at most ``_STACK_BYTES``;
    an index whose size alone exceeds it forms a run by itself."""
    packs, total = [], 0
    for i, size in enumerate(sizes):
        if not packs or total + size > _STACK_BYTES:
            packs.append([])
            total = 0
        packs[-1].append(i)
        total += size
    return packs


def _fit_stack(designs, responses, taus) -> tuple:
    """Fit every response column of every design at every level with the
    interior-point core.

    ``designs`` holds G (n, q_g) designs of any widths, ``responses`` their
    (n, K) response matrices and ``taus`` T levels. Returns the G (T, q_g, K)
    coefficients and the (G, T, K) mask of the problems solved; ValueError
    from ``_check_values`` for a bad shape, n < q_g, a level outside (0, 1)
    or a nonfinite value. Dependent columns get zero coefficients; designs
    keeping the same columns share a group of the core. One greedy pass
    over the designs in group order packs them into core calls: consecutive
    designs share a call while their stacked designs (one copy per level and
    column) total at most ``_STACK_BYTES``, a design above it runs alone, and
    its T * K problems are never separated. Each problem is solved alone, so
    the packing changes no bit.
    """
    taus = np.asarray(taus, dtype=float)
    for design, response in zip(designs, responses):
        _check_values(design, response, taus)
    n, K, T = responses[0].shape + (taus.size,)
    coefs = [np.zeros((T, design.shape[1], K)) for design in designs]
    solved = np.ones((len(designs), T, K), dtype=bool)
    groups = {}
    for g, design in enumerate(designs):
        groups.setdefault(tuple(_column_rank(design)), []).append(g)
    groups.pop((), None)  # a design of rank 0 keeps zero coefficients
    # Problems in (design, level, response column) order, designs by group,
    # packed into core calls by the bytes of their stacked designs.
    column = T * K * n * 8  # bytes of one design column, stacked
    queue = [(keep, g) for keep, members in groups.items() for g in members]
    for pack in _packs([column * len(keep) for keep, _ in queue]):
        order = [queue[i][1] for i in pack]
        part = [(keep, [queue[i][1] for i in run])
                for keep, run in itertools.groupby(pack, key=lambda i: queue[i][0])]
        Xs = [np.repeat(np.stack([designs[g][:, keep] for g in members]), T * K, axis=0)
              for keep, members in part]
        y = np.tile(np.stack([responses[g] for g in order]).swapaxes(1, 2), (1, T, 1))
        b, ok = _frisch_newton(Xs, y.reshape(-1, n), np.repeat(np.tile(taus, len(order)), K))
        solved[order] = ok.reshape(len(order), T, K)
        for (keep, members), bg in zip(part, b):
            bg = bg.reshape(len(members), T, K, len(keep)).swapaxes(2, 3)
            for g, c in zip(members, bg):
                coefs[g][:, list(keep)] = c
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
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    coefs, solved = _fit_stack([design], [responses], [tau])
    failure = _column_failure(solved[0, 0])
    if failure is not None:
        raise failure
    return coefs[0][0]


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
