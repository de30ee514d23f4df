"""Function-on-function linear quantile regression and mean-regression baselines.

The quantile model represents response and predictors by their leading
principal component scores, regresses response scores on predictor scores
under the check loss, and maps fitted scores back to curves. Two least
squares baselines share the fitted-model type: one on the same score
representation, one on the scores of a fixed B-spline basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np
import scipy.linalg

from .bspline import bspline_design
from .errors import DataError, NumericalError, _warn_rank
from .fdata import FunctionalSample, Grid
from .fpca import FpcBasis, fpc_decompose, project_scores, reconstruct
from .qreg import _column_failure, _fit_stack, qr_objective

__all__ = [
    "FflqrFit",
    "CoefficientSurface",
    "fit_fflqr",
    "fit_fpc_ls",
    "fit_bspline_ls",
    "predict",
    "coefficient_surface",
    "intercept_function",
    "score_objective",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class FflqrFit:
    """A fitted score-space regression of one functional response.

    Parameters
    ----------
    tau : float
        Quantile level; 0.5 for the least squares variant, where it only
        labels the central tendency being fit.
    response_basis : FpcBasis
        K_Y leading components of the response sample.
    predictor_bases : tuple of FpcBasis
        One K_X-component basis per kept predictor, K_X the same for all.
    coefs : ndarray, shape (1 + sum K_X, K_Y)
        Score regression coefficients; row 0 is the intercept, then one
        block of K_X rows per predictor in design order.
    predictor_indices : tuple of int
        Original 1-based predictor labels, in design order.
    method : str
        "fflqr" for check-loss fits, "fpc-ls" for the least squares variant
        on principal components, "bspline-ls" for least squares on fixed
        B-spline bases (zero mean, one basis function per component).
    """

    tau: float
    response_basis: FpcBasis
    predictor_bases: tuple
    coefs: np.ndarray
    predictor_indices: tuple
    method: str = "fflqr"

    def __post_init__(self):
        q = 1 + sum(b.n_components for b in self.predictor_bases)
        if np.shape(self.coefs) != (q, self.response_basis.n_components):
            raise ValueError("coefficient matrix shape does not match the bases")
        if len(self.predictor_bases) != len(self.predictor_indices):
            raise ValueError("one predictor index per predictor basis required")
        if len({b.n_components for b in self.predictor_bases}) > 1:
            raise ValueError("predictor bases must have equal numbers of components")


@dataclass(frozen=True)
class CoefficientSurface:
    """A bivariate coefficient surface evaluated on a grid pair.

    ``values[j, i]`` is the surface at ``(s_grid.points[j], t_grid.points[i])``.
    """

    values: np.ndarray
    s_grid: Grid
    t_grid: Grid
    predictor_index: int
    tau: float


def _validate_samples(Y: FunctionalSample, X) -> None:
    if len(X) < 1:
        raise ValueError("need at least one predictor sample")
    for m, x in enumerate(X, start=1):
        if x.n != Y.n:
            raise ValueError(
                f"predictor sample {m} has {x.n} curves but the response has {Y.n}"
            )


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a ``bool`` is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _resolve_indices(X, predictor_indices):
    """One distinct positive integer label per entry of ``X`` (1, 2, ... by default)."""
    if predictor_indices is None:
        return tuple(range(1, len(X) + 1))
    predictor_indices = tuple(predictor_indices)
    if not all(_is_int(i) and i >= 1 for i in predictor_indices):
        raise ValueError(f"predictor_indices must be positive integers, got {predictor_indices}")
    predictor_indices = tuple(int(i) for i in predictor_indices)
    if len(predictor_indices) != len(X):
        raise ValueError("predictor_indices length must match the predictor list")
    if len(set(predictor_indices)) != len(predictor_indices):
        raise ValueError("predictor_indices must be distinct")
    return predictor_indices


def _decompose(Y: FunctionalSample, X, k_y: int, k_xs, rows=slice(None)) -> tuple:
    """Validate the samples, then decompose their ``rows`` of Y at ``k_y`` and
    of each ``X[m]`` at ``k_xs[m]`` components: the response ``(basis, scores)``
    and a list of ``(basis, scores)``, one per predictor."""
    _validate_samples(Y, X)
    Y, *X = (FunctionalSample(s.values[rows], s.grid) for s in (Y, *X))
    return fpc_decompose(Y, k_y), [fpc_decompose(x, k) for x, k in zip(X, k_xs)]


def _bspline_scores(sample: FunctionalSample, n_basis: int, order: int, role: str) -> tuple:
    """The clamped B-spline basis on ``sample``'s grid, evaluated once, and
    the sample's scores on it: weighted least squares coordinates for the
    response, quadrature inner products for a predictor. The basis has zero
    mean and the basis functions as components; each eigenvalue is the
    variance (divisor n) of its component's scores, as in FPCA."""
    grid = sample.grid
    if n_basis > grid.size:
        raise ValueError(f"n_basis exceeds the number of {role} grid points")
    B = bspline_design(grid.points, n_basis, order, grid.points[0], grid.points[-1])
    basis = FpcBasis(grid, np.zeros(grid.size), B.T, np.zeros(n_basis))
    scores = (_basis_coordinates(sample, basis) if role == "response"
              else project_scores(basis, sample))
    return replace(basis, eigenvalues=scores.var(axis=0)), scores


def _bspline_decompose(Y: FunctionalSample, X, n_basis: int = 20, order: int = 4) -> tuple:
    """The B-spline twin of ``_decompose``: ``(basis, coordinates)`` of the
    response and one ``(basis, inner products)`` per predictor. The bases
    are fixed, so a row set's decomposition is its rows of this one."""
    if not 2 <= order <= n_basis:
        raise ValueError("need order >= 2 and n_basis >= order")
    _validate_samples(Y, X)
    return (_bspline_scores(Y, n_basis, order, "response"),
            [_bspline_scores(x, n_basis, order, "predictor") for x in X])


def _design(blocks) -> np.ndarray:
    """An intercept column in front of the per-predictor blocks."""
    blocks = list(blocks)
    return np.hstack([np.ones((blocks[0].shape[0], 1))] + blocks)


def _fit_for(method, Y, X, taus, k_y, k_x, predictor_indices=None, decs=None,
             rows=(slice(None),)) -> list:
    """Fit one of the three estimators by name to each row set of the
    training sample ``(Y, X)`` at each level of ``taus``; the only method
    dispatch.

    ``rows`` yields one row-index array per fit (a bootstrap resample, say);
    by default the whole sample is fit once. ``fits[i][j]`` fits row set i
    at ``taus[j]``, or is the ``NumericalError`` that stopped it. Every
    method regresses response scores on predictor scores, taken from
    ``decs`` when given: one ``_decompose`` or ``_bspline_decompose`` output
    per row set (selection hands over slices this way). Otherwise the FPC
    methods decompose each row set at ``(k_y, k_x)``, and ``bspline-ls``
    expands all curves once and takes each row set's rows of that.
    ``fflqr`` solves every fit, level and response score in one stacked
    call. Least squares fits ignore the level: each row set gets one fit,
    repeated across the levels, carrying 0.5.
    """
    if method not in ("fflqr", "fpc-ls", "bspline-ls"):
        raise ValueError(f"unknown method {method!r}")
    if decs is None and method == "bspline-ls":
        (basis, coords), preds = _bspline_decompose(Y, X)
        # Sliced as each row set is solved, so only one copy is alive at a time.
        decs = (((basis, coords[r]), [(b, z[r]) for b, z in preds]) for r in rows)
    elif decs is None:
        # One row set at a time: only its decomposition outlives it.
        decs = [_decompose(Y, X, k_y, [k_x] * len(X), r) for r in rows]
    indices = _resolve_indices(X, predictor_indices)
    if method != "fflqr":
        return [[FflqrFit(0.5, basis, tuple(b for b, _ in preds),
                          _ls_solve(_design(z for _, z in preds), xi), indices, method)]
                * len(taus) for (basis, xi), preds in decs]
    designs = np.stack([_design(z for _, z in preds) for _, preds in decs])
    xis = np.stack([xi for (_, xi), _ in decs])
    coefs, solved = _fit_stack(designs, xis, taus)
    return [[_column_failure(ok) or FflqrFit(float(tau), basis, tuple(b for b, _ in preds), c,
                                             indices, method)
             for tau, c, ok in zip(taus, sample_coefs, sample_solved)]
            for ((basis, _), preds), sample_coefs, sample_solved in zip(decs, coefs, solved)]


def _unwrap(fit):
    """The fit, or raise the ``NumericalError`` that stands in its place."""
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def fit_fflqr(
    Y: FunctionalSample,
    X,
    tau: float,
    k_y: int,
    k_x: int,
    predictor_indices=None,
) -> FflqrFit:
    """Fit the quantile regression of a functional response on functional predictors.

    Parameters
    ----------
    Y : FunctionalSample
        Response curves.
    X : list of FunctionalSample
        Predictor curve samples, each with the same number of curves as Y.
    tau : float
        Quantile level in (0, 1).
    k_y, k_x : int
        Number of principal components kept for the response and for every
        predictor.
    predictor_indices : sequence of int, optional
        Original 1-based labels of the predictors in X; defaults to 1..M.

    Returns
    -------
    FflqrFit
    """
    return _unwrap(_fit_for("fflqr", Y, X, [tau], k_y, k_x, predictor_indices)[0][0])


def fit_fpc_ls(
    Y: FunctionalSample,
    X,
    k_y: int,
    k_x: int,
    predictor_indices=None,
) -> FflqrFit:
    """Least squares counterpart of ``fit_fflqr`` on the same score design."""
    return _unwrap(_fit_for("fpc-ls", Y, X, [0.5], k_y, k_x, predictor_indices)[0][0])


def _ls_solve(design: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Least squares coefficients; for a rank-deficient design, the unique
    minimum-norm solution, with a ``RankDeficiencyWarning``."""
    coefs, _, rank, _ = np.linalg.lstsq(design, responses, rcond=None)
    if rank < design.shape[1]:
        _warn_rank(f"design has rank {rank} < {design.shape[1]}; minimum-norm solution used")
    return coefs


def _basis_coordinates(sample: FunctionalSample, basis: FpcBasis) -> np.ndarray:
    """The (n, K) weighted least squares coordinates of curves in a basis of
    zero mean."""
    B = basis.eigenfunctions.T
    Bw = B * basis.grid.weights[:, None]
    try:
        return scipy.linalg.solve(B.T @ Bw, Bw.T @ sample.values.T, assume_a="pos").T
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular B-spline Gram matrix: some of the n_basis={basis.n_components} basis "
            f"functions have no point of the {sample.grid.size}-point grid of their own "
            f"in their support"
        ) from exc


def fit_bspline_ls(
    Y: FunctionalSample,
    X,
    n_basis: int = 20,
    order: int = 4,
    predictor_indices=None,
) -> FflqrFit:
    """Function-on-function least squares through B-spline curve expansions.

    Response curves enter as weighted least squares coordinates in a clamped
    B-spline basis and predictor curves as their quadrature inner products
    with it. The fit is a score fit (``method="bspline-ls"``) on these fixed
    bases, so its coefficient surfaces live in the tensor product of the bases.
    """
    dec = _bspline_decompose(Y, X, n_basis, order)
    return _unwrap(_fit_for("bspline-ls", Y, X, [0.5], None, None, predictor_indices, [dec])[0][0])


def _check_predictors(X, count: int) -> None:
    """New predictor samples must be ``count`` samples of one curve count."""
    if len(X) != count:
        raise ValueError(f"model uses {count} predictors, got {len(X)}")
    for m, x in enumerate(X[1:], start=2):
        if x.n != X[0].n:
            raise ValueError(f"predictor sample {m} has {x.n} curves, sample 1 has {X[0].n}")


def _projected_design(fit: FflqrFit, X) -> np.ndarray:
    """Intercept-plus-scores design of curves projected on the fitted bases."""
    _check_predictors(X, len(fit.predictor_bases))
    return _design(project_scores(b, x) for b, x in zip(fit.predictor_bases, X))


def predict(fit: FflqrFit, X_new) -> FunctionalSample:
    """Predicted response curves for new predictor curves.

    Parameters
    ----------
    fit : FflqrFit
    X_new : list of FunctionalSample
        Same number, order and grids as the predictors used in fitting.
    """
    if not isinstance(fit, FflqrFit):
        raise TypeError(f"cannot predict from {type(fit).__name__}")
    return reconstruct(fit.response_basis, _projected_design(fit, X_new) @ fit.coefs)


def _block_rows(fit: FflqrFit, position: int) -> slice:
    start = 1 + sum(b.n_components for b in fit.predictor_bases[:position])
    return slice(start, start + fit.predictor_bases[position].n_components)


def coefficient_surface(fit: FflqrFit, predictor_index: int) -> CoefficientSurface:
    """Bivariate coefficient surface of one predictor.

    Parameters
    ----------
    fit : FflqrFit
    predictor_index : int
        One of ``fit.predictor_indices`` (original 1-based label).
    """
    if predictor_index not in fit.predictor_indices:
        raise ValueError(
            f"predictor {predictor_index} not in model {fit.predictor_indices}"
        )
    position = fit.predictor_indices.index(predictor_index)
    basis = fit.predictor_bases[position]
    block = fit.coefs[_block_rows(fit, position)]
    values = basis.eigenfunctions.T @ block @ fit.response_basis.eigenfunctions
    return CoefficientSurface(
        values, basis.grid, fit.response_basis.grid, predictor_index, fit.tau
    )


def intercept_function(fit: FflqrFit) -> np.ndarray:
    """Intercept curve such that predictions decompose as
    intercept plus the integrals of each raw predictor against its surface.
    """
    g = fit.coefs[0].copy()
    for position, basis in enumerate(fit.predictor_bases):
        mean_coords = (basis.eigenfunctions * basis.grid.weights) @ basis.mean
        g -= mean_coords @ fit.coefs[_block_rows(fit, position)]
    return fit.response_basis.mean + g @ fit.response_basis.eigenfunctions


def score_objective(fit: FflqrFit, Y: FunctionalSample, X) -> np.ndarray:
    """In-sample check-loss objective per response score coordinate."""
    xi = project_scores(fit.response_basis, Y)
    return qr_objective(_projected_design(fit, X), xi, fit.coefs, fit.tau)


def _grid_to_json(grid: Grid) -> dict:
    return {"points": grid.points.tolist(), "weights": grid.weights.tolist()}


def _grid_from_json(obj: dict) -> Grid:
    return Grid(np.array(obj["points"]), np.array(obj["weights"]))


def _basis_to_json(basis: FpcBasis) -> dict:
    return {
        "grid": _grid_to_json(basis.grid),
        "mean": basis.mean.tolist(),
        "eigenfunctions": basis.eigenfunctions.tolist(),
        "eigenvalues": basis.eigenvalues.tolist(),
        "rank_deficient": basis.rank_deficient,
    }


def _basis_from_json(obj: dict) -> FpcBasis:
    """The basis stored in ``obj``; ``ValueError`` unless its mean,
    eigenfunctions and eigenvalues are finite arrays of shapes ``(p,)``,
    ``(K, p)`` and ``(K,)`` on a grid of ``p`` points."""
    grid = _grid_from_json(obj["grid"])
    mean, funcs, lam = (
        np.array(obj[key], dtype=float) for key in ("mean", "eigenfunctions", "eigenvalues")
    )
    if (mean.shape, funcs.shape, lam.ndim) != ((grid.size,), (lam.size, grid.size), 1):
        raise ValueError("basis arrays must have shapes (p,), (K, p) and (K,)")
    if not all(np.isfinite(a).all() for a in (mean, funcs, lam)):
        raise ValueError("basis arrays must be finite")
    return FpcBasis(grid, mean, funcs, lam)


def save_model(fit, path) -> None:
    """Serialize a fitted model to JSON with full float precision."""
    if not isinstance(fit, FflqrFit):
        raise TypeError(f"cannot serialize {type(fit).__name__}")
    doc = {
        "kind": fit.method,
        "tau": fit.tau,
        "predictor_indices": list(fit.predictor_indices),
        "coefficients": fit.coefs.tolist(),
        "response_basis": _basis_to_json(fit.response_basis),
        "predictor_bases": [_basis_to_json(b) for b in fit.predictor_bases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Load a model written by ``save_model``; ``DataError`` if it is malformed."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind in ("fflqr", "fpc-ls", "bspline-ls"):
            # JSON holds no integer inside (0, 1), and a bool is no float
            if not (isinstance(doc["tau"], float) and 0.0 < doc["tau"] < 1.0):
                raise ValueError(f"tau must be a number inside (0, 1), got {doc['tau']!r}")
            bases = tuple(_basis_from_json(b) for b in doc["predictor_bases"])
            if not bases:
                raise ValueError("a score model needs at least one predictor basis")
            return FflqrFit(
                doc["tau"],
                _basis_from_json(doc["response_basis"]),
                bases,
                np.array(doc["coefficients"], dtype=float),
                _resolve_indices(bases, doc["predictor_indices"]),
                kind,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model {path} is malformed ({exc!r})") from exc
    raise DataError(f"model {path} has unrecognized kind {kind!r}")
