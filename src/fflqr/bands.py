"""Prediction bands by bootstrap or paired quantile fits, and the
three evaluation metrics used in the simulation studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .fdata import FunctionalSample, Grid, write_sample_csv
from .model import _fit_for, _projected_design, _unwrap, predict

__all__ = [
    "PredictionBand",
    "MetricsReport",
    "mspe",
    "bootstrap_band",
    "direct_band",
    "cpd",
    "interval_score",
    "write_band_csv",
]

# Bytes of one chunk of a bootstrap band's (refits, curves, p) predictions:
# percentiles need every refit at each point, not all points at once.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class PredictionBand:
    """Pointwise lower/upper prediction bounds for a set of curves.

    Parameters
    ----------
    lower, upper : ndarray, shape (n, p)
        Band bounds; ``lower <= upper`` everywhere.
    alpha : float
        Nominal miscoverage; the band targets ``1 - alpha`` coverage.
    grid : Grid
        Evaluation grid of the bounds.
    crossing_rate : float
        Fraction of points whose raw bounds arrived crossed and were
        swapped (nonzero only for paired quantile fits).
    failed_refits : int
        Bootstrap refits that failed numerically and were left out of the
        bounds (zero for paired quantile fits).
    """

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    grid: Grid
    crossing_rate: float = 0.0
    failed_refits: int = 0

    def __post_init__(self):
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if self.lower.shape[1] != self.grid.size:
            raise ValueError("band columns must match the grid")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation metrics of one method on one replicate.

    ``cpd`` and ``interval_score`` are None when no band was requested.
    """

    mspe: float
    cpd: Optional[float]
    interval_score: Optional[float]
    method: str
    model: str
    scenario: str
    replicate: int
    seed: int


def mspe(Y_true: FunctionalSample, Y_pred: FunctionalSample) -> float:
    """Mean over curves of the squared quadrature L2 prediction error."""
    if Y_true.values.shape != Y_pred.values.shape:
        raise ValueError("true and predicted samples must have the same shape")
    if not Y_true.grid.close_to(Y_pred.grid):
        raise ValueError("true and predicted samples must share a grid")
    sq = (Y_true.values - Y_pred.values) ** 2
    return float(np.mean(sq @ Y_true.grid.weights))


def bootstrap_band(
    Y_train: FunctionalSample,
    X_train,
    X_test,
    tau: float,
    alpha: float,
    k_y: int,
    k_x: int,
    R: int = 100,
    seed: int = 0,
    method: str = "fflqr",
) -> PredictionBand:
    """Case-resampling bootstrap band around the test predictions.

    Each of the ``R`` replicates draws training rows with replacement,
    refits at the fixed configuration on those rows and predicts the test
    set; bounds are the pointwise ``alpha/2`` and ``1 - alpha/2`` quantiles
    over replicates (linear interpolation of order statistics). A score
    refit decomposes its rows once, at exactly ``(k_y, k_x)``, so it equals
    ``fit_fflqr`` on its resample bitwise; all check-loss problems are
    solved in one stacked call. B-spline bases are fixed, so all curves are
    expanded once and each refit takes its rows of that (a grid that makes
    their Gram matrix singular raises its ``NumericalError``), and the test
    curves are projected on them once per band.
    Refits that fail numerically are left out and counted on the band;
    fewer than ``R/2`` successes raise ``NumericalError``. The survivors'
    predictions, ``(refits, n_test, p)`` doubles (24 MB at R=100, 300 test
    curves and 100 grid points), are built from their scores and bases and
    reduced one chunk of test curves of at most ``_CHUNK_BYTES`` at a time
    (1 MiB: 52 curves at R=25), with ``predict``'s bits. Each chunk is sorted
    in place; each bound interpolates two of its order statistics by numpy's
    default linear rule (Hyndman & Fan 1996, type 7) in ``np.quantile``'s
    arithmetic and bits, with no second partition.

    The bounds are quantiles of re-estimated tau-quantile curves, so the band
    covers the spread of the estimated quantile curve, not new response
    curves: it is a confidence band for the curve, and covers observed
    responses only where estimation noise dominates. At nominal 0.90
    (tau=0.5, K=(3,3), R=100, seed 5) it covered 0.37 of the test responses
    on the default simulated data (n=200) and 0.84 at n=30, sigma=0.3.

    Parameters
    ----------
    seed : int or numpy.random.SeedSequence
        Seeds the ``R`` resamples. A ``SeedSequence`` is not advanced: the
        resamples come from the children a never-spawned copy of it gives,
        so the same object gives the same band on every call.
    method : str
        "fflqr" (default), "fpc-ls" or "bspline-ls"; the band wraps
        whichever estimator it is asked to resample.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    n = Y_train.n
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    # A fresh copy spawns the children, so the caller's sequence is not advanced.
    children = np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    ).spawn(R)
    # Drawn as they are fit, so no resample outlives its fit.
    rows = (np.random.default_rng(child).integers(0, n, size=n) for child in children)
    fits = [
        fit for (fit,) in _fit_for(method, Y_train, X_train, [tau], k_y, k_x, rows=rows)
        if not isinstance(fit, NumericalError)
    ]
    if len(fits) < R / 2:
        raise NumericalError(f"only {len(fits)} of {R} bootstrap refits succeeded")
    # B-spline refits share their fixed bases, which the fits keep alive, so
    # X_test is projected once for them; FPC refits have bases of their own.
    scores, key = [], None
    for fit in fits:
        bases = tuple(map(id, fit.predictor_bases))
        if bases != key:
            key, design = bases, _projected_design(fit, X_test)
        scores.append(design @ fit.coefs)
    scores = np.stack(scores)
    funcs = np.stack([fit.response_basis.eigenfunctions for fit in fits])
    means = np.stack([fit.response_basis.mean for fit in fits])
    (F, n_test, _), p = scores.shape, means.shape[1]
    bounds = np.empty((2, n_test, p))
    # np.quantile's linear rule: order statistics floor(v), floor(v) + 1 at
    # v = (F - 1) q, weight v - floor(v); from v = F - 1 on (a lone survivor)
    # both are index -1 and the weight v + 1, as numpy has it, keeping a -0.0.
    ranks = []
    for v in ((F - 1) * (alpha / 2.0), (F - 1) * (1.0 - alpha / 2.0)):
        below = int(v) if v < F - 1 else -1
        ranks.append((below, below + 1 if below >= 0 else -1, v - below))
    # Chunks of at least two curves (a lone last one joins the one before):
    # a one-row product takes BLAS's gemv path, whose bits can differ from gemm's.
    step = max(2, _CHUNK_BYTES // (F * p * 8))
    starts = range(0, max(n_test - 1, 1), step)
    for start, stop in zip(starts, [*starts[1:], n_test]):
        stack = scores[:, start:stop] @ funcs  # per refit, reconstruct's product and sum
        stack += means[:, None]
        if not np.isfinite(stack).all():
            raise ValueError("curve values must all be finite")
        stack.sort(axis=0)
        for bound, (below, above, g) in zip(bounds[:, start:stop], ranks):
            diff = stack[above] - stack[below]  # numpy's _lerp, from the nearer end
            if g >= 0.5:
                np.subtract(stack[above], diff * (1.0 - g), out=bound)
            else:
                np.add(stack[below], diff * g, out=bound)
    return PredictionBand(*bounds, alpha, Y_train.grid, failed_refits=R - len(fits))


def direct_band(
    Y_train: FunctionalSample,
    X_train,
    X_test,
    alpha: float,
    k_y: int,
    k_x: int,
) -> PredictionBand:
    """Band from two quantile fits at levels ``alpha/2`` and ``1 - alpha/2``.

    Both levels share one decomposition of the training curves and one
    stacked solve; the band is built by ``_paired_band``.

    It estimates the conditional ``alpha/2`` and ``1 - alpha/2`` quantile
    curves of the response, so it aims at new response curves, but each
    response score's quantile is fit separately and it undercovers: at
    nominal 0.90 (K=(3,3), seed 5) it covered 0.69 of the test responses on
    the default simulated data (n=200) and 0.42 at n=30, sigma=0.3.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    return _paired_band(Y_train, X_train, X_test, alpha, k_y, k_x)


def _paired_band(Y, X, X_test, alpha: float, k_y: int, k_x: int, indices=None,
                 decs=None) -> PredictionBand:
    """Band between the predictions of the quantile fits at ``alpha/2`` and
    ``1 - alpha/2``, both solved in one ``_fit_for`` call (on the
    decomposition ``decs`` when given, with predictor labels ``indices``).

    Pointwise crossings (lower fit above upper fit) are swapped and their
    frequency reported on the band.
    """
    (fits,) = _fit_for("fflqr", Y, X, [alpha / 2, 1 - alpha / 2], k_y, k_x, indices, decs)
    lower, upper = (predict(_unwrap(fit), X_test).values for fit in fits)
    rate = float(np.mean(lower > upper))
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    return PredictionBand(lower, upper, alpha, Y.grid, rate)


def _check_band_shapes(band: PredictionBand, Y_true: FunctionalSample) -> None:
    if band.lower.shape != Y_true.values.shape:
        raise ValueError("band and sample shapes differ")
    if not band.grid.close_to(Y_true.grid):
        raise ValueError("band and sample grids differ")


def cpd(band: PredictionBand, Y_true: FunctionalSample, alpha: float) -> float:
    """Absolute gap between nominal and empirical pointwise coverage.

    Coverage pools all (curve, grid point) pairs inside the band. The gap
    is unsigned, so under- and over-coverage of the same size read the same.
    """
    _check_band_shapes(band, Y_true)
    inside = (band.lower <= Y_true.values) & (Y_true.values <= band.upper)
    return float(abs((1.0 - alpha) - np.mean(inside)))


def interval_score(band: PredictionBand, Y_true: FunctionalSample, alpha: float) -> float:
    """Mean over curves of the L2 norm of the pointwise interval score.

    The pointwise score is band width plus ``2/alpha`` times the distance
    by which the true curve escapes the band.
    """
    _check_band_shapes(band, Y_true)
    y = Y_true.values
    pointwise = (
        (band.upper - band.lower)
        + (2.0 / alpha) * (band.lower - y) * (y < band.lower)
        + (2.0 / alpha) * (y - band.upper) * (y > band.upper)
    )
    norms = np.sqrt(pointwise**2 @ Y_true.grid.weights)
    return float(np.mean(norms))


def write_band_csv(band: PredictionBand, lower_path, upper_path) -> None:
    """Write the two bounds as wide-format curve CSVs."""
    write_sample_csv(FunctionalSample(band.lower, band.grid), lower_path)
    write_sample_csv(FunctionalSample(band.upper, band.grid), upper_path)
