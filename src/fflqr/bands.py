"""Prediction bands by bootstrap or paired quantile fits, and the
three evaluation metrics used in the simulation studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .fdata import FunctionalSample, Grid, write_sample_csv
from .model import _fit_for, _unwrap, predict

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

    Each of the ``R`` replicates resamples training rows with replacement,
    refits at the fixed configuration and predicts the test set; bounds are
    the pointwise ``alpha/2`` and ``1 - alpha/2`` quantiles over replicates
    (linear interpolation of order statistics). The check-loss problems of
    all refits are solved in one stacked call. Refits that fail numerically
    are left out and counted on the band; fewer than ``R/2`` successes
    raise ``NumericalError``.

    Parameters
    ----------
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

    def resamples():
        # One resample at a time: only its decomposition outlives it.
        for child in seed.spawn(R):
            rows = np.random.default_rng(child).integers(0, n, size=n)
            yield (
                FunctionalSample(Y_train.values[rows], Y_train.grid),
                [FunctionalSample(x.values[rows], x.grid) for x in X_train],
            )

    fits = [fit for (fit,) in _fit_for(method, resamples(), [tau], k_y, k_x)]
    preds = [
        predict(fit, X_test).values for fit in fits if not isinstance(fit, NumericalError)
    ]
    if len(preds) < R / 2:
        raise NumericalError(
            f"only {len(preds)} of {R} bootstrap refits succeeded"
        )
    stack = np.stack(preds)
    lower = np.quantile(stack, alpha / 2.0, axis=0, method="linear")
    upper = np.quantile(stack, 1.0 - alpha / 2.0, axis=0, method="linear")
    return PredictionBand(lower, upper, alpha, Y_train.grid, failed_refits=R - len(preds))


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
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    (fits,) = _fit_for("fflqr", [(Y_train, X_train)], [alpha / 2, 1 - alpha / 2], k_y, k_x)
    return _paired_band(fits, X_test, alpha, Y_train.grid)


def _paired_band(fits, X_test, alpha: float, grid: Grid) -> PredictionBand:
    """Band between the predictions of a lower and an upper quantile fit.

    Pointwise crossings (lower fit above upper fit) are swapped and their
    frequency reported on the band.
    """
    lower, upper = (predict(_unwrap(fit), X_test).values for fit in fits)
    rate = float(np.mean(lower > upper))
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    return PredictionBand(lower, upper, alpha, grid, rate)


def _check_band_shapes(band: PredictionBand, Y_true: FunctionalSample) -> None:
    if band.lower.shape != Y_true.values.shape:
        raise ValueError("band and sample shapes differ")
    if not band.grid.close_to(Y_true.grid):
        raise ValueError("band and sample grids differ")


def cpd(band: PredictionBand, Y_true: FunctionalSample, alpha: float) -> float:
    """Absolute gap between nominal and empirical pointwise coverage.

    Coverage pools all (curve, grid point) pairs inside the band.
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
