"""Every input check that the other tests leave unexercised: its exception
type and its exact message."""

from unittest import mock

import numpy as np
import pytest

from fflqr.bands import PredictionBand, bootstrap_band, cpd
from fflqr.errors import NumericalError
from fflqr.fdata import FunctionalSample, Grid, make_uniform_grid
from fflqr.fpca import fpc_decompose, reconstruct
from fflqr.model import FflqrFit, fit_bspline_ls, fit_fflqr, save_model
from fflqr.qreg import QrProblem, qr_fit_multi, qr_objective
from fflqr.selection import bic_candidate, forward_select
from fflqr.simulate import _gram_factor


def sample(p=25, n=12, seed=0):
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(p, 0.0, 1.0)
    return FunctionalSample(rng.normal(size=(n, p)), grid)


def one_basis():
    return fpc_decompose(sample(), 2)[0]


def _gram_without_cholesky(grid):
    """The Gram factor with every Cholesky attempt failing."""
    with mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.LinAlgError):
        return _gram_factor(grid)


GRID = make_uniform_grid(6, 0.0, 1.0)
DESIGN = np.ones((5, 2))

CASES = {
    # fdata
    "grid-weights-shape": (
        lambda: Grid([0.0, 0.5, 1.0], [0.5, 0.5]),
        ValueError, "weights must match points in shape"),
    "uniform-grid-one-point": (
        lambda: make_uniform_grid(1, 0, 1), ValueError, "n_points must be at least 2"),
    "uniform-grid-reversed": (
        lambda: make_uniform_grid(5, 1, 0), ValueError, "need a < b"),
    "sample-1d": (
        lambda: FunctionalSample(np.zeros(6), GRID),
        ValueError, "values must be a 2-D array of shape (n, p)"),
    # fpca
    "decompose-zero-components": (
        lambda: fpc_decompose(sample(), 0), ValueError, "n_components must be positive"),
    "reconstruct-score-width": (
        lambda: reconstruct(one_basis(), np.zeros((3, 3))),
        ValueError, "scores must have one column per basis component"),
    # model
    "fit-two-indices-one-basis": (
        lambda: FflqrFit(0.5, one_basis(), (one_basis(),), np.zeros((3, 2)), (1, 2)),
        ValueError, "one predictor index per predictor basis required"),
    "fit-no-predictors": (
        lambda: fit_fflqr(sample(), [], 0.5, 2, 2),
        ValueError, "need at least one predictor sample"),
    "fit-index-count": (
        lambda: fit_fflqr(sample(), [sample(seed=1)], 0.5, 2, 2, predictor_indices=(1, 2)),
        ValueError, "predictor_indices length must match the predictor list"),
    "band-unknown-method": (
        lambda: bootstrap_band(sample(), [sample(seed=1)], [sample(seed=2)], 0.5, 0.2, 2, 2,
                               R=4, method="lasso"),
        ValueError, "unknown method 'lasso'"),
    "bspline-short-response": (
        lambda: fit_bspline_ls(sample(p=10), [sample(p=30, seed=1)]),
        ValueError, "n_basis exceeds the number of response grid points"),
    "bspline-order-1": (
        lambda: fit_bspline_ls(sample(), [sample(seed=1)], order=1),
        ValueError, "order must be at least 2"),
    "save-unknown-model": (
        lambda: save_model(object(), "unused.json"), TypeError, "cannot serialize object"),
    # qreg
    "problem-1d-design": (
        lambda: QrProblem(np.ones(5), np.zeros(5), 0.5),
        ValueError, "design must be a 2-D matrix"),
    "multi-1d-design": (
        lambda: qr_fit_multi(np.ones(5), np.zeros((5, 1)), 0.5),
        ValueError, "design must be a 2-D matrix"),
    "problem-response-rows": (
        lambda: QrProblem(DESIGN, np.zeros(4), 0.5),
        ValueError, "responses must be (n,) with n matching the design rows"),
    "multi-response-rows": (
        lambda: qr_fit_multi(DESIGN, np.zeros((4, 1)), 0.5),
        ValueError, "responses must be (n, K) with n matching the design rows"),
    "objective-rows": (
        lambda: qr_objective(DESIGN, np.zeros((4, 1)), np.zeros((2, 1)), 0.5),
        ValueError, "design and responses must have matching rows"),
    "objective-coef-shape": (
        lambda: qr_objective(DESIGN, np.zeros((5, 1)), np.zeros((2, 2)), 0.5),
        ValueError, "coefficient matrix shape does not match the problem"),
    # selection
    "candidate-empty": (
        lambda: bic_candidate(sample(), [], 0.5, ()),
        ValueError, "candidate predictor set must be nonempty"),
    "candidate-repeated": (
        lambda: bic_candidate(sample(), [sample(seed=1), sample(seed=2)], 0.5, (1, 1)),
        ValueError, "one predictor sample per distinct index in D required"),
    "forward-no-candidates": (
        lambda: forward_select(sample(), [], 0.5),
        ValueError, "need at least one candidate predictor"),
    # bands
    "cpd-other-grid": (
        lambda: cpd(PredictionBand(np.zeros((2, 6)), np.ones((2, 6)), 0.1, GRID),
                    FunctionalSample(np.zeros((2, 6)), make_uniform_grid(6, 0.0, 2.0)), 0.1),
        ValueError, "band and sample grids differ"),
    # simulate
    "gp-negative-kernel": (
        lambda: _gram_without_cholesky(GRID),
        NumericalError, "kernel Gram matrix is not positive definite"),
}


@pytest.mark.parametrize("call, kind, message", CASES.values(), ids=CASES.keys())
def test_raises_its_message(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_objective_takes_a_response_vector():
    rng = np.random.default_rng(3)
    design = np.column_stack([np.ones(6), rng.normal(size=6)])
    y = rng.normal(size=6)
    coefs = np.array([[0.1], [-0.4]])
    vector = qr_objective(design, y, coefs, 0.3)
    assert vector.shape == (1,)
    assert vector.tobytes() == qr_objective(design, y[:, None], coefs, 0.3).tobytes()
