"""Tests for model fitting, prediction, surfaces, and serialization."""

import numpy as np
import pytest

from fflqr.errors import RankDeficiencyWarning
from fflqr.fdata import FunctionalSample, inner_product, make_uniform_grid
from fflqr.fpca import fpc_decompose, project_scores
from fflqr.model import (
    _projected_design,
    coefficient_surface,
    fit_bspline_ls,
    fit_fflqr,
    fit_fpc_ls,
    intercept_function,
    load_model,
    predict,
    save_model,
    score_objective,
)
from fflqr.qreg import QrProblem, qr_fit


def smooth_predictors(rng, n, grid, m=2, n_harmonics=5):
    t = grid.points
    out = []
    for _ in range(m):
        vals = np.zeros((n, grid.size))
        for k in range(1, n_harmonics + 1):
            vals += 0.7 ** k * rng.normal(size=(n, 1)) * np.sin(np.pi * k * t)
            vals += 0.7 ** k * rng.normal(size=(n, 1)) * np.cos(np.pi * k * t)
        out.append(FunctionalSample(vals, grid))
    return out


def representable_pair(rng, n=40, p=30, k_y=2, k_x=3):
    """Response built exactly from the predictor's leading score space."""
    s_grid = make_uniform_grid(p, 0.0, 1.0)
    t_grid = make_uniform_grid(p, 0.0, 1.0)
    (x,) = smooth_predictors(rng, n, s_grid, m=1)
    _, zeta = fpc_decompose(x, k_x)
    B = rng.normal(size=(k_x, k_y))
    t = t_grid.points
    G = np.vstack([np.sin(np.pi * (k + 1) * t) for k in range(k_y)])
    Y = FunctionalSample(zeta[:, :k_x] @ B @ G, t_grid)
    return Y, x


class TestFitFflqr:
    def test_noiseless_representable_zero_objective(self):
        rng = np.random.default_rng(0)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], 0.5, 2, 3)
        obj = score_objective(fit, Y, [x])
        assert np.all(obj < 1e-6)

    def test_independent_predictor_gives_median_curve(self):
        rng = np.random.default_rng(1)
        g = make_uniform_grid(25, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 60, g, m=1)
        y_vals = 2.0 + np.cumsum(rng.normal(size=(60, 25)), axis=1) * 0.1
        # shuffle the response rows so X carries no information about Y
        Y = FunctionalSample(y_vals[rng.permutation(60)], g)
        fit = fit_fflqr(Y, [x], 0.5, 2, 2)
        pred = predict(fit, [x])
        med = np.median(Y.values, axis=0)
        d_pred = np.mean(
            [inner_product(p - med, p - med, g) for p in pred.values]
        )
        for j in rng.integers(0, 60, size=5):
            row = Y.values[j] - med
            assert d_pred < inner_product(row, row, g)

    def test_scalar_reduction_matches_plain_qr(self):
        rng = np.random.default_rng(2)
        g = make_uniform_grid(30, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 50, g, m=1)
        Y, _ = representable_pair(rng, n=50)
        Y = FunctionalSample(Y.values + 0.05 * rng.normal(size=Y.values.shape),
                             Y.grid)
        fit = fit_fflqr(Y, [x], 0.5, 1, 1)
        assert fit.coefs.shape == (2, 1)
        zeta = project_scores(fit.predictor_bases[0], x)
        xi = project_scores(fit.response_basis, Y)
        design = np.column_stack([np.ones(50), zeta[:, 0]])
        ref = qr_fit(QrProblem(design, xi[:, 0], 0.5))
        np.testing.assert_allclose(fit.coefs[:, 0], ref, atol=1e-8)

    def test_sample_size_mismatch_raises(self):
        rng = np.random.default_rng(3)
        g = make_uniform_grid(10, 0.0, 1.0)
        Y = FunctionalSample(rng.normal(size=(8, 10)), g)
        x = FunctionalSample(rng.normal(size=(9, 10)), g)
        with pytest.raises(ValueError, match="curves"):
            fit_fflqr(Y, [x], 0.5, 1, 1)

    def test_truncation_beyond_rank_raises(self):
        rng = np.random.default_rng(4)
        g = make_uniform_grid(10, 0.0, 1.0)
        Y = FunctionalSample(rng.normal(size=(5, 10)), g)
        x = FunctionalSample(rng.normal(size=(5, 10)), g)
        with pytest.raises(ValueError, match="n_components"):
            fit_fflqr(Y, [x], 0.5, 5, 2)

    def test_objective_nonincreasing_in_kx(self):
        rng = np.random.default_rng(5)
        g = make_uniform_grid(30, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 45, g, m=1)
        y = np.cumsum(rng.normal(size=(45, 30)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        prev = None
        for k_x in range(1, 6):
            fit = fit_fflqr(Y, [x], 0.5, 2, k_x)
            total = float(np.sum(score_objective(fit, Y, [x])))
            if prev is not None:
                assert total <= prev + 1e-8
            prev = total


    def test_predictor_curve_count_mismatch_raises(self):
        rng = np.random.default_rng(24)
        g = make_uniform_grid(20, 0.0, 1.0)
        x, short = smooth_predictors(rng, 30, g, m=2)
        Y = FunctionalSample(rng.normal(size=(30, 20)), g)
        msg = "predictor sample 2 has 3 curves but the response has 30"
        with pytest.raises(ValueError, match=msg):
            fit_fflqr(Y, [x, FunctionalSample(short.values[:3], g)], 0.5, 2, 2)


class TestPredict:
    def test_training_inputs_reproduce_fitted_curves(self):
        rng = np.random.default_rng(6)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], 0.5, 2, 3)
        a = predict(fit, [x])
        b = predict(fit, [x])
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_allclose(a.values, Y.values, atol=1e-6)

    def test_stored_means_give_zero_score_prediction(self):
        rng = np.random.default_rng(7)
        g = make_uniform_grid(20, 0.0, 1.0)
        xs = smooth_predictors(rng, 30, g, m=2)
        y = np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.3 + 1.0
        Y = FunctionalSample(y, g)
        fit = fit_fflqr(Y, xs, 0.5, 2, 2)
        means = [FunctionalSample(b.mean[None, :], b.grid)
                 for b in fit.predictor_bases]
        pred = predict(fit, means)
        rb = fit.response_basis
        expected = rb.mean + fit.coefs[0] @ rb.eigenfunctions
        np.testing.assert_allclose(pred.values[0], expected, atol=1e-10)

    def test_predictor_count_mismatch_raises(self):
        rng = np.random.default_rng(8)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], 0.5, 2, 2)
        with pytest.raises(ValueError, match="predictor"):
            predict(fit, [x, x])

    def test_predictor_curve_count_mismatch_raises(self):
        rng = np.random.default_rng(8)
        g = make_uniform_grid(20, 0.0, 1.0)
        xs = smooth_predictors(rng, 30, g, m=2)
        fit = fit_fflqr(FunctionalSample(rng.normal(size=(30, 20)), g), xs, 0.5, 2, 2)
        short = FunctionalSample(xs[1].values[:3], g)
        msg = "predictor sample 2 has 3 curves, sample 1 has 30"
        with pytest.raises(ValueError, match=msg):
            predict(fit, [xs[0], short])

    def test_grid_mismatch_raises(self):
        rng = np.random.default_rng(9)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], 0.5, 2, 2)
        other = make_uniform_grid(x.grid.size + 1, 0.0, 1.0)
        bad = FunctionalSample(np.zeros((3, other.size)), other)
        with pytest.raises(ValueError, match="grid"):
            predict(fit, [bad])

    def test_unknown_fit_type_raises(self):
        with pytest.raises(TypeError, match="cannot predict"):
            predict(object(), [])


class TestCoefficientSurface:
    def test_shape_and_labels(self):
        rng = np.random.default_rng(10)
        g = make_uniform_grid(22, 0.0, 1.0)
        xs = smooth_predictors(rng, 35, g, m=2)
        y = np.cumsum(rng.normal(size=(35, 22)), axis=1) * 0.2
        fit = fit_fflqr(FunctionalSample(y, g), xs, 0.3, 2, 3,
                        predictor_indices=(4, 7))
        surf = coefficient_surface(fit, 7)
        assert surf.values.shape == (22, 22)
        assert surf.predictor_index == 7
        assert surf.tau == 0.3

    def test_unknown_index_raises(self):
        rng = np.random.default_rng(11)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], 0.5, 2, 2)
        with pytest.raises(ValueError, match="predictor"):
            coefficient_surface(fit, 9)

    def test_surface_round_trip_matches_predict(self):
        rng = np.random.default_rng(12)
        g = make_uniform_grid(30, 0.0, 1.0)
        xs = smooth_predictors(rng, 40, g, m=2)
        y = np.cumsum(rng.normal(size=(40, 30)), axis=1) * 0.2 + 3.0
        Y = FunctionalSample(y, g)
        fit = fit_fflqr(Y, xs, 0.5, 3, 3)
        pred = predict(fit, xs)
        beta0 = intercept_function(fit)
        acc = np.tile(beta0, (40, 1))
        for pos, x in enumerate(xs):
            surf = coefficient_surface(fit, pos + 1)
            w = x.grid.weights
            acc += (x.values * w) @ surf.values
        np.testing.assert_allclose(acc, pred.values, atol=1e-8)


class TestFpcLs:
    def test_agrees_with_quantile_fit_on_representable_data(self):
        rng = np.random.default_rng(13)
        Y, x = representable_pair(rng)
        fq = fit_fflqr(Y, [x], 0.5, 2, 3)
        fl = fit_fpc_ls(Y, [x], 2, 3)
        sq = coefficient_surface(fq, 1).values
        sl = coefficient_surface(fl, 1).values
        scale = np.max(np.abs(sl))
        np.testing.assert_allclose(sq, sl, atol=1e-3 * scale)

    def test_scalar_slope_is_cov_over_var(self):
        rng = np.random.default_rng(14)
        g = make_uniform_grid(25, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 60, g, m=1)
        y = np.cumsum(rng.normal(size=(60, 25)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        fit = fit_fpc_ls(Y, [x], 1, 1)
        zeta = project_scores(fit.predictor_bases[0], x)[:, 0]
        xi = project_scores(fit.response_basis, Y)[:, 0]
        slope = np.cov(xi, zeta, bias=True)[0, 1] / np.var(zeta)
        assert fit.coefs[1, 0] == pytest.approx(slope, rel=1e-8)
        assert fit.method == "fpc-ls"

    def test_duplicated_predictor_warns(self):
        rng = np.random.default_rng(15)
        g = make_uniform_grid(20, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 30, g, m=1)
        y = np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        with pytest.warns(RankDeficiencyWarning):
            fit_fpc_ls(Y, [x, x], 2, 2, predictor_indices=(1, 2))

    def test_duplicated_predictor_gets_minimum_norm_fit(self):
        # predictor 1 and 3 are the same curves; which copy comes first in
        # the design must not change either surface
        rng = np.random.default_rng(15)
        g = make_uniform_grid(20, 0.0, 1.0)
        x, z = smooth_predictors(rng, 30, g, m=2)
        Y = FunctionalSample(np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.2, g)
        with pytest.warns(RankDeficiencyWarning):
            a = fit_fpc_ls(Y, [x, z, x], 2, 2, predictor_indices=(1, 2, 3))
        with pytest.warns(RankDeficiencyWarning):
            b = fit_fpc_ls(Y, [x, x, z], 2, 2, predictor_indices=(3, 1, 2))
        for label in (1, 2, 3):
            np.testing.assert_allclose(
                coefficient_surface(a, label).values,
                coefficient_surface(b, label).values,
                rtol=1e-9, atol=1e-12,
            )
        design = _projected_design(a, [x, z, x])
        xi = project_scores(a.response_basis, Y)
        np.testing.assert_allclose(a.coefs, np.linalg.pinv(design) @ xi, rtol=1e-9, atol=1e-12)


class TestBsplineLs:
    def test_fits_and_predicts(self):
        rng = np.random.default_rng(16)
        g = make_uniform_grid(40, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 50, g, m=1)
        y = np.cumsum(rng.normal(size=(50, 40)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        fit = fit_bspline_ls(Y, [x], n_basis=10, order=4)
        pred = predict(fit, [x])
        assert pred.values.shape == (50, 40)
        assert np.all(np.isfinite(pred.values))
        assert fit.method == "bspline-ls"

    def test_in_sample_beats_mean_curve(self):
        rng = np.random.default_rng(17)
        g = make_uniform_grid(35, 0.0, 1.0)
        Y, x = representable_pair(rng, n=45, p=35)
        fit = fit_bspline_ls(Y, [x], n_basis=8)
        pred = predict(fit, [x])
        resid = Y.values - pred.values
        around_mean = Y.values - Y.values.mean(axis=0)
        assert np.sum(resid ** 2) < np.sum(around_mean ** 2)

    def test_n_basis_above_predictor_grid_raises(self):
        rng = np.random.default_rng(21)
        g, g_coarse = make_uniform_grid(30, 0.0, 1.0), make_uniform_grid(8, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 20, g_coarse, m=1)
        Y = FunctionalSample(rng.normal(size=(20, 30)), g)
        with pytest.raises(ValueError, match="n_basis exceeds the number of predictor"):
            fit_bspline_ls(Y, [x], n_basis=10)

    def test_predictor_curve_count_mismatch_raises(self):
        rng = np.random.default_rng(23)
        g = make_uniform_grid(25, 0.0, 1.0)
        xs = smooth_predictors(rng, 30, g, m=2)
        fit = fit_bspline_ls(FunctionalSample(rng.normal(size=(30, 25)), g), xs, n_basis=8)
        msg = "predictor sample 2 has 4 curves, sample 1 has 30"
        with pytest.raises(ValueError, match=msg):
            predict(fit, [xs[0], FunctionalSample(xs[1].values[:4], g)])

    def test_predict_on_other_grid_raises(self):
        rng = np.random.default_rng(22)
        Y, x = representable_pair(rng, n=30, p=25)
        fit = fit_bspline_ls(Y, [x], n_basis=8)
        (other,) = smooth_predictors(rng, 5, make_uniform_grid(25, 0.0, 2.0), m=1)
        with pytest.raises(ValueError, match="predictor grid does not match"):
            predict(fit, [other])


class TestSerialization:
    def test_fflqr_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        g = make_uniform_grid(20, 0.0, 1.0)
        xs = smooth_predictors(rng, 30, g, m=2)
        y = np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        fit = fit_fflqr(Y, xs, 0.25, 2, 2, predictor_indices=(2, 5))
        path = tmp_path / "model.json"
        save_model(fit, path)
        back = load_model(path)
        assert back.tau == fit.tau
        assert back.predictor_indices == fit.predictor_indices
        np.testing.assert_allclose(
            predict(back, xs).values, predict(fit, xs).values, atol=1e-12
        )

    def test_bspline_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        g = make_uniform_grid(25, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 30, g, m=1)
        y = np.cumsum(rng.normal(size=(30, 25)), axis=1) * 0.2
        Y = FunctionalSample(y, g)
        fit = fit_bspline_ls(Y, [x], n_basis=8)
        path = tmp_path / "model.json"
        save_model(fit, path)
        back = load_model(path)
        np.testing.assert_allclose(
            predict(back, [x]).values, predict(fit, [x]).values, atol=1e-12
        )

    def test_fpc_ls_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        Y, x = representable_pair(rng)
        fit = fit_fpc_ls(Y, [x], 2, 2)
        save_model(fit, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.method == "fpc-ls"
        np.testing.assert_allclose(
            predict(back, [x]).values, predict(fit, [x]).values, atol=1e-12
        )
