"""Tests for model fitting, prediction, surfaces, and serialization."""

import json

import numpy as np
import pytest

import fflqr.model as model_mod
from fflqr.errors import DataError, NumericalError, RankDeficiencyWarning
from fflqr.fdata import (
    FunctionalSample, Grid, _trapezoid_weights, make_uniform_grid,
)
from fflqr.fpca import fpc_decompose, project_scores
from fflqr.model import (
    _fit_for,
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
from fflqr.qreg import QrProblem, qr_fit, qr_fit_multi
from fflqr.simulate import SimConfig, generate_dataset
from oracles import bspline_ls_reference


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


# Transforms of the training data under which predictions are invariant.
# Each gives the training data, the new predictors and an offset such that
# predictions minus the offset equal those of the untransformed fit.
def predictor_units(c):
    def transform(Y, X):
        scaled = [FunctionalSample(c * x.values, x.grid) for x in X]
        return Y, scaled, scaled, 0.0

    return transform


def response_location(Y, X):
    curve = np.cos(5 * Y.grid.points)
    return FunctionalSample(Y.values + curve, Y.grid), X, X, curve


def row_order(Y, X):
    order = np.random.default_rng(26).permutation(Y.n)
    permuted = [FunctionalSample(s.values[order], s.grid) for s in (Y, *X)]
    return permuted[0], permuted[1:], X, 0.0


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
            [np.sum(g.weights * (p - med) ** 2) for p in pred.values]
        )
        for j in rng.integers(0, 60, size=5):
            row = Y.values[j] - med
            assert d_pred < np.sum(g.weights * row ** 2)

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


    @staticmethod
    def skewed_data():
        rng = np.random.default_rng(25)
        g = make_uniform_grid(30, 0.0, 1.0)
        x, z = smooth_predictors(rng, 80, g, m=2)
        Y = FunctionalSample(
            x.values[:, ::-1] - 0.5 * z.values + rng.chisquare(1, size=(80, 30)), g
        )
        return Y, [x, z]

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_predictions_do_not_depend_on_response_units(self, c):
        Y, X = self.skewed_data()
        base = predict(fit_fflqr(Y, X, 0.9, 3, 3), X).values
        scaled = predict(fit_fflqr(FunctionalSample(c * Y.values, Y.grid), X, 0.9, 3, 3), X)
        np.testing.assert_allclose(scaled.values / c, base, rtol=0, atol=1e-8 * np.abs(base).max())

    @pytest.mark.parametrize(
        "transform",
        [predictor_units(1e-8), predictor_units(1e8), response_location, row_order],
        ids=["predictor-units-1e-08", "predictor-units-1e+08", "response-location", "row-order"],
    )
    def test_predictions_are_invariant(self, transform):
        Y, X = self.skewed_data()
        base = predict(fit_fflqr(Y, X, 0.9, 3, 3), X).values
        Y_t, X_t, X_new, offset = transform(Y, X)
        moved = predict(fit_fflqr(Y_t, X_t, 0.9, 3, 3), X_new).values - offset
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-8 * np.abs(base).max())

    def test_centroid_quantiles_nondecrease_in_tau(self):
        # The design's score columns are centered, so the intercept of each
        # response score is its fitted tau-quantile at the centroid, which
        # cannot decrease in tau. One call solves all 19 levels in one stack;
        # the slack is relative to each score's largest intercept (the worst
        # step measured on this and other seeds was -3.7e-11).
        config = SimConfig()
        data = generate_dataset(config, np.random.SeedSequence(5))
        X = [data.X_train[i - 1] for i in config.significant]
        taus = np.linspace(0.05, 0.95, 19)
        (fits,) = _fit_for("fflqr", data.Y_train, X, taus, 3, 3)
        intercepts = np.array([fit.coefs[0] for fit in fits])
        assert np.all(np.diff(intercepts, axis=0) >= -1e-9 * np.abs(intercepts).max(axis=0))

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
        # for the quantile fit and for a B-spline fit, a score fit on fixed bases
        rng = np.random.default_rng(12)
        g = make_uniform_grid(30, 0.0, 1.0)
        xs = smooth_predictors(rng, 40, g, m=2)
        y = np.cumsum(rng.normal(size=(40, 30)), axis=1) * 0.2 + 3.0
        Y = FunctionalSample(y, g)
        for fit in (fit_fflqr(Y, xs, 0.5, 3, 3), fit_bspline_ls(Y, xs, n_basis=8)):
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

    def test_every_level_gets_the_row_set_fit(self):
        # a least squares fit ignores the level: each row set is fit once,
        # at tau 0.5, and equals fit_fpc_ls on its resample bitwise
        rng = np.random.default_rng(16)
        g = make_uniform_grid(20, 0.0, 1.0)
        x, z = smooth_predictors(rng, 30, g, m=2)
        Y = FunctionalSample(np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.2, g)
        rows = [rng.integers(0, 30, size=30) for _ in range(2)]
        fits = _fit_for("fpc-ls", Y, [x, z], [0.2, 0.8], 2, 2, rows=rows)
        assert len(fits) == 2
        for r, level_fits in zip(rows, fits):
            Y_r, x_r, z_r = (FunctionalSample(s.values[r], g) for s in (Y, x, z))
            alone = fit_fpc_ls(Y_r, [x_r, z_r], 2, 2)
            assert len(level_fits) == 2
            for fit in level_fits:
                assert (fit.tau, fit.method) == (0.5, "fpc-ls")
                assert fit.coefs.tobytes() == alone.coefs.tobytes()


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

    def test_predictor_grid_points_outside_basis_supports_fit(self):
        # 12 of 13 points in [0, 0.1]: the basis functions supported on
        # [0.2, 1] share the one point at 1, so their inner products with
        # the curves are zero or collinear and the design loses rank.
        rng = np.random.default_rng(24)
        points = np.append(np.linspace(0.0, 0.1, 12), 1.0)
        g = Grid(points, _trapezoid_weights(points))
        x = FunctionalSample(rng.normal(size=(30, 13)), g)
        Y = FunctionalSample(rng.normal(size=(30, 20)), make_uniform_grid(20, 0.0, 1.0))
        with pytest.warns(RankDeficiencyWarning):
            fit = fit_bspline_ls(Y, [x], n_basis=8)
        assert np.all(np.isfinite(predict(fit, [x]).values))

    def test_response_grid_points_outside_basis_supports_raise(self):
        # the same grid under the response: its Gram matrix is singular
        rng = np.random.default_rng(24)
        points = np.append(np.linspace(0.0, 0.1, 12), 1.0)
        Y = FunctionalSample(rng.normal(size=(30, 13)), Grid(points, _trapezoid_weights(points)))
        (x,) = smooth_predictors(rng, 30, make_uniform_grid(20, 0.0, 1.0), m=1)
        with pytest.raises(NumericalError, match="no point of the 13-point grid of their own"):
            fit_bspline_ls(Y, [x], n_basis=8)

    def test_one_coordinate_pass_for_the_response(self, monkeypatch):
        # predictors enter through inner products and prediction needs no
        # coordinates, so fit and predict solve one Gram system, for Y
        rng = np.random.default_rng(25)
        Y, x = representable_pair(rng, n=30, p=25)
        (z,) = smooth_predictors(rng, 30, x.grid, m=1)
        passes = []
        coordinates = model_mod._basis_coordinates
        monkeypatch.setattr(model_mod, "_basis_coordinates",
                            lambda sample, *a: passes.append(sample) or coordinates(sample, *a))
        predict(fit_bspline_ls(Y, [x, z], n_basis=8), [x, z])
        assert len(passes) == 1 and passes[0] is Y

    @pytest.mark.parametrize("labels", [(2, 4, 5), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, seed, labels):
        # Measured worst: 1.3e-13 of the largest prediction (seed 3, all
        # five predictors); the bound leaves a margin of about 75x.
        data = generate_dataset(SimConfig(), np.random.SeedSequence(seed))
        X = [data.X_train[i - 1] for i in labels]
        X_test = [data.X_test[i - 1] for i in labels]
        pred = predict(fit_bspline_ls(data.Y_train, X, predictor_indices=labels), X_test).values
        ref = bspline_ls_reference(data.Y_train, X, X_test)
        np.testing.assert_allclose(pred, ref, rtol=0, atol=1e-11 * np.abs(ref).max())

    def test_predict_on_other_grid_raises(self):
        rng = np.random.default_rng(22)
        Y, x = representable_pair(rng, n=30, p=25)
        fit = fit_bspline_ls(Y, [x], n_basis=8)
        (other,) = smooth_predictors(rng, 5, make_uniform_grid(25, 0.0, 2.0), m=1)
        with pytest.raises(ValueError, match="grid does not match the basis grid"):
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

    @pytest.mark.parametrize("labels", ["a", [0], [1.5], [True], [-1]])
    def test_bspline_bad_labels_raise(self, tmp_path, labels):
        rng = np.random.default_rng(19)
        g = make_uniform_grid(25, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 30, g, m=1)
        fit = fit_bspline_ls(FunctionalSample(rng.normal(size=(30, 25)), g), [x], n_basis=8)
        path = tmp_path / "model.json"
        save_model(fit, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "predictor_indices": labels}))
        with pytest.raises(DataError, match="malformed"):
            load_model(path)

    def test_bspline_misshapen_basis_raises(self, tmp_path):
        rng = np.random.default_rng(19)
        g = make_uniform_grid(25, 0.0, 1.0)
        (x,) = smooth_predictors(rng, 30, g, m=1)
        fit = fit_bspline_ls(FunctionalSample(rng.normal(size=(30, 25)), g), [x], n_basis=8)
        path = tmp_path / "model.json"
        save_model(fit, path)
        doc = json.loads(path.read_text())
        doc["response_basis"]["eigenfunctions"] = doc["response_basis"]["eigenfunctions"][0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed.*shapes"):
            load_model(path)

    def test_string_level_round_trip(self, tmp_path):
        # the level is stored as the number solved at, so the file loads
        rng = np.random.default_rng(20)
        Y, x = representable_pair(rng)
        fit = fit_fflqr(Y, [x], "0.5", 2, 2)
        save_model(fit, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.tau == 0.5 and isinstance(back.tau, float)
        np.testing.assert_allclose(
            predict(back, [x]).values, predict(fit, [x]).values, atol=1e-12
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rng = np.random.default_rng(20)
        Y, x = representable_pair(rng)
        save_model(fit_fflqr(Y, [x], 0.5, 2, 2), tmp_path / "m.json")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "m.json").read_bytes())
        plain, back = load_model(tmp_path / "m.json"), load_model(bom)
        assert back.coefs.tobytes() == plain.coefs.tobytes()
        assert predict(back, [x]).values.tobytes() == predict(plain, [x]).values.tobytes()

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


def _duplicate_design_qr(Y, x):
    design = np.column_stack([np.ones(Y.n), x.values[:, :2], x.values[:, 1]])
    return qr_fit_multi(design, Y.values[:, :2], 0.5)


@pytest.mark.parametrize("entry", [
    lambda Y, x: fit_fflqr(Y, [x, x], 0.5, 2, 2),
    lambda Y, x: fit_fpc_ls(Y, [x, x], 2, 2),
    lambda Y, x: fit_bspline_ls(Y, [x, x], n_basis=6),
    _duplicate_design_qr,
], ids=["fit_fflqr", "fit_fpc_ls", "fit_bspline_ls", "qr_fit_multi"])
def test_rank_warning_names_the_caller(entry):
    # Call depth below each entry differs; the warning must name this file.
    rng = np.random.default_rng(15)
    g = make_uniform_grid(20, 0.0, 1.0)
    (x,) = smooth_predictors(rng, 30, g, m=1)
    Y = FunctionalSample(np.cumsum(rng.normal(size=(30, 20)), axis=1) * 0.2, g)
    with pytest.warns(RankDeficiencyWarning) as record:
        entry(Y, x)
    assert [w.filename for w in record] == [__file__] * len(record)
