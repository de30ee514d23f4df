"""Tests for prediction bands and the evaluation metrics."""

import tracemalloc

import numpy as np
import pytest

import fflqr.bands as bands_mod
import fflqr.model as model_mod
from fflqr.bands import (
    PredictionBand,
    bootstrap_band,
    cpd,
    direct_band,
    interval_score,
    mspe,
    write_band_csv,
)
from fflqr.errors import NumericalError
from fflqr.fdata import FunctionalSample, Grid, make_uniform_grid, read_sample_csv
from fflqr.model import fit_bspline_ls, fit_fflqr, predict
from fflqr.simulate import SimConfig, generate_dataset
from oracles import mspe_naive


def flat_band(grid, n, lo, hi, alpha=0.05):
    lower = np.full((n, grid.size), lo)
    upper = np.full((n, grid.size), hi)
    return PredictionBand(lower, upper, alpha, grid)


def driven_pair(rng, n=40, p=20):
    """Small train/test pair where one predictor drives the response."""
    g = make_uniform_grid(p, 0.0, 1.0)
    t = g.points
    vals = np.zeros((n, p))
    for k in range(1, 5):
        vals += 0.6 ** k * rng.normal(size=(n, 1)) * np.sin(np.pi * k * t)
    x = FunctionalSample(vals, g)
    surf = np.outer(np.sin(np.pi * t), np.cos(np.pi * t)) / p
    y = vals @ surf + 0.1 * rng.normal(size=(n, p))
    return FunctionalSample(y, g), x


class TestMspe:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(0)
        g = make_uniform_grid(11, 0.0, 1.0)
        Y = FunctionalSample(rng.normal(size=(4, 11)), g)
        assert mspe(Y, Y) == 0.0

    def test_constant_offset_is_square(self):
        g = make_uniform_grid(21, 0.0, 1.0)
        a = FunctionalSample(np.zeros((3, 21)), g)
        b = FunctionalSample(np.full((3, 21), 0.7), g)
        assert mspe(a, b) == pytest.approx(0.49, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(1)
        g = make_uniform_grid(17, 0.0, 2.0)
        a = FunctionalSample(rng.normal(size=(6, 17)), g)
        b = FunctionalSample(rng.normal(size=(6, 17)), g)
        expected = mspe_naive(a.values, b.values, g.points)
        assert mspe(a, b) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_raises(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        a = FunctionalSample(np.zeros((3, 5)), g)
        b = FunctionalSample(np.zeros((2, 5)), g)
        with pytest.raises(ValueError, match="same shape"):
            mspe(a, b)

    def test_grid_mismatch_raises(self):
        a = FunctionalSample(np.zeros((3, 5)), make_uniform_grid(5, 0.0, 1.0))
        b = FunctionalSample(np.zeros((3, 5)), make_uniform_grid(5, 0.0, 2.0))
        with pytest.raises(ValueError, match="share a grid"):
            mspe(a, b)


class TestPredictionBand:
    def test_crossed_bounds_rejected(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        with pytest.raises(ValueError, match="lower bound exceeds"):
            PredictionBand(np.ones((2, 5)), np.zeros((2, 5)), 0.05, g)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_must_be_interior(self, alpha):
        g = make_uniform_grid(5, 0.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            PredictionBand(np.zeros((2, 5)), np.ones((2, 5)), alpha, g)

    def test_shape_mismatch_rejected(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        with pytest.raises(ValueError, match="same shape"):
            PredictionBand(np.zeros((2, 5)), np.ones((3, 5)), 0.05, g)

    def test_grid_mismatch_rejected(self):
        g = make_uniform_grid(6, 0.0, 1.0)
        with pytest.raises(ValueError, match="match the grid"):
            PredictionBand(np.zeros((2, 5)), np.ones((2, 5)), 0.05, g)


class TestCpd:
    def test_full_coverage(self):
        g = make_uniform_grid(10, 0.0, 1.0)
        band = flat_band(g, 3, -1.0, 1.0, alpha=0.05)
        Y = FunctionalSample(np.zeros((3, 10)), g)
        assert cpd(band, Y, 0.05) == pytest.approx(0.05, abs=1e-12)

    def test_zero_coverage(self):
        g = make_uniform_grid(10, 0.0, 1.0)
        band = flat_band(g, 3, -1.0, 1.0, alpha=0.05)
        Y = FunctionalSample(np.full((3, 10), 5.0), g)
        assert cpd(band, Y, 0.05) == pytest.approx(0.95, abs=1e-12)

    def test_half_coverage(self):
        g = make_uniform_grid(10, 0.0, 1.0)
        band = flat_band(g, 2, -1.0, 1.0, alpha=0.1)
        vals = np.zeros((2, 10))
        vals[1] = 5.0
        Y = FunctionalSample(vals, g)
        assert cpd(band, Y, 0.1) == pytest.approx(0.40, abs=1e-12)

    def test_boundary_counts_as_inside(self):
        g = make_uniform_grid(4, 0.0, 1.0)
        band = flat_band(g, 1, -1.0, 1.0, alpha=0.5)
        Y = FunctionalSample(np.full((1, 4), 1.0), g)
        assert cpd(band, Y, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch_raises(self):
        g = make_uniform_grid(4, 0.0, 1.0)
        band = flat_band(g, 2, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((3, 4)), g)
        with pytest.raises(ValueError, match="shapes differ"):
            cpd(band, Y, 0.05)


class TestIntervalScore:
    def test_constant_width_inside(self):
        g = make_uniform_grid(30, 0.0, 1.0)
        band = flat_band(g, 4, -0.6, 0.6, alpha=0.2)
        Y = FunctionalSample(np.zeros((4, 30)), g)
        assert interval_score(band, Y, 0.2) == pytest.approx(1.2, abs=1e-12)

    def test_zero_width_exact_hit(self):
        g = make_uniform_grid(12, 0.0, 1.0)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(3, 12))
        band = PredictionBand(vals.copy(), vals.copy(), 0.1, g)
        Y = FunctionalSample(vals, g)
        assert interval_score(band, Y, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_single_exceedance_hand_quadrature(self):
        # width 1, one of five points escapes by 0.5 at alpha 0.2:
        # pointwise score is 6 there and 1 elsewhere, trapezoid weights
        # (.125, .25, .25, .25, .125) give sqrt(9.75)
        g = make_uniform_grid(5, 0.0, 1.0)
        band = flat_band(g, 1, 0.0, 1.0, alpha=0.2)
        vals = np.full((1, 5), 0.5)
        vals[0, 2] = 1.5
        Y = FunctionalSample(vals, g)
        expected = np.sqrt(9.75)
        assert interval_score(band, Y, 0.2) == pytest.approx(expected, abs=1e-12)

    def test_never_below_width_norm(self):
        rng = np.random.default_rng(3)
        g = make_uniform_grid(15, 0.0, 1.0)
        lower = rng.normal(size=(5, 15))
        upper = lower + rng.uniform(0.1, 1.0, size=(5, 15))
        band = PredictionBand(lower, upper, 0.1, g)
        Y = FunctionalSample(rng.normal(scale=3.0, size=(5, 15)), g)
        widths = np.sqrt((upper - lower) ** 2 @ g.weights)
        assert interval_score(band, Y, 0.1) >= np.mean(widths) - 1e-12


class TestBootstrapBand:
    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(4)
        Y, x = driven_pair(rng)
        Y2, x2 = driven_pair(rng, n=6)
        a = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=5)
        b = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=5)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_seed_sequence_is_not_advanced(self):
        rng = np.random.default_rng(4)
        Y, x = driven_pair(rng)
        Y2, x2 = driven_pair(rng, n=6)
        seed = np.random.SeedSequence(7)
        a = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=seed)
        b = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=seed)
        c = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=7)
        assert seed.n_children_spawned == 0
        for band in (b, c):
            np.testing.assert_array_equal(band.lower, a.lower)
            np.testing.assert_array_equal(band.upper, a.upper)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(5)
        Y, x = driven_pair(rng)
        Y2, x2 = driven_pair(rng, n=6)
        a = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=5)
        b = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=12, seed=6)
        assert not np.array_equal(a.lower, b.lower)

    def test_matches_manual_replicates(self):
        # replay the resampling with the public fit API and check the
        # band is the pointwise quantile of the stacked predictions
        rng = np.random.default_rng(6)
        Y, x = driven_pair(rng)
        Y2, x2 = driven_pair(rng, n=5)
        R, seed = 2, 9
        band = bootstrap_band(Y, [x], [x2], 0.5, 0.5, 2, 2, R=R, seed=seed)
        children = np.random.SeedSequence(seed).spawn(R)
        preds = []
        for r in range(R):
            rows = np.random.default_rng(children[r]).integers(0, Y.n, size=Y.n)
            Y_r = FunctionalSample(Y.values[rows], Y.grid)
            X_r = [FunctionalSample(x.values[rows], x.grid)]
            fit = fit_fflqr(Y_r, X_r, 0.5, 2, 2)
            preds.append(predict(fit, [x2]).values)
        stack = np.stack(preds)
        np.testing.assert_array_equal(band.lower, np.quantile(stack, 0.25, axis=0))
        np.testing.assert_array_equal(band.upper, np.quantile(stack, 0.75, axis=0))

    def test_bspline_matches_manual_replicates(self):
        # the B-spline refits solve on rows of one expansion of the training
        # curves; replaying them as fresh fits to resampled curves agrees.
        # White-noise curves keep every refit's design at full rank.
        rng = np.random.default_rng(6)
        g = make_uniform_grid(20, 0.0, 1.0)
        Y, x, x2 = (FunctionalSample(rng.normal(size=(n, 20)), g) for n in (60, 60, 5))
        R, seed = 5, 9
        band = bootstrap_band(Y, [x], [x2], 0.5, 0.5, 2, 2, R=R, seed=seed, method="bspline-ls")
        children = np.random.SeedSequence(seed).spawn(R)
        preds = []
        for r in range(R):
            rows = np.random.default_rng(children[r]).integers(0, Y.n, size=Y.n)
            Y_r = FunctionalSample(Y.values[rows], Y.grid)
            X_r = [FunctionalSample(x.values[rows], x.grid)]
            preds.append(predict(fit_bspline_ls(Y_r, X_r), [x2]).values)
        stack = np.stack(preds)
        np.testing.assert_allclose(band.lower, np.quantile(stack, 0.25, axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(band.upper, np.quantile(stack, 0.75, axis=0), rtol=1e-12, atol=0)

    def test_wider_alpha_band_nests_inside_narrower(self):
        rng = np.random.default_rng(7)
        Y, x = driven_pair(rng)
        Y2, x2 = driven_pair(rng, n=6)
        wide = bootstrap_band(Y, [x], [x2], 0.5, 0.05, 2, 2, R=20, seed=3)
        narrow = bootstrap_band(Y, [x], [x2], 0.5, 0.2, 2, 2, R=20, seed=3)
        assert np.all(wide.lower <= narrow.lower + 1e-12)
        assert np.all(narrow.upper <= wide.upper + 1e-12)

    def test_r_too_small_raises(self):
        rng = np.random.default_rng(8)
        Y, x = driven_pair(rng, n=10)
        with pytest.raises(ValueError, match="R must be at least 2"):
            bootstrap_band(Y, [x], [x], 0.5, 0.2, 2, 2, R=1)

    @pytest.mark.parametrize("method", ["fflqr", "bspline-ls"])
    def test_predictor_curve_count_mismatch_raises(self, method):
        # rows are drawn for the response, so a longer predictor sample must
        # be refused before any rows are taken, not cut to the drawn rows
        rng = np.random.default_rng(9)
        Y, x = driven_pair(rng, n=30)
        _, longer = driven_pair(rng, n=40)
        with pytest.raises(ValueError, match="predictor sample 1 has 40 curves"):
            bootstrap_band(Y, [longer], [x], 0.5, 0.2, 2, 2, R=4, method=method)

    def test_alpha_out_of_range_raises(self):
        rng = np.random.default_rng(9)
        Y, x = driven_pair(rng, n=10)
        with pytest.raises(ValueError, match="alpha"):
            bootstrap_band(Y, [x], [x], 0.5, 1.0, 2, 2, R=4)

    def test_refits_decompose_each_resample_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        Y, x1 = driven_pair(rng)
        _, x2 = driven_pair(rng)
        calls = []
        real = model_mod.fpc_decompose

        def decompose(sample, n_components):
            calls.append(sample.values.tobytes())
            return real(sample, n_components)

        monkeypatch.setattr(model_mod, "fpc_decompose", decompose)
        R, M = 5, 2
        bootstrap_band(Y, [x1, x2], [x1, x2], 0.5, 0.2, 2, 2, R=R, seed=3)
        assert len(calls) == len(set(calls)) == R * (1 + M)

    @pytest.mark.parametrize("method, per_predictor", [("bspline-ls", 1), ("fpc-ls", 5)])
    def test_test_curves_projected_once_per_basis(self, monkeypatch, method, per_predictor):
        # B-spline refits share their fixed bases, so the test curves are
        # projected once per predictor; each of R = 5 FPC refits has its own.
        # White-noise curves keep every refit's design at full rank.
        rng = np.random.default_rng(12)
        g = make_uniform_grid(20, 0.0, 1.0)
        Y, x1, x2, *tests = (FunctionalSample(rng.normal(size=(n, 20)), g)
                             for n in (120, 120, 120, 7, 7))
        projected = []
        real = model_mod.project_scores

        def project(basis, sample):
            projected.append(sample)
            return real(basis, sample)

        monkeypatch.setattr(model_mod, "project_scores", project)
        bootstrap_band(Y, [x1, x2], tests, 0.5, 0.2, 2, 2, R=5, seed=3, method=method)
        for t in tests:
            assert sum(s is t for s in projected) == per_predictor

    @staticmethod
    def unsolved_at(select):
        """A stand-in for the stacked solver that marks ``solved[select]``
        unsolved after solving every problem."""
        real = model_mod._fit_stack

        def fit_stack(designs, responses, taus):
            coefs, solved = real(designs, responses, taus)
            solved[select] = False
            return coefs, solved

        return fit_stack

    def test_mostly_failed_refits_raise(self, monkeypatch):
        rng = np.random.default_rng(10)
        Y, x = driven_pair(rng, n=10)
        monkeypatch.setattr(model_mod, "_fit_stack", self.unsolved_at(np.s_[:]))
        with pytest.raises(NumericalError, match="bootstrap refits succeeded"):
            bootstrap_band(Y, [x], [x], 0.5, 0.2, 2, 2, R=4)

    def test_some_failed_refits_are_counted(self, monkeypatch):
        # one unsolved response column drops its whole refit: refits 2 and 5
        rng = np.random.default_rng(10)
        Y, x = driven_pair(rng)
        monkeypatch.setattr(model_mod, "_fit_stack", self.unsolved_at(np.s_[2::3, :, 1]))
        band = bootstrap_band(Y, [x], [x], 0.5, 0.2, 2, 2, R=7)
        assert band.failed_refits == 2

    def test_bounds_after_failed_refits_use_survivors_only(self, monkeypatch):
        # refits 2 and 5 of 7 fail; the bounds are the quantiles of the other
        # five, replayed as public fits on the same resamples
        rng = np.random.default_rng(10)
        Y, x = driven_pair(rng)
        monkeypatch.setattr(model_mod, "_fit_stack", self.unsolved_at(np.s_[2::3, :, 1]))
        R, seed = 7, 0
        band = bootstrap_band(Y, [x], [x], 0.5, 0.2, 2, 2, R=R, seed=seed)
        monkeypatch.undo()
        children = np.random.SeedSequence(seed).spawn(R)
        preds = []
        for r in (0, 1, 3, 4, 6):
            rows = np.random.default_rng(children[r]).integers(0, Y.n, size=Y.n)
            Y_r = FunctionalSample(Y.values[rows], Y.grid)
            X_r = [FunctionalSample(x.values[rows], x.grid)]
            preds.append(predict(fit_fflqr(Y_r, X_r, 0.5, 2, 2), [x]).values)
        stack = np.stack(preds)
        np.testing.assert_array_equal(band.lower, np.quantile(stack, 0.1, axis=0))
        np.testing.assert_array_equal(band.upper, np.quantile(stack, 0.9, axis=0))

    @staticmethod
    def peak_in_stacks():
        """Traced peak of one band (R=20, 400 test curves, p=50) in units of
        its full prediction stack, R * n_test * p doubles."""
        rng = np.random.default_rng(13)
        Y, x = driven_pair(rng, n=40, p=50)
        _, x_test = driven_pair(rng, n=400, p=50)
        R = 20
        stack_bytes = R * x_test.n * x_test.grid.size * 8
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            bootstrap_band(Y, [x], [x_test], 0.5, 0.2, 2, 2, R=R, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - base) / stack_bytes

    def test_peak_memory_holds_one_prediction_stack(self):
        # predictions dominate this band; a copy of the whole stack or a
        # second one beside it would break the bound
        assert self.peak_in_stacks() <= 2

    def test_peak_memory_holds_one_chunk(self, monkeypatch):
        # with chunks of a sixteenth of the stack (25 curves), the band
        # holds its bounds, the refits' scores and one chunk at a time:
        # about 0.3 stacks here, 1.6 when the whole stack was built
        monkeypatch.setattr(bands_mod, "_CHUNK_BYTES", 20 * 400 * 50 * 8 // 16)
        assert self.peak_in_stacks() <= 0.5

    @pytest.mark.parametrize("method", ["fflqr", "fpc-ls", "bspline-ls"])
    @pytest.mark.parametrize("R", [2, 7])
    @pytest.mark.parametrize("n_test", [1, 2, 5, 7])
    def test_chunks_match_one_stack_bitwise(self, monkeypatch, method, R, n_test):
        # chunks of 2 or 3 curves (2.5 curves' bytes), and a last chunk of 3
        # where one curve would be left over; the reference is the quantile
        # of the full stack of predict's curves from the band's own refits
        rng = np.random.default_rng(15)
        g = make_uniform_grid(20, 0.0, 1.0)
        Y, x, x_test = (FunctionalSample(rng.normal(size=(n, 20)), g) for n in (60, 60, n_test))
        monkeypatch.setattr(bands_mod, "_CHUNK_BYTES", 5 * R * 20 * 4)
        band = bootstrap_band(Y, [x], [x_test], 0.5, 0.3, 2, 2, R=R, seed=4, method=method)
        rows = (np.random.default_rng(c).integers(0, Y.n, size=Y.n)
                for c in np.random.SeedSequence(4).spawn(R))
        fits = model_mod._fit_for(method, Y, [x], [0.5], 2, 2, rows=rows)
        stack = np.stack([predict(fit, [x_test]).values for (fit,) in fits])
        lower, upper = np.quantile(stack, [0.15, 0.85], axis=0)
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    @staticmethod
    def noise_band(method, R, alpha):
        """A band on white-noise curves (60 training, 9 test, p=20, seed 4),
        and a function giving ``np.quantile`` at its levels over ``predict``'s
        curves from the band's own refits numbered in ``keep`` (all of them
        by default)."""
        rng = np.random.default_rng(16)
        g = make_uniform_grid(20, 0.0, 1.0)
        Y, x, x_test = (FunctionalSample(rng.normal(size=(n, 20)), g) for n in (60, 60, 9))
        band = bootstrap_band(Y, [x], [x_test], 0.5, alpha, 2, 2, R=R, seed=4, method=method)

        def own_quantiles(keep=range(R)):
            rows = [np.random.default_rng(c).integers(0, Y.n, size=Y.n)
                    for c in np.random.SeedSequence(4).spawn(R)]
            fits = model_mod._fit_for(method, Y, [x], [0.5], 2, 2, rows=(rows[r] for r in keep))
            stack = np.stack([predict(fit, [x_test]).values for (fit,) in fits])
            return np.quantile(stack, [alpha / 2, 1 - alpha / 2], axis=0)

        return band, own_quantiles

    @pytest.mark.parametrize("method", ["fflqr", "fpc-ls", "bspline-ls"])
    def test_lone_survivor_bounds_are_its_prediction(self, monkeypatch, method):
        # R = 2 with refit 1 unsolved leaves F = 1: both levels lie at or
        # past the last order statistic, which is then both neighbours
        if method == "fflqr":
            monkeypatch.setattr(model_mod, "_fit_stack", self.unsolved_at(np.s_[1, :, 1]))
        else:
            real = model_mod._fit_for

            def fail_refit_1(*args, **kwargs):
                fits = list(real(*args, **kwargs))
                fits[1] = (NumericalError("forced"),)
                return fits

            monkeypatch.setattr(bands_mod, "_fit_for", fail_refit_1)
        band, own_quantiles = self.noise_band(method, 2, 0.1)
        monkeypatch.undo()
        assert band.failed_refits == 1
        lower, upper = own_quantiles(keep=[0])
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    @pytest.mark.parametrize("method", ["fflqr", "fpc-ls", "bspline-ls"])
    def test_level_on_an_order_statistic(self, method):
        # R = 21, alpha = 0.1: virtual indices 20 * 0.05 = 1.0 and
        # 20 * 0.95 = 19.0, so both weights are 0
        assert (20 * 0.05, 20 * (1 - 0.05)) == (1.0, 19.0)
        band, own_quantiles = self.noise_band(method, 21, 0.1)
        assert band.failed_refits == 0
        lower, upper = own_quantiles()
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    @pytest.mark.parametrize("count", [0, 2])
    def test_wrong_test_predictor_count_raises_from_predict(self, count):
        rng = np.random.default_rng(14)
        Y, x = driven_pair(rng)
        with pytest.raises(ValueError, match=f"model uses 1 predictors, got {count}"):
            bootstrap_band(Y, [x], [x] * count, 0.5, 0.2, 2, 2, R=4)

    def test_singular_bspline_grid_fails_every_refit(self):
        # 24 of 25 points in [0, 0.1]: most of the 20 basis functions have no
        # grid point of their own, and the Gram matrix depends on the grid
        # alone, so every refit fails and the band is refused
        rng = np.random.default_rng(10)
        g = Grid.from_points(np.append(np.linspace(0.0, 0.1, 24), 1.0))
        Y, x = (FunctionalSample(rng.normal(size=(40, 25)), g) for _ in range(2))
        with pytest.raises(NumericalError, match="only 0 of 6 bootstrap refits succeeded"):
            bootstrap_band(Y, [x], [x], 0.5, 0.2, 2, 2, R=6, method="bspline-ls")


class TestDirectBand:
    def test_bounds_ordered_and_match_quantile_fits(self):
        rng = np.random.default_rng(11)
        Y, x = driven_pair(rng, n=60)
        Y2, x2 = driven_pair(rng, n=8)
        band = direct_band(Y, [x], [x2], 0.2, 2, 2)
        assert np.all(band.lower <= band.upper)
        lo = predict(fit_fflqr(Y, [x], 0.1, 2, 2), [x2]).values
        hi = predict(fit_fflqr(Y, [x], 0.9, 2, 2), [x2]).values
        np.testing.assert_allclose(band.lower, np.minimum(lo, hi), atol=1e-12)
        np.testing.assert_allclose(band.upper, np.maximum(lo, hi), atol=1e-12)
        assert band.crossing_rate == pytest.approx(np.mean(lo > hi))

    def test_bounds_equal_separate_quantile_fits_bitwise(self):
        rng = np.random.default_rng(11)
        Y, x = driven_pair(rng, n=60)
        Y2, x2 = driven_pair(rng, n=8)
        alpha = 0.2
        band = direct_band(Y, [x], [x2], alpha, 2, 2)
        lo = predict(fit_fflqr(Y, [x], alpha / 2.0, 2, 2), [x2]).values
        hi = predict(fit_fflqr(Y, [x], 1.0 - alpha / 2.0, 2, 2), [x2]).values
        np.testing.assert_array_equal(band.lower, np.minimum(lo, hi))
        np.testing.assert_array_equal(band.upper, np.maximum(lo, hi))

    def test_alpha_out_of_range_raises(self):
        rng = np.random.default_rng(12)
        Y, x = driven_pair(rng, n=10)
        with pytest.raises(ValueError, match="alpha"):
            direct_band(Y, [x], [x], 0.0, 2, 2)


class TestSignedCoverage:
    """Pointwise coverage of ``Y_test`` minus the nominal 0.90, signed, for
    both bands on the true predictors at K=(3,3) (data and bootstrap seed 5,
    tau=0.5, R=100). Both bands fall short of nominal; see the README."""

    @pytest.mark.parametrize("over, boot, direct", [
        ({}, 0.3679, 0.6890),
        ({"error_dist": "chisq1"}, 0.3556, 0.6446),
        ({"n_train": 30, "sigma": 0.3}, 0.8360, 0.4202),
    ], ids=["default", "chisq1", "n30-sigma0.3"])
    def test_both_bands_undercover(self, over, boot, direct):
        data = generate_dataset(SimConfig(**over), 5)
        X_tr = [data.X_train[i - 1] for i in (2, 4, 5)]
        X_te = [data.X_test[i - 1] for i in (2, 4, 5)]
        bands = (
            bootstrap_band(data.Y_train, X_tr, X_te, 0.5, 0.1, 3, 3, R=100, seed=5),
            direct_band(data.Y_train, X_tr, X_te, 0.1, 3, 3),
        )
        y = data.Y_test.values
        gaps = [np.mean((b.lower <= y) & (y <= b.upper)) - 0.90 for b in bands]
        np.testing.assert_allclose(gaps, [boot - 0.90, direct - 0.90], rtol=0, atol=0.01)
        assert max(gaps) < 0.0


class TestWriteBandCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        g = make_uniform_grid(9, 0.0, 1.0)
        lower = rng.normal(size=(4, 9))
        band = PredictionBand(lower, lower + 1.0, 0.1, g)
        lo_path = tmp_path / "lower.csv"
        hi_path = tmp_path / "upper.csv"
        write_band_csv(band, lo_path, hi_path)
        lo = read_sample_csv(lo_path)
        hi = read_sample_csv(hi_path)
        np.testing.assert_array_equal(lo.values, band.lower)
        np.testing.assert_array_equal(hi.values, band.upper)
        np.testing.assert_allclose(lo.grid.points, g.points)
