"""Tests for synthetic data generation and the Monte Carlo harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fflqr.model as model_mod
import fflqr.selection as selection_mod
import fflqr.simulate as sim_mod
from fflqr.bands import MetricsReport, mspe
from fflqr.errors import ConfigError, NumericalError
from fflqr.fdata import FunctionalSample, make_uniform_grid
from fflqr.model import fit_fflqr, predict
from fflqr.simulate import (
    SimConfig,
    contaminate,
    gen_ou_errors,
    gen_predictors,
    gen_response,
    generate_dataset,
    run_monte_carlo,
    sample_gp,
    squared_exp_kernel,
    true_beta,
    write_study_tables,
)


def tiny_config(**kw):
    base = dict(
        n_train=50,
        n_test=30,
        n_grid=30,
        n_replicates=2,
        sigma=0.5,
        k_y_max=2,
        k_x_max=2,
        bootstrap_R=4,
    )
    base.update(kw)
    return SimConfig(**base)


class TestKernel:
    def test_unit_diagonal(self):
        k = squared_exp_kernel()
        assert k(0.3, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_decay_at_lag_tenth(self):
        k = squared_exp_kernel(100.0)
        assert k(0.2, 0.3) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_vectorized(self):
        k = squared_exp_kernel(100.0)
        s = np.array([0.0, 0.1, 0.2])
        out = k(s[:, None], s[None, :])
        assert out.shape == (3, 3)
        np.testing.assert_allclose(np.diag(out), 1.0)


class TestSampleGp:
    def test_marginal_moments(self):
        rng = np.random.default_rng(0)
        g = make_uniform_grid(15, 0.0, 1.0)
        x = sample_gp(squared_exp_kernel(100.0), g, 4000, rng)
        col = x.values[:, 7]
        assert abs(np.mean(col)) < 0.1
        assert abs(np.var(col) - 1.0) < 0.1

    def test_lagged_correlation_matches_kernel(self):
        rng = np.random.default_rng(1)
        g = make_uniform_grid(11, 0.0, 1.0)
        x = sample_gp(squared_exp_kernel(100.0), g, 4000, rng)
        # grid step is 0.1, so adjacent columns correlate at exp(-1)
        corr = np.corrcoef(x.values[:, 4], x.values[:, 5])[0, 1]
        assert corr == pytest.approx(math.exp(-1.0), abs=0.05)

    def test_zero_kernel_gives_zero_sample(self):
        rng = np.random.default_rng(2)
        g = make_uniform_grid(8, 0.0, 1.0)
        x = sample_gp(lambda s, t: 0.0 * (np.asarray(s) + np.asarray(t)), g, 5, rng)
        np.testing.assert_array_equal(x.values, 0.0)


class TestPredictors:
    def test_mean_level(self):
        config = tiny_config(n_grid=20)
        rng = np.random.default_rng(3)
        X = gen_predictors(config, rng, n=2000)
        assert len(X) == config.M
        assert np.mean(X[0].values) == pytest.approx(10.0, abs=0.1)

    def test_neighbor_correlation_exceeds_distant(self):
        config = tiny_config(n_grid=20)
        rng = np.random.default_rng(4)
        X = gen_predictors(config, rng, n=2000)
        col = 10
        c12 = np.corrcoef(X[0].values[:, col], X[1].values[:, col])[0, 1]
        c15 = np.corrcoef(X[0].values[:, col], X[4].values[:, col])[0, 1]
        # with lag 4 neighbors share 4 of 5 components, the extremes 1 of 5
        assert c12 == pytest.approx(0.8, abs=0.05)
        assert c15 == pytest.approx(0.2, abs=0.08)

    def test_zero_lag_gives_independent_predictors(self):
        config = tiny_config(n_grid=20, lag=0)
        rng = np.random.default_rng(5)
        X = gen_predictors(config, rng, n=2000)
        c12 = np.corrcoef(X[0].values[:, 10], X[1].values[:, 10])[0, 1]
        assert abs(c12) < 0.1


    def test_fields_draw_like_separate_samples(self):
        # The fields share one kernel factor but draw in the same order, with
        # the same bytes, as one sample_gp call per field.
        config = tiny_config(M=3, lag=2, n_grid=20, significant=(1,))
        got = gen_predictors(config, np.random.default_rng(8), n=7)
        rng = np.random.default_rng(8)
        grid = make_uniform_grid(config.n_grid, 0.0, 1.0)
        kernel = squared_exp_kernel(100.0)
        fields_v = [sample_gp(kernel, grid, 7, rng).values for _ in range(config.M + config.lag)]
        for m, x in enumerate(got):
            total = np.zeros((7, config.n_grid))
            for j in range(config.lag + 1):
                total += fields_v[m + j]
            assert x.values.tobytes() == (10.0 + total / math.sqrt(config.lag + 1)).tobytes()


class TestTrueBeta:
    def test_first_surface_vanishes_on_edges(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        surf = true_beta(1, g, g)
        np.testing.assert_allclose(surf.values[-1, :], 0.0, atol=1e-15)
        np.testing.assert_allclose(surf.values[:, 2], 0.0, atol=1e-15)

    def test_fourth_surface_vanishes_at_response_ends(self):
        g = make_uniform_grid(9, 0.0, 1.0)
        surf = true_beta(4, g, g)
        np.testing.assert_allclose(surf.values[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(surf.values[:, -1], 0.0, atol=1e-12)

    def test_third_surface_hand_value(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        surf = true_beta(3, g, g)
        assert surf.values[2, 2] == pytest.approx(1.0 + 8.0 * np.exp(-5.0), rel=1e-15)

    def test_fifth_surface_hand_value(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        surf = true_beta(5, g, g)
        assert surf.values[1, 1] == pytest.approx(0.25, abs=1e-15)

    def test_unknown_label_raises(self):
        g = make_uniform_grid(5, 0.0, 1.0)
        with pytest.raises(ValueError, match="no coefficient surface"):
            true_beta(6, g, g)


class TestOuErrors:
    def test_deterministic_decay_from_fixed_start(self):
        config = tiny_config(sigma=0.0, ou_theta=2.0)
        g = make_uniform_grid(50, 0.0, 1.0)
        errs = gen_ou_errors(config, g, 3, np.random.default_rng(0), eps0=1.0)
        expected = np.exp(-2.0 * g.points)
        for row in errs.values:
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_mean_level_is_fixed_point(self):
        config = tiny_config(sigma=0.0, ou_gamma=1.5)
        g = make_uniform_grid(20, 0.0, 1.0)
        errs = gen_ou_errors(config, g, 2, np.random.default_rng(1), eps0=1.5)
        np.testing.assert_array_equal(errs.values, 1.5)

    def test_stationary_variance(self):
        config = tiny_config(sigma=1.0, ou_theta=1.0)
        g = make_uniform_grid(25, 0.0, 1.0)
        errs = gen_ou_errors(config, g, 8000, np.random.default_rng(2))
        # the process starts in its stationary law sigma^2 / (2 theta)
        assert np.var(errs.values[:, 0]) == pytest.approx(0.5, abs=0.05)
        assert np.var(errs.values[:, -1]) == pytest.approx(0.5, abs=0.05)

    def test_skewed_start_has_unit_mean(self):
        config = tiny_config(error_dist="chisq1")
        g = make_uniform_grid(10, 0.0, 1.0)
        errs = gen_ou_errors(config, g, 8000, np.random.default_rng(3))
        assert np.mean(errs.values[:, 0]) == pytest.approx(1.0, abs=0.06)


class TestGenResponse:
    def test_no_active_predictors_returns_errors(self):
        rng = np.random.default_rng(4)
        g = make_uniform_grid(12, 0.0, 1.0)
        errs = FunctionalSample(rng.normal(size=(5, 12)), g)
        X = [FunctionalSample(rng.normal(size=(5, 12)), g)]
        out = gen_response(X, errs, (), g, g)
        np.testing.assert_array_equal(out.values, errs.values)

    def test_constant_predictor_integrates_surface(self):
        # constant x against sin(1.5 pi s) sin(pi t) has the closed form
        # 2 / (3 pi) * x * sin(pi t)
        g = make_uniform_grid(201, 0.0, 1.0)
        errs = FunctionalSample(np.zeros((2, 201)), g)
        X = [None, None, None, FunctionalSample(np.full((2, 201), 3.0), g)]
        out = gen_response(X, errs, (4,), g, g)
        expected = 3.0 * 2.0 / (3.0 * math.pi) * np.sin(math.pi * g.points)
        np.testing.assert_allclose(out.values[0], expected, atol=1e-4)

    def test_sample_size_mismatch_raises(self):
        g = make_uniform_grid(8, 0.0, 1.0)
        errs = FunctionalSample(np.zeros((3, 8)), g)
        X = [FunctionalSample(np.zeros((2, 8)), g)]
        with pytest.raises(ValueError, match="sample sizes differ"):
            gen_response(X, errs, (1,), g, g)


class TestContaminate:
    def test_zero_rate_is_identity(self):
        g = make_uniform_grid(6, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((10, 6)), g)
        out, rows = contaminate(Y, 0.0)
        assert out is Y
        assert rows == ()

    def test_count_and_positive_shift(self):
        rng = np.random.default_rng(5)
        g = make_uniform_grid(6, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((20, 6)), g)
        out, rows = contaminate(Y, 0.25, rng=rng)
        assert len(rows) == 5
        assert len(set(rows)) == 5
        assert np.all(out.values[list(rows)] > 0.0)
        untouched = [i for i in range(20) if i not in rows]
        np.testing.assert_array_equal(out.values[untouched], 0.0)

    def test_curve_shift_is_constant_per_row(self):
        rng = np.random.default_rng(6)
        g = make_uniform_grid(6, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((10, 6)), g)
        out, rows = contaminate(Y, 0.3, rng=rng)
        for i in rows:
            assert np.ptp(out.values[i]) == 0.0

    def test_per_point_shift_varies(self):
        rng = np.random.default_rng(7)
        g = make_uniform_grid(6, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((10, 6)), g)
        out, rows = contaminate(Y, 0.3, rng=rng, per_point=True)
        for i in rows:
            assert np.ptp(out.values[i]) > 0.0

    def test_invalid_rate_raises(self):
        g = make_uniform_grid(6, 0.0, 1.0)
        Y = FunctionalSample(np.zeros((4, 6)), g)
        with pytest.raises(ValueError, match="rate must lie"):
            contaminate(Y, 1.0)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(error_dist="cauchy"), "error_dist"),
            (dict(tau=0.0), "tau"),
            (dict(contamination_rate=1.0), "contamination_rate"),
            (dict(significant=(0,)), "significant"),
            (dict(ou_theta=0.0), "ou_theta"),
            (dict(n_replicates=0), "n_replicates"),
            (dict(n_train=40.5), "n_train must be an integer"),
            (dict(n_grid=30.0), "n_grid must be an integer"),
            (dict(n_replicates=1.5), "n_replicates must be an integer"),
            (dict(fixed_k=2.0), "fixed_k must be an integer"),
            (dict(bootstrap_R=10.5), "bootstrap_R must be an integer"),
            (dict(M=True), "M must be an integer"),
            (dict(master_seed=1.5), "master_seed must be an integer"),
            (dict(master_seed=-1), "master_seed must be nonnegative"),
            (dict(significant=(2.5, 4)), "significant predictor labels must be integers"),
            (dict(significant=(True, 4)), "significant predictor labels must be integers"),
            (dict(ou_gamma=None), "ou_gamma must be a finite number, got None"),
            (dict(sigma=math.nan), "sigma must be a finite number"),
            (dict(sigma=math.inf), "sigma must be a finite number"),
            (dict(sigma=True), "sigma must be a finite number"),
            (dict(tau="0.5"), "tau must be a finite number"),
            (dict(outlier_mean=10**400), "outlier_mean must be a finite number"),
            (dict(outlier_per_point="no"), "outlier_per_point must be true or false"),
            (dict(outlier_per_point=1), "outlier_per_point must be true or false"),
            (dict(scenario=5), "scenario must be a string, got 5"),
            (dict(error_dist=None), "error_dist must be a string"),
            (dict(significant=()), r"one or more distinct labels, got \[\]"),
            (dict(significant=(2, 2)), r"one or more distinct labels, got \[2, 2\]"),
        ],
    )
    def test_rejects_bad_values(self, kw, msg):
        with pytest.raises(ConfigError, match=msg):
            SimConfig(**kw)

    def test_dict_round_trip(self):
        config = tiny_config(error_dist="chisq1", significant=(1, 3))
        again = SimConfig.from_dict(config.to_dict())
        assert again == config
        assert again.significant == (1, 3)

    def test_integer_and_numpy_values_pass_as_floats(self):
        config = SimConfig(sigma=1, ou_gamma=np.float64(0.5), outlier_mean=np.int64(3))
        assert config.label() == "normal-sigma1-contam0"

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            SimConfig.from_dict({"n_train": 50, "bananas": 1})

    def test_label(self):
        assert SimConfig().label() == "normal-sigma1-contam0"
        assert SimConfig(scenario="desk").label() == "desk"


class TestGenerateDataset:
    def test_deterministic(self):
        config = tiny_config()
        a = generate_dataset(config, 5)
        b = generate_dataset(config, 5)
        np.testing.assert_array_equal(a.Y_train.values, b.Y_train.values)
        np.testing.assert_array_equal(a.X_test[2].values, b.X_test[2].values)

    def test_shapes(self):
        config = tiny_config()
        data = generate_dataset(config, 0)
        assert data.Y_train.n == 50
        assert data.Y_test.n == 30
        assert data.Y_test_signal.n == 30
        assert len(data.X_train) == config.M
        assert data.X_test[0].n == 30

    def test_noiseless_response_equals_signal(self):
        config = tiny_config(sigma=0.0)
        data = generate_dataset(config, 1)
        np.testing.assert_array_equal(data.Y_test.values, data.Y_test_signal.values)
        # in that case the noisy responses do carry noise once sigma > 0
        noisy = generate_dataset(tiny_config(sigma=1.0), 1)
        assert not np.array_equal(noisy.Y_test.values, noisy.Y_test_signal.values)

    def test_contamination_touches_training_rows_only(self):
        config = tiny_config(contamination_rate=0.1)
        dirty = generate_dataset(config, 7)
        clean = generate_dataset(replace(config, contamination_rate=0.0), 7)
        rows = dirty.contaminated
        assert len(rows) == 5
        assert all(0 <= i < config.n_train for i in rows)
        np.testing.assert_array_equal(dirty.Y_test.values, clean.Y_test.values)
        assert np.all(
            dirty.Y_train.values[list(rows)] > clean.Y_train.values[list(rows)]
        )
        untouched = [i for i in range(config.n_train) if i not in rows]
        np.testing.assert_array_equal(
            dirty.Y_train.values[untouched], clean.Y_train.values[untouched]
        )

    def test_noiseless_true_model_recovers_signal(self):
        config = SimConfig(sigma=0.0, master_seed=11)
        data = generate_dataset(config, 11)
        X_tr = [data.X_train[i - 1] for i in config.significant]
        X_te = [data.X_test[i - 1] for i in config.significant]
        fit = fit_fflqr(data.Y_train, X_tr, 0.5, 4, 12)
        err = mspe(data.Y_test, predict(fit, X_te))
        assert err < 1e-4


class TestRunMonteCarlo:
    def test_deterministic_and_grouped(self):
        config = tiny_config()
        kw = dict(methods=("fflqr", "fpc-ls"), models=("true",), n_threads=1)
        a = run_monte_carlo(config, **kw)
        b = run_monte_carlo(config, **kw)
        assert a == b
        assert [r.replicate for r in a] == [0, 0, 1, 1]
        assert [r.method for r in a] == ["fflqr", "fpc-ls"] * 2
        assert all(r.model == "true" for r in a)
        assert all(r.cpd is None and r.interval_score is None for r in a)

    def test_thread_count_does_not_change_results(self):
        config = tiny_config()
        kw = dict(methods=("fflqr",), models=("true",))
        assert run_monte_carlo(config, n_threads=1, **kw) == run_monte_carlo(
            config, n_threads=2, **kw
        )

    def test_band_metrics_and_direct_rows(self):
        config = tiny_config(n_replicates=1)
        reports = run_monte_carlo(
            config, methods=("fflqr",), models=("true",), alpha=0.2, n_threads=1
        )
        assert [r.method for r in reports] == ["fflqr", "fflqr-direct"]
        for r in reports:
            assert 0.0 <= r.cpd <= 1.0
            assert r.interval_score >= 0.0
        assert reports[0].mspe == reports[1].mspe

    def test_more_noise_means_worse_prediction(self):
        kw = dict(methods=("fflqr",), models=("true",), n_threads=1)
        low = run_monte_carlo(tiny_config(sigma=0.1, master_seed=3), **kw)
        high = run_monte_carlo(tiny_config(sigma=1.0, master_seed=3), **kw)
        assert np.mean([r.mspe for r in low]) < np.mean([r.mspe for r in high])

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigError, match="unknown method"):
            run_monte_carlo(tiny_config(), methods=("nope",))

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigError, match="unknown model"):
            run_monte_carlo(tiny_config(), models=("nope",))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_bad_alpha_raises_before_any_replicate(self, monkeypatch, alpha):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim_mod, "_replicate_reports", no_replicate)
        with pytest.raises(ConfigError, match="alpha"):
            run_monte_carlo(tiny_config(), alpha=alpha)

    @pytest.mark.parametrize("field", ["fixed_k", "k_y_max", "k_x_max"])
    def test_truncation_above_rank_bound_raises_before_any_replicate(
        self, monkeypatch, field
    ):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim_mod, "_replicate_reports", no_replicate)
        # n_train = 5 leaves at most 4 components
        with pytest.raises(ConfigError, match=r"min\(n_train - 1, n_grid\) = 4"):
            run_monte_carlo(tiny_config(n_train=5, **{field: 5}))

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_one_decomposition_per_training_sample(self, monkeypatch):
        decomposed = []
        real = model_mod.fpc_decompose

        def decompose(sample, n_components):
            decomposed.append(sample.values.tobytes())
            return real(sample, n_components)

        monkeypatch.setattr(model_mod, "fpc_decompose", decompose)
        config = tiny_config(n_replicates=1)
        reports = run_monte_carlo(config)
        assert len(reports) == len(sim_mod.ALL_METHODS) * len(sim_mod.ALL_MODELS)
        assert len(decomposed) == 1 + config.M
        assert len(set(decomposed)) == 1 + config.M

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_paired_band_decomposes_no_sample_twice(self, monkeypatch):
        decomposed = []
        real = model_mod.fpc_decompose

        def decompose(sample, n_components):
            decomposed.append(sample.values.tobytes())
            return real(sample, n_components)

        monkeypatch.setattr(model_mod, "fpc_decompose", decompose)
        reports = run_monte_carlo(
            tiny_config(n_replicates=1), methods=("fflqr",), alpha=0.1
        )
        assert {r.method for r in reports} == {"fflqr", "fflqr-direct"}
        assert len(decomposed) == len(set(decomposed))

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_point_fits_are_the_selections_solves(self, monkeypatch):
        # Without alpha, every core call of a replicate comes from a model
        # choice, through the selection driver: no check-loss point fit is
        # solved a second time.
        calls = {"driver": 0, "other": 0}
        real_fit_stack = selection_mod._fit_stack

        def counting(where):
            def fit_stack(*args):
                calls[where] += 1
                return real_fit_stack(*args)
            return fit_stack

        monkeypatch.setattr(selection_mod, "_fit_stack", counting("driver"))
        monkeypatch.setattr(model_mod, "_fit_stack", counting("other"))
        reports = run_monte_carlo(tiny_config(n_replicates=1))
        assert len(reports) == len(sim_mod.ALL_METHODS) * len(sim_mod.ALL_MODELS)
        # one forward stage at least, and one truncation search per model
        assert calls["driver"] >= 1 + len(sim_mod.ALL_MODELS)
        assert calls["other"] == 0

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_replicates_share_each_selection_core_call(self, monkeypatch):
        # A window of replicates makes as many selection core calls as its
        # longest replicate makes requests, not their sum.
        requests, core_calls = {}, []
        real_reports, real_fit_stack = sim_mod._replicate_reports, selection_mod._fit_stack

        def counted_reports(config, replicate, *rest):
            steps, reply = real_reports(config, replicate, *rest), None
            requests[replicate] = 0
            while True:
                try:
                    request = steps.send(reply)
                except StopIteration as stop:
                    return stop.value
                requests[replicate] += 1
                reply = yield request

        def fit_stack(*args):
            core_calls.append(len(args[0]))
            return real_fit_stack(*args)

        monkeypatch.setattr(sim_mod, "_replicate_reports", counted_reports)
        monkeypatch.setattr(selection_mod, "_fit_stack", fit_stack)
        monkeypatch.setattr(sim_mod, "_WINDOW", 3)
        reports = run_monte_carlo(tiny_config(n_replicates=3), methods=("fflqr",))
        assert [r.replicate for r in reports] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert len(core_calls) == max(requests.values()) < sum(requests.values())

    @staticmethod
    def study_bytes(reports):
        return [repr(r) for r in reports]

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_window_and_threads_do_not_change_reports(self, monkeypatch):
        config = tiny_config(n_replicates=5)
        reference = self.study_bytes(run_monte_carlo(config, n_threads=1))
        assert self.study_bytes(run_monte_carlo(config, n_threads=3)) == reference
        monkeypatch.setattr(sim_mod, "_WINDOW", 1)
        assert self.study_bytes(run_monte_carlo(config, n_threads=1)) == reference
        assert self.study_bytes(run_monte_carlo(config, n_threads=3)) == reference

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_failed_request_drops_only_its_replicate(self, monkeypatch):
        config = tiny_config(n_replicates=5)
        reference = run_monte_carlo(config, n_threads=1)
        # Every problem on replicate 1's response scores goes unsolved, in
        # whichever merged core call it lands.
        scores = []
        real_decompose, real_fit_stack = sim_mod._decompose, selection_mod._fit_stack

        def decompose(Y, *rest):
            dec = real_decompose(Y, *rest)
            scores.append(dec[0][1])
            return dec

        def fit_stack(designs, responses, taus):
            coefs, solved = real_fit_stack(designs, responses, taus)
            for g, response in enumerate(responses):
                if len(scores) > 1 and np.shares_memory(response, scores[1]):
                    solved[g] = False
            return coefs, solved

        monkeypatch.setattr(sim_mod, "_decompose", decompose)
        monkeypatch.setattr(selection_mod, "_fit_stack", fit_stack)
        reports = run_monte_carlo(config, n_threads=1)
        assert len(scores) == config.n_replicates
        want = [r for r in reference if r.replicate != 1]
        assert self.study_bytes(reports) == self.study_bytes(want)

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_one_bspline_response_expansion_per_replicate(self, monkeypatch):
        expanded = []
        real = model_mod._basis_coordinates

        def coordinates(sample, *rest):
            expanded.append(sample.values.tobytes())
            return real(sample, *rest)

        monkeypatch.setattr(model_mod, "_basis_coordinates", coordinates)
        monkeypatch.setattr(sim_mod, "_basis_coordinates", coordinates)
        config = tiny_config(n_replicates=2)
        reports = run_monte_carlo(config)
        assert sum(r.method == "bspline-ls" for r in reports) == 2 * len(sim_mod.ALL_MODELS)
        assert len(expanded) == len(set(expanded)) == config.n_replicates

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_point_fit_unmoved_by_paired_band_levels(self):
        config = tiny_config()
        without = run_monte_carlo(config, methods=("fflqr",))
        with_band = run_monte_carlo(config, methods=("fflqr",), alpha=0.1)
        point = [(r.replicate, r.model, r.mspe) for r in with_band if r.method == "fflqr"]
        assert point == [(r.replicate, r.model, r.mspe) for r in without]

    def test_model_wider_than_sample_raises_before_any_replicate(self, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim_mod, "_replicate_reports", no_replicate)
        # five predictors at k_x_max = 2 need 11 columns, more than 10 rows
        with pytest.raises(ConfigError, match="full model.*11 design columns"):
            run_monte_carlo(tiny_config(n_train=10), models=("full",))

    @pytest.mark.parametrize("model", ["true", "selected"])
    def test_narrow_models_run_on_a_short_sample(self, model):
        reports = run_monte_carlo(
            tiny_config(n_train=10), methods=("fflqr",), models=(model,)
        )
        assert [r.model for r in reports] == [model, model]

    def test_runs_serially_by_default(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "ThreadPoolExecutor", None)
        reports = run_monte_carlo(tiny_config(), methods=("fpc-ls",), models=("true",))
        assert [r.replicate for r in reports] == [0, 1]

    def test_too_many_failed_replicates_raise(self, monkeypatch):
        def always_fail(config, replicate, child, methods, models, alpha):
            raise NumericalError("boom")

        monkeypatch.setattr(sim_mod, "_replicate_reports", always_fail)
        with pytest.raises(NumericalError, match="replicates failed"):
            run_monte_carlo(tiny_config(n_replicates=3), n_threads=1)


class TestResultsCsv:
    def test_layout_and_optional_fields(self, tmp_path):
        reports = [
            MetricsReport(1.5, 0.25, 3.0, "fflqr", "true", "desk", 0, 42),
            MetricsReport(2.0, None, None, "fpc-ls", "full", "desk", 1, 42),
        ]
        path = tmp_path / "results.csv"
        write_study_tables(reports, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,replicate,method,model,scenario,mspe,cpd,score"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:5] == ["42", "0", "fflqr", "true", "desk"]
        assert float(first[5]) == 1.5
        second = lines[2].split(",")
        assert second[6] == "" and second[7] == ""
