"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fflqr
import fflqr.simulate as sim_mod
from fflqr.cli import main
from fflqr.errors import NumericalError
from fflqr.fdata import FunctionalSample, read_sample_csv, write_sample_csv
from fflqr.fpca import fpc_decompose
from fflqr.model import fit_bspline_ls, fit_fflqr, fit_fpc_ls, load_model, predict, save_model
from fflqr.selection import forward_select, select_truncation, write_trace_csv
from fflqr.simulate import SimConfig


SMALL = {
    "n_train": 30,
    "n_test": 10,
    "n_grid": 25,
    "n_replicates": 2,
    "k_y_max": 2,
    "k_x_max": 2,
    "sigma": 0.5,
    "master_seed": 4,
}


def write_config(tmp_path, **over):
    cfg = dict(SMALL)
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def simulate(tmp_path, name="sim", **over):
    cfg = write_config(tmp_path, **over)
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def fit_dir(tmp_path, sim, xs=("X2", "X4"), name="fit"):
    out = tmp_path / name
    assert main([
        "fit",
        "--y", str(sim / "Y_train.csv"),
        "--x", *[str(sim / f"{x}_train.csv") for x in xs],
        "--ky", "2", "--kx", "2",
        "--out", str(out),
    ]) == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, tmp_path):
        out = simulate(tmp_path)
        names = sorted(p.name for p in out.iterdir())
        expected = sorted(
            ["Y_train.csv", "Y_test.csv", "truth.json", "manifest.json"]
            + [f"X{m}_{part}.csv" for m in range(1, 6) for part in ("train", "test")]
        )
        assert names == expected

    def test_byte_deterministic(self, tmp_path):
        a = simulate(tmp_path, name="a")
        b = simulate(tmp_path, name="b")
        for name in ("Y_train.csv", "X3_test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_truth_records_contamination(self, tmp_path):
        out = simulate(tmp_path, contamination_rate=0.2)
        truth = json.loads((out / "truth.json").read_text())
        assert truth["significant"] == [2, 4, 5]
        assert len(truth["contaminated_train_rows"]) == 6
        clean = json.loads((simulate(tmp_path, name="c") / "truth.json").read_text())
        assert clean["contaminated_train_rows"] == []

    def test_manifest_reproduces_config(self, tmp_path):
        out = simulate(tmp_path)
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "simulate"
        assert doc["master_seed"] == 4
        assert SimConfig.from_dict(doc["config"]) == SimConfig(**SMALL)

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "9", "master_seed"),
        ("--n-train", "33", "n_train"),
        ("--n-test", "7", "n_test"),
        ("--replicates", "3", "n_replicates"),
        ("--sigma", "0.25", "sigma"),
        ("--error-dist", "chisq1", "error_dist"),
        ("--contamination", "0.1", "contamination_rate"),
        ("--tau", "0.3", "tau"),
    ])
    def test_config_flag_sets_its_field(self, tmp_path, flag, value, field):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), flag, value, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert str(config[field]) == value
        assert {k: v for k, v in config.items() if k != field} == {
            k: v for k, v in SimConfig(**SMALL).to_dict().items() if k != field
        }

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bananas": 1}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        missing = tmp_path / "nope.json"
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("ou_gamma", None), ("outlier_per_point", "no"), ("scenario", 5),
    ])
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("significant", [[], [2, 2]])
    def test_empty_or_repeated_significant_exits_2(self, tmp_path, capsys, significant):
        cfg = write_config(tmp_path, significant=significant)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "significant must be one or more distinct labels" in err
        assert "Traceback" not in err

    def test_scalar_significant_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, significant=5)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: significant must be a list of labels, got 5\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "master_seed must be nonnegative" in capsys.readouterr().err


class TestFit:
    def test_fixed_truncation_outputs(self, tmp_path):
        sim = simulate(tmp_path)
        out = fit_dir(tmp_path, sim)
        assert (out / "model.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["tau"] == 0.5
        assert report["k_y"] == 2 and report["k_x"] == 2
        assert report["predictors"] == [1, 2]
        assert report["n"] == 30
        assert len(report["in_sample_objective"]) == 2

    def test_missing_truncation_exits_2(self, tmp_path):
        sim = simulate(tmp_path)
        code = main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"),
            "--out", str(tmp_path / "f"),
        ])
        assert code == 2

    def test_missing_data_file_exits_3(self, tmp_path):
        sim = simulate(tmp_path)
        code = main([
            "fit", "--y", str(sim / "no_such.csv"),
            "--x", str(sim / "X2_train.csv"),
            "--ky", "2", "--kx", "2",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ("--tau", "1.5", "--ky", "2", "--kx", "2"),
        ("--ky", "50", "--kx", "2"),
        ("--tune", "--ky-max", "30"),
        ("--select", "--fixed-k", "0"),
        ("--select", "--ky-max", "0"),
        ("--ky", "2", "--kx", "2", "--tune"),
        ("--select", "--kx", "3"),
    ])
    def test_unsupported_fit_settings_exit_2(self, tmp_path, flags):
        sim = simulate(tmp_path, n_train=20)
        code = main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"), *flags,
            "--out", str(tmp_path / "f"),
        ])
        assert code == 2

    def test_tune_writes_full_trace(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "tuned"
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"),
            "--tune", "--ky-max", "3", "--kx-max", "3",
            "--out", str(out),
        ]) == 0
        lines = (out / "bic_trace.csv").read_text().splitlines()
        assert len(lines) == 10  # header plus one row per candidate pair
        report = json.loads((out / "report.json").read_text())
        assert 1 <= report["k_y"] <= 3 and 1 <= report["k_x"] <= 3

    def test_select_reports_chosen_predictors(self, tmp_path):
        sim = simulate(tmp_path)
        out = tmp_path / "selected"
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            "--select", "--fixed-k", "1", "--ky-max", "2", "--kx-max", "2",
            "--out", str(out),
        ]) == 0
        trace = (out / "selection_trace.csv").read_text().splitlines()
        assert len(trace) >= 3
        report = json.loads((out / "report.json").read_text())
        assert set(report["predictors"]) <= {1, 2}
        assert len(report["predictors"]) >= 1

    @pytest.mark.parametrize("flag", ["--tune", "--select"])
    def test_each_sample_is_decomposed_once(self, tmp_path, monkeypatch, flag):
        sim = simulate(tmp_path)
        calls = []

        def decompose(sample, k):
            calls.append(k)
            return fpc_decompose(sample, k)

        monkeypatch.setattr("fflqr.model.fpc_decompose", decompose)
        xs = [str(sim / f"X{m}_train.csv") for m in (1, 2, 4, 5)]
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"), "--x", *xs, flag,
            "--out", str(tmp_path / "f"),
        ]) == 0
        assert len(calls) == 1 + len(xs)

    def test_tune_solves_once(self, tmp_path, monkeypatch):
        # The saved fit is the truncation search's own solve: one stacked
        # call over the k_x designs, and no refit.
        sim = simulate(tmp_path)
        calls = []
        real = fflqr.qreg._fit_stack

        def fit_stack(designs, responses, taus):
            calls.append(len(designs))
            return real(designs, responses, taus)

        monkeypatch.setattr("fflqr.selection._fit_stack", fit_stack)
        monkeypatch.setattr("fflqr.model._fit_stack", fit_stack)
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            "--tune", "--ky-max", "3", "--kx-max", "4", "--out", str(tmp_path / "f"),
        ]) == 0
        assert calls == [4]

    @pytest.mark.parametrize("flag", ["--tune", "--select"])
    def test_matches_library_choice_and_fit(self, tmp_path, flag):
        sim = simulate(tmp_path)
        paths = [sim / f"X{m}_train.csv" for m in (1, 2, 4, 5)]
        out = tmp_path / "f"
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"), "--x", *map(str, paths), flag,
            "--tau", "0.7", "--ky-max", "4", "--kx-max", "3", "--out", str(out),
        ]) == 0
        Y, X = read_sample_csv(sim / "Y_train.csv"), [read_sample_csv(p) for p in paths]
        if flag == "--tune":
            k_y, k_x, trace = select_truncation(Y, X, 0.7, 4, 3)
            labels, name = (1, 2, 3, 4), "bic_trace.csv"
        else:
            sel = forward_select(Y, X, 0.7, k_y_max=4, k_x_max=3)
            k_y, k_x, trace = sel.chosen_k_y, sel.chosen_k_x, sel.bic_trace
            labels, name = sel.chosen_predictors, "selection_trace.csv"
        write_trace_csv(trace, tmp_path / "expected.csv")
        assert (out / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()
        report = json.loads((out / "report.json").read_text())
        assert (report["k_y"], report["k_x"], report["predictors"]) == (k_y, k_x, list(labels))
        X_fit = [X[i - 1] for i in labels]
        expected = fit_fflqr(Y, X_fit, 0.7, k_y, k_x, labels)
        got = load_model(out / "model.json")
        scale = np.abs(expected.coefs).max()
        np.testing.assert_allclose(got.coefs, expected.coefs, rtol=0, atol=1e-12 * scale)
        want = predict(expected, X_fit).values
        np.testing.assert_allclose(
            predict(got, X_fit).values, want, rtol=0, atol=1e-12 * np.abs(want).max()
        )

    def test_curve_count_mismatch_exits_3(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        short = tmp_path / "X4_short.csv"
        short.write_text("".join((sim / "X4_train.csv").read_text().splitlines(True)[:6]))
        code = main([
            "fit", "--y", str(sim / "Y_train.csv"), "--x", str(sim / "X2_train.csv"),
            str(short), "--ky", "2", "--kx", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 3
        assert "X4_short.csv holds 5 curves but" in capsys.readouterr().err

    def test_unsolved_problem_exits_4(self, tmp_path, monkeypatch, capsys):
        sim = simulate(tmp_path)
        monkeypatch.setattr("fflqr.qreg._MAX_ITER", 1)
        code = main([
            "fit", "--y", str(sim / "Y_train.csv"), "--x", str(sim / "X2_train.csv"),
            "--ky", "2", "--kx", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 4
        assert "numerical error: response column 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_curves_exit_2(self, tmp_path, capsys):
        # Finite curves of 1e200 overflow the covariance.
        sim = simulate(tmp_path)
        paths = []
        for name in ("Y_train", "X2_train"):
            sample = read_sample_csv(sim / f"{name}.csv")
            paths.append(tmp_path / f"{name}_1e200.csv")
            write_sample_csv(FunctionalSample(sample.values * 1e200, sample.grid), paths[-1])
        code = main([
            "fit", "--y", str(paths[0]), "--x", str(paths[1]),
            "--ky", "2", "--kx", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "covariance is not finite" in err

    def test_lapack_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        real = fflqr.fpca.dsyevr

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        sim = simulate(tmp_path)
        monkeypatch.setattr(fflqr.fpca, "dsyevr", failing)
        code = main([
            "fit", "--y", str(sim / "Y_train.csv"), "--x", str(sim / "X2_train.csv"),
            "--ky", "2", "--kx", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 2
        assert "config error: dsyevr failed with info = 1" in capsys.readouterr().err

    def test_select_caps_truncation_maxima(self, tmp_path):
        # 120 curves on 100 grid points: the grid size caps --ky-max 300.
        sim = simulate(tmp_path, n_train=120, n_grid=100)
        out = tmp_path / "f"
        assert main([
            "fit", "--y", str(sim / "Y_train.csv"),
            "--x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            "--select", "--ky-max", "300", "--kx-max", "2", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 1 <= report["k_y"] <= 100 and 1 <= report["k_x"] <= 2
        trace = (out / "selection_trace.csv").read_text().splitlines()
        assert sum(row.startswith("truncation,") for row in trace) == 100 * 2


class TestPredict:
    def test_round_trips_saved_model(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        out = tmp_path / "pred"
        assert main([
            "predict", "--model", str(fitted / "model.json"),
            "--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv"),
            "--out", str(out),
        ]) == 0
        got = read_sample_csv(out / "Y_pred.csv")
        fit = load_model(fitted / "model.json")
        X = [read_sample_csv(sim / "X2_test.csv"), read_sample_csv(sim / "X4_test.csv")]
        np.testing.assert_array_equal(got.values, predict(fit, X).values)

    def test_wrong_predictor_count_exits_3(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        code = main([
            "predict", "--model", str(fitted / "model.json"),
            "--x", str(sim / "X2_test.csv"),
            "--out", str(tmp_path / "p"),
        ])
        assert code == 3

    def test_short_predictor_file_is_named(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        short = tmp_path / "X4_short.csv"
        short.write_text("".join((sim / "X4_test.csv").read_text().splitlines(True)[:4]))
        code = main([
            "predict", "--model", str(fitted / "model.json"),
            "--x", str(sim / "X2_test.csv"), str(short),
            "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        assert "predictor sample 2 has 3 curves, sample 1 has 10" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "interval"])
    @pytest.mark.parametrize("corrupt", [
        lambda doc: json.dumps(doc)[:-20],
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "coefficients"}),
        lambda doc: json.dumps({**doc, "coefficients": doc["coefficients"][:-1]}),
        lambda doc: json.dumps({
            **doc, "predictor_bases": [], "predictor_indices": [],
            "coefficients": doc["coefficients"][:1],
        }),
        lambda doc: json.dumps({**doc, "predictor_bases": [
            {**doc["predictor_bases"][0], "mean": None}, *doc["predictor_bases"][1:]
        ]}),
        lambda doc: json.dumps({**doc, "coefficients": [
            [None] * len(row) for row in doc["coefficients"]
        ]}),
        *(
            lambda doc, labels=labels: json.dumps({**doc, "predictor_indices": labels})
            for labels in ("ab", [0, 1], [1.5, 2], [True, 2], [1, 1])
        ),
        # the last predictor basis cut to one component, with its coefficient row
        lambda doc: json.dumps({
            **doc, "coefficients": doc["coefficients"][:-1], "predictor_bases": [
                *doc["predictor_bases"][:-1],
                {**doc["predictor_bases"][-1],
                 "eigenfunctions": doc["predictor_bases"][-1]["eigenfunctions"][:1],
                 "eigenvalues": doc["predictor_bases"][-1]["eigenvalues"][:1]},
            ],
        }),
        *(lambda doc, tau=tau: json.dumps({**doc, "tau": tau}) for tau in (1.5, True, "0.5")),
        # JSON reads NaN as a nan and 1e400 as an inf
        *(lambda doc, value=value: json.dumps({**doc, "coefficients": [
            ["first", *doc["coefficients"][0][1:]], *doc["coefficients"][1:]
        ]}).replace('"first"', value) for value in ("NaN", "1e400")),
    ], ids=["truncated-json", "no-coefficients", "wrong-shape", "no-predictor-bases",
            "null-mean", "null-coefficients", "string-labels", "zero-label",
            "float-label", "bool-label", "repeated-label", "unequal-widths",
            "tau-above-1", "bool-tau", "string-tau", "nan-coefficient", "inf-coefficient"])
    def test_corrupt_model_exits_3(self, tmp_path, capsys, command, corrupt):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        model = tmp_path / "corrupt.json"
        model.write_text(corrupt(json.loads((fitted / "model.json").read_text())))
        train = []
        if command == "interval":
            train = [
                "--train-y", str(sim / "Y_train.csv"),
                "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            ]
        code = main([
            command, "--model", str(model),
            "--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv"), *train,
            "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        assert f"model {model} is malformed" in capsys.readouterr().err


class TestInterval:
    def interval(self, tmp_path, sim, fitted, name, alpha, extra=()):
        out = tmp_path / name
        assert main([
            "interval", "--model", str(fitted / "model.json"),
            "--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv"),
            "--train-y", str(sim / "Y_train.csv"),
            "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            "--alpha", str(alpha), "--R", "8", "--seed", "3", *extra,
            "--out", str(out),
        ]) == 0
        return out

    def test_bootstrap_band_outputs(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        out = self.interval(tmp_path, sim, fitted, "band", 0.2)
        lower = read_sample_csv(out / "lower.csv")
        upper = read_sample_csv(out / "upper.csv")
        pred = read_sample_csv(out / "Y_pred.csv")
        assert lower.values.shape == pred.values.shape
        assert np.all(lower.values <= upper.values)
        meta = json.loads((out / "band.json").read_text())
        assert meta["method"] == "bootstrap"
        assert meta["R"] == 8 and meta["seed"] == 3
        assert meta["crossing_rate"] == 0.0
        assert meta["failed_refits"] == 0

    def test_same_seed_is_byte_identical(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        a = self.interval(tmp_path, sim, fitted, "a", 0.2)
        b = self.interval(tmp_path, sim, fitted, "b", 0.2)
        assert (a / "lower.csv").read_bytes() == (b / "lower.csv").read_bytes()
        assert (a / "upper.csv").read_bytes() == (b / "upper.csv").read_bytes()

    def test_wider_alpha_nests(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        wide = self.interval(tmp_path, sim, fitted, "wide", 0.05)
        narrow = self.interval(tmp_path, sim, fitted, "narrow", 0.2)
        wl = read_sample_csv(wide / "lower.csv").values
        wu = read_sample_csv(wide / "upper.csv").values
        nl = read_sample_csv(narrow / "lower.csv").values
        nu = read_sample_csv(narrow / "upper.csv").values
        assert np.all(wl <= nl + 1e-12)
        assert np.all(nu <= wu + 1e-12)

    def test_direct_band(self, tmp_path):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        out = self.interval(tmp_path, sim, fitted, "direct", 0.2,
                            extra=("--method", "direct"))
        meta = json.loads((out / "band.json").read_text())
        assert meta["method"] == "direct"
        assert meta["R"] is None and meta["seed"] is None
        assert json.loads((out / "manifest.json").read_text())["master_seed"] is None
        assert 0.0 <= meta["crossing_rate"] <= 1.0

    def test_predictors_on_another_grid_exit_3(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        other = simulate(tmp_path, name="other", n_grid=20)
        code = main([
            "interval", "--model", str(fitted / "model.json"),
            "--x", str(other / "X2_test.csv"), str(other / "X4_test.csv"),
            "--train-y", str(sim / "Y_train.csv"),
            "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
            "--R", "8", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "grid does not match" in capsys.readouterr().err

    def test_least_squares_model_exits_2(self, tmp_path):
        sim = simulate(tmp_path)
        Y = read_sample_csv(sim / "Y_train.csv")
        X = [read_sample_csv(sim / "X2_train.csv")]
        for ls in (fit_fpc_ls(Y, X, 2, 2), fit_bspline_ls(Y, X)):
            model_path = tmp_path / f"{ls.method}_model.json"
            save_model(ls, model_path)
            code = main([
                "interval", "--model", str(model_path),
                "--x", str(sim / "X2_test.csv"),
                "--train-y", str(sim / "Y_train.csv"),
                "--train-x", str(sim / "X2_train.csv"),
                "--out", str(tmp_path / "band"),
            ])
            assert code == 2, ls.method


class TestBenchmark:
    def run_benchmark(self, tmp_path, name, extra=()):
        cfg = write_config(tmp_path)
        out = tmp_path / name
        assert main([
            "benchmark", "--config", str(cfg),
            "--methods", "fflqr,fpc-ls", "--models", "true", *extra,
            "--out", str(out),
        ]) == 0
        return out

    def test_row_counts(self, tmp_path):
        out = self.run_benchmark(tmp_path, "bench")
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "seed,replicate,method,model,scenario,mspe,cpd,score"
        assert len(results) == 1 + 2 * 2  # two replicates, two methods
        long = (out / "long.csv").read_text().splitlines()
        assert len(long) == 1 + 4  # mspe only, no band requested

    def test_summary_medians_match_results(self, tmp_path):
        # Without a band only mspe is reported; --alpha adds the cpd and
        # score metrics and the paired-quantile (fflqr-direct) rows.
        with_band = {
            (method, metric)
            for method in ("fflqr", "fpc-ls", "fflqr-direct")
            for metric in ("mspe", "cpd", "score")
        }
        for name, extra, expected in (
            ("bench", (), {("fflqr", "mspe"), ("fpc-ls", "mspe")}),
            ("band", ("--alpha", "0.2"), with_band),
        ):
            out = self.run_benchmark(tmp_path, name, extra=extra)
            results = (out / "results.csv").read_text().splitlines()
            metrics = results[0].split(",")[5:]
            by_key, long_expected = {}, []
            for line in results[1:]:
                parts = line.split(",")
                for metric, value in zip(metrics, parts[5:]):
                    if value:
                        by_key.setdefault((parts[2], metric), []).append(float(value))
                        long_expected.append(",".join([*parts[:5], metric, value]))
            long = (out / "long.csv").read_text().splitlines()
            assert long[0] == "seed,replicate,method,model,scenario,metric,value"
            assert long[1:] == long_expected
            summary = (out / "summary.csv").read_text().splitlines()
            assert summary[0] == "method,model,metric,median,iqr,n"
            seen = set()
            for line in summary[1:]:
                method, model, metric, median, iqr, n = line.split(",")
                assert model == "true"
                values = np.array(by_key[method, metric])
                assert float(median) == pytest.approx(np.median(values), rel=1e-12)
                expected_iqr = np.quantile(values, 0.75) - np.quantile(values, 0.25)
                assert float(iqr) == pytest.approx(expected_iqr, rel=1e-12)
                assert int(n) == len(values)
                seen.add((method, metric))
            assert seen == set(by_key) == expected

    def test_thread_count_keeps_bytes_identical(self, tmp_path):
        a = self.run_benchmark(tmp_path, "t1", extra=("--threads", "1"))
        b = self.run_benchmark(tmp_path, "t2", extra=("--threads", "2"))
        for name in ("results.csv", "summary.csv", "long.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_method_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main([
            "benchmark", "--config", str(cfg), "--methods", "nope",
            "--out", str(tmp_path / "b"),
        ])
        assert code == 2

    def test_zero_threads_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        args = ["benchmark", "--config", str(cfg), "--out", str(tmp_path / "b")]
        assert main([*args, "--threads", "0"]) == 2

    def test_failed_replicates_are_recorded(self, tmp_path, monkeypatch):
        real = sim_mod._replicate_reports

        def fail_replicate_1(config, replicate, *rest):
            # a generator function, as the real one is: replicate 1 raises on its first step
            if replicate == 1:
                raise NumericalError("replicate 1 failed")
            return (yield from real(config, replicate, *rest))

        monkeypatch.setattr(sim_mod, "_replicate_reports", fail_replicate_1)
        out = self.run_benchmark(tmp_path, "bench", extra=("--replicates", "5"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_replicates"] == [1]
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert summary and all(line.split(",")[-1] == "4" for line in summary)


    @pytest.mark.parametrize("interpreter_flags", [(), ("-X", "frozen_modules=off")],
                             ids=["frozen-runpy", "source-runpy"])
    def test_rank_warning_under_python_m_names_a_package_line(self, tmp_path, interpreter_flags):
        # under `python -m` only runpy calls into the package; the warning
        # names the outermost package line, never runpy's, whether runpy is
        # frozen or loaded from runpy.py as on Python 3.10
        src = Path(fflqr.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, *interpreter_flags, "-W", "always", "-m", "fflqr.cli", "benchmark",
             "--n-train", "16", "--models", "true", "--replicates", "1",
             "--methods", "bspline-ls", "--out", str(tmp_path / "bench")],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "RankDeficiencyWarning" in line]
        assert warned
        for line in warned:
            assert line.startswith(str(src / "fflqr" / "cli.py") + ":"), line


class TestBadValueExitCodes:
    @pytest.mark.parametrize("command, flags, code", [
        ("interval", ["--R", "1"], 2),
        ("interval", ["--alpha", "1.5"], 2),
        ("interval", ["--alpha", "0"], 2),
        ("interval", ["--alpha", "1.5", "--method", "direct"], 2),
        ("interval", ["--alpha", "0", "--method", "direct"], 2),
        ("interval", ["--train-x", "X2_train.csv"], 3),
        ("interval", ["--train-x", "X2_train.csv", "--method", "direct"], 3),
        ("benchmark", ["--alpha", "1.5"], 2),
        ("benchmark", ["--n-train", "2"], 2),
        ("interval", ["--seed", "-1"], 2),
    ], ids=[
        "interval-R-1", "bootstrap-alpha-1.5", "bootstrap-alpha-0",
        "direct-alpha-1.5", "direct-alpha-0", "bootstrap-train-x-count",
        "direct-train-x-count", "benchmark-alpha-1.5", "benchmark-n-train-2",
        "bootstrap-seed-negative",
    ])
    def test_exit_code(self, tmp_path, command, flags, code):
        if command == "interval":
            sim = simulate(tmp_path)
            fitted = fit_dir(tmp_path, sim)
            args = [
                "--model", str(fitted / "model.json"),
                "--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv"),
                "--train-y", str(sim / "Y_train.csv"),
                "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
                "--R", "8",
            ]
            flags = [str(sim / f) if f.endswith(".csv") else f for f in flags]
        else:
            cfg = write_config(tmp_path)
            args = ["--config", str(cfg), "--methods", "fflqr", "--models", "true"]
        assert main([command, *args, *flags, "--out", str(tmp_path / "o")]) == code

    def test_non_utf8_curve_csv_exits_3(self, tmp_path, capsys):
        y = tmp_path / "y.csv"
        y.write_bytes(b"0,0.5,1\n1,2,\xff\n")
        code = main([
            "fit", "--y", str(y), "--x", str(y), "--ky", "1", "--kx", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "y.csv: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"n_train": 30}\xff')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "c.json is not UTF-8" in capsys.readouterr().err

    def test_byte_order_mark_config_reads_as_plain(self, tmp_path):
        plain = write_config(tmp_path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for cfg, out in ((plain, "a"), (bom, "b")):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        for name in ("Y_train.csv", "X3_test.csv", "truth.json"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_benchmark_design_wider_than_sample_exits_2(self, tmp_path, capsys):
        # The full model's widest design has 1 + 5 * 5 = 26 columns.
        code = main(["benchmark", "--n-train", "20", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "26 design columns" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"n_train": 30,', "is not valid JSON"),
        ("[30, 10]", "must be an object"),
    ], ids=["invalid-json", "json-list"])
    def test_benchmark_config_not_an_object_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_scenario_with_comma_exits_2(self, tmp_path, capsys):
        # an unquoted comma would give its study-table rows one field too many
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "heavy tails, 10% outliers"}))
        out = tmp_path / "b"
        code = main([
            "benchmark", "--config", str(cfg), "--n-train", "40", "--n-test", "10",
            "--replicates", "1", "--models", "true", "--methods", "fflqr", "--out", str(out),
        ])
        assert code == 2
        assert "scenario must hold no comma" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_benchmark_value_error_exits_2(self, tmp_path, monkeypatch):
        def too_wide(*args, **kwargs):
            raise ValueError("need at least as many rows as columns (10 < 13)")

        monkeypatch.setattr("fflqr.cli.run_monte_carlo", too_wide)
        cfg = write_config(tmp_path)
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_grid_exits_3(self, tmp_path, capsys):
        sim = simulate(tmp_path)
        y = tmp_path / "Y_inf.csv"
        _, *curves = (sim / "Y_train.csv").read_text().splitlines(True)
        grid = ",".join([*(str(j / 23) for j in range(24)), "inf"])
        y.write_text(grid + "\n" + "".join(curves))
        code = main([
            "fit", "--y", str(y), "--x", str(sim / "X2_train.csv"),
            "--ky", "2", "--kx", "2", "--out", str(tmp_path / "f"),
        ])
        assert code == 3
        assert "grid points must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("n_train", 1), ("n_test", 0), ("n_grid", 1), ("M", 0), ("lag", -1),
        ("sigma", -1), ("outlier_var", -1), ("fixed_k", 0), ("k_y_max", 0),
        ("k_x_max", 0), ("bootstrap_R", 1),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {**doc, "kind": "spline"},
        lambda doc: {**doc, "response_basis": {
            **doc["response_basis"],
            "eigenvalues": [float("nan"), *doc["response_basis"]["eigenvalues"][1:]],
        }},
    ], ids=["unknown-kind", "nan-eigenvalue"])
    def test_bad_model_exits_3(self, tmp_path, capsys, corrupt):
        sim = simulate(tmp_path)
        fitted = fit_dir(tmp_path, sim)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(corrupt(json.loads((fitted / "model.json").read_text()))))
        capsys.readouterr()
        code = main([
            "predict", "--model", str(model),
            "--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv"),
            "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err

    # A ValueError from any call a command makes, not only from the fitting
    # layers, takes the command's kind, and no manifest is written.
    @pytest.mark.parametrize("command, target, code, kind", [
        ("simulate", "generate_dataset", 2, "config"),
        ("fit", "score_objective", 2, "config"),
        ("predict", "write_sample_csv", 3, "data"),
        ("interval", "write_sample_csv", 3, "data"),
        ("benchmark", "write_study_tables", 2, "config"),
    ])
    def test_stray_value_error_takes_command_kind(
        self, tmp_path, monkeypatch, capsys, command, target, code, kind
    ):
        sim = simulate(tmp_path)
        cfg = str(tmp_path / "config.json")
        model = str(fit_dir(tmp_path, sim) / "model.json")
        x_test = ["--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv")]
        args = {
            "simulate": ["--config", cfg],
            "fit": ["--y", str(sim / "Y_train.csv"), "--x", str(sim / "X2_train.csv"),
                    "--ky", "2", "--kx", "2"],
            "predict": ["--model", model, *x_test],
            "interval": ["--model", model, *x_test, "--train-y", str(sim / "Y_train.csv"),
                         "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
                         "--method", "direct"],
            "benchmark": ["--config", cfg, "--methods", "fflqr", "--models", "true"],
        }[command]

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(f"fflqr.cli.{target}", boom)
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, *args, "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == [f"{kind} error: boom"]
        assert not (out / "manifest.json").exists()


class TestManifest:
    KEYS = ["command", "config", "inputs", "outputs", "master_seed", "version",
            "started", "finished"]

    def test_every_command_writes_its_manifest(self, tmp_path):
        sim = simulate(tmp_path, "data")
        fit = fit_dir(tmp_path, sim)
        y = ["--y", str(sim / "Y_train.csv")]
        x_test = ["--x", str(sim / "X2_test.csv"), str(sim / "X4_test.csv")]
        train = ["--train-y", str(sim / "Y_train.csv"),
                 "--train-x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv")]
        runs = {
            "tune": ["fit", *y, "--x", str(sim / "X2_train.csv"), "--tune",
                     "--ky-max", "2", "--kx-max", "2"],
            "select": ["fit", *y, "--x", str(sim / "X2_train.csv"), str(sim / "X4_train.csv"),
                       "--select", "--fixed-k", "1", "--ky-max", "2", "--kx-max", "2"],
            "pred": ["predict", "--model", str(fit / "model.json"), *x_test],
            "boot": ["interval", "--model", str(fit / "model.json"), *x_test, *train,
                     "--R", "4"],
            "band": ["interval", "--model", str(fit / "model.json"), *x_test, *train,
                     "--method", "direct"],
            "bench": ["benchmark", "--config", str(write_config(tmp_path)),
                      "--methods", "fflqr", "--models", "true"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
        commands = {"data": "simulate", "fit": "fit", **{n: a[0] for n, a in runs.items()}}
        for name, command in commands.items():
            out = tmp_path / name
            doc = json.loads((out / "manifest.json").read_text())
            extra = ["failed_replicates"] if command == "benchmark" else []
            assert list(doc) == self.KEYS + extra, name
            assert doc["command"] == command
            assert doc["outputs"] and all((out / f).exists() for f in doc["outputs"]), name
