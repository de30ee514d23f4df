"""Tests of the benchmark itself: every workload and check in quick mode,
and the checks' ability to reject broken outputs."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from fflqr.qreg import qr_fit_multi

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes") or m["name"].endswith("unique_share")]


def run_bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_complete(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        proc = run_bench("mc-study", 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert runs[0]["fpca.fpc_decompose.calls"]["value"] > 0
    assert {n: runs[0][n]["value"] for n in COUNTS} == {n: runs[1][n]["value"] for n in COUNTS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("bands", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _qr_problem(seed=0, n=60, tau=0.7):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    Y = X @ rng.normal(size=(3, 2)) + rng.chisquare(1.0, size=(n, 2))
    return X, Y, tau


def test_lp_check_accepts_optimum_and_rejects_perturbation():
    X, Y, tau = _qr_problem()
    fit = qr_fit_multi(X, Y, tau)
    coefs = np.asarray(getattr(fit, "coefficients", fit))
    assert checks.check_lp_fit(X, Y, tau, coefs) == []
    bad = coefs.copy()
    bad[0, 1] += 0.05
    problems = checks.check_lp_fit(X, Y, tau, bad)
    assert any("HiGHS" in p for p in problems)
    assert any("negative share" in p for p in problems)
    objectives = checks.check_loss(Y - X @ coefs, tau).sum(axis=0) * (1 + 1e-4)
    assert any("reported objective" in p for p in checks.check_lp_fit(X, Y, tau, coefs, objectives))


def test_fpca_and_prediction_checks_reject_broken_outputs(tmp_path):
    w = np.full(5, 0.25)
    w[[0, -1]] = 0.125
    E = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 2)))[0].T / np.sqrt(w)
    assert checks.check_fpca(E, [2.0, 1.0], w) == []
    assert checks.check_fpca(E * 1.01, [2.0, 1.0], w)
    assert checks.check_fpca(E, [1.0, 2.0], w)

    grid = {"points": np.linspace(0, 1, 5).tolist(), "weights": w.tolist()}
    basis = {"grid": grid, "mean": [0.5] * 5, "eigenfunctions": E.tolist(), "eigenvalues": [2.0, 1.0]}
    model = {"response_basis": basis, "predictor_bases": [basis], "coefficients": [[1.0, 0.0], [0.2, 0.1], [0.0, 0.3]]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    x = np.random.default_rng(2).normal(size=(4, 5))
    np.savetxt(tmp_path / "x.csv", np.vstack([grid["points"], x]), delimiter=",", fmt="%.17g")
    _, design = checks.model_scores(model, None, [tmp_path / "x.csv"])
    y = 0.5 + design @ np.array(model["coefficients"]) @ E
    np.savetxt(tmp_path / "y.csv", np.vstack([grid["points"], y]), delimiter=",", fmt="%.17g")
    args = (tmp_path / "model.json", [tmp_path / "x.csv"], tmp_path / "y.csv")
    assert checks.check_cli_predict(*args) == []
    y[1, 2] += 1e-6
    np.savetxt(tmp_path / "y.csv", np.vstack([grid["points"], y]), delimiter=",", fmt="%.17g")
    assert checks.check_cli_predict(*args)


def test_bic_band_and_row_checks_reject_broken_outputs(tmp_path):
    entries = [(1, 1, 3.0), (1, 2, 2.0), (2, 1, 2.0), (2, 2, math.nan)]
    assert checks.check_bic_choice((1, 2), entries, [False, True, False, False]) == []
    assert checks.check_bic_choice((2, 1), entries)
    assert checks.check_bic_choice((1, 2), entries, [False, True, True, False])

    lo, hi = np.zeros((2, 3)), np.ones((2, 3))
    assert checks.check_band(lo, hi, (2, 3), "b") == []
    assert checks.check_band(hi, lo, (2, 3), "b")
    assert checks.check_nested((lo + 0.1, hi - 0.1), (lo, hi), "n") == []
    assert checks.check_nested((lo - 0.1, hi), (lo, hi), "n")

    header = "seed,replicate,method,model,scenario,mspe,cpd,score\n"
    rows = [f"0,0,{me},{mo},s,{1.5 + i},," for i, (me, mo) in enumerate(
        [(me, mo) for me in ("a", "b") for mo in ("x",)])]
    (tmp_path / "r.csv").write_text(header + "\n".join(rows) + "\n")
    (tmp_path / "s.csv").write_text(
        "method,model,metric,median,iqr,n\na,x,mspe,1.5,0,1\nb,x,mspe,2.5,0,1\n"
    )
    args = (tmp_path / "r.csv", tmp_path / "s.csv")
    assert checks.check_mc_results(*args, [0], ("a", "b"), ("x",)) == []
    assert checks.check_mc_results(*args, [0], ("a", "b", "c"), ("x",))
    (tmp_path / "r.csv").write_text(header + rows[0] + "\n" + rows[1].replace("2.5", "nan") + "\n")
    assert checks.check_mc_results(*args, [0], ("a", "b"), ("x",))
