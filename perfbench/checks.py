"""Output checks of the benchmark, written with numpy and scipy only.

Each check returns a list of problems; an empty list means the outputs
have the property. Nothing here compares against a stored copy of earlier
output: the references are the check-loss LP solved by HiGHS, properties
the estimator must have, and plain-numpy recomputations from saved models.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Relative distance allowed between a fitted check-loss objective and the
# HiGHS optimum on the same design; both solvers stop near 1e-9.
LP_RTOL = 1e-6
# Residuals within this share of max|y| count as zero in the quantile check.
RESID_ZERO_RTOL = 1e-7
# Orthonormality of eigenfunctions under the quadrature weights.
ORTHO_ATOL = 1e-8
# Plain-numpy prediction against the CLI's Y_pred.csv, relative to max|Y|.
PRED_RTOL = 1e-10
# Slack for nested bands, relative to the band scale.
NEST_RTOL = 1e-12


def check_loss(u, tau):
    u = np.asarray(u, dtype=float)
    return u * (tau - (u < 0))


def highs_check_loss_min(X, y, tau) -> float:
    """Minimum of sum rho_tau(y - X b) via the primal LP, solved by HiGHS.

    Variables are (b, u+, u-) with X b + u+ - u- = y and u+, u- >= 0; the
    constraint matrix is sparse so tall designs stay cheap.
    """
    n, q = X.shape
    c = np.concatenate([np.zeros(q), np.full(n, tau), np.full(n, 1.0 - tau)])
    eye = sp.identity(n, format="csr")
    A = sp.hstack([sp.csr_matrix(X), eye, -eye], format="csr")
    bounds = [(None, None)] * q + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_lp_fit(design, responses, tau, coefs, objectives=None, label="fit") -> list:
    """LP optimality and the quantile property of a score-space fit.

    ``coefs`` has one column per response column. When ``objectives`` is
    given (the program's own report), it must match the objective at
    ``coefs`` as well as the HiGHS optimum.
    """
    problems = []
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float).reshape(design.shape[0], -1)
    coefs = np.asarray(coefs, dtype=float).reshape(design.shape[1], -1)
    has_intercept = bool(np.all(design[:, 0] == 1.0))
    for k in range(responses.shape[1]):
        y = responses[:, k]
        resid = y - design @ coefs[:, k]
        got = float(np.sum(check_loss(resid, tau)))
        best = highs_check_loss_min(design, y, tau)
        if abs(got - best) > LP_RTOL * max(1.0, abs(best)):
            problems.append(
                f"{label} column {k}: check loss {got!r} is not the HiGHS optimum {best!r}"
            )
        if objectives is not None:
            rep = float(objectives[k])
            if abs(rep - got) > LP_RTOL * max(1.0, abs(got)):
                problems.append(
                    f"{label} column {k}: reported objective {rep!r} != {got!r} at the coefficients"
                )
        if has_intercept:
            zero = RESID_ZERO_RTOL * max(1.0, float(np.max(np.abs(y))))
            neg = float(np.mean(resid < -zero))
            nonpos = float(np.mean(resid <= zero))
            if not neg <= tau <= nonpos:
                problems.append(
                    f"{label} column {k}: negative share {neg} <= tau {tau} <= "
                    f"non-positive share {nonpos} fails"
                )
    return problems


def check_fpca(eigenfunctions, eigenvalues, weights, label="basis") -> list:
    """Orthonormal eigenfunctions under the weights; eigenvalues >= 0, non-increasing."""
    problems = []
    E = np.asarray(eigenfunctions, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    gram = (E * np.asarray(weights, dtype=float)) @ E.T
    err = float(np.max(np.abs(gram - np.eye(E.shape[0]))))
    if not err <= ORTHO_ATOL:
        problems.append(f"{label}: eigenfunctions off orthonormal by {err:.3g}")
    if np.any(lam < 0) or np.any(np.diff(lam) > 0):
        problems.append(f"{label}: eigenvalues {lam.tolist()} not non-negative and non-increasing")
    return problems


def check_fpc_scores(values, weights, eigenfunctions, mean, scores, label="basis") -> list:
    """Scores are the quadrature projections of the centred curves."""
    values = np.asarray(values, dtype=float)
    expected = (values - mean) @ (np.asarray(eigenfunctions) * weights).T
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(expected - scores)))
    if not err <= 1e-9 * scale:
        return [f"{label}: scores differ from the projections by {err:.3g}"]
    return []


def bic_argmin(entries):
    """(k_y, k_x) minimising (bic, k_y + k_x, k_y) over finite BIC entries."""
    best = None
    for k_y, k_x, bic in entries:
        if not math.isfinite(bic):
            continue
        key = (bic, k_y + k_x, k_y)
        if best is None or key < best[0]:
            best = (key, (k_y, k_x))
    return None if best is None else best[1]


def check_bic_choice(chosen, entries, accepted=None, label="truncation") -> list:
    """The chosen pair is the argmin of the trace under the documented tie rule.

    ``entries`` are (k_y, k_x, bic); ``accepted`` the matching flags, when
    the trace marks the chosen entry.
    """
    want = bic_argmin(entries)
    problems = []
    if tuple(chosen) != want:
        problems.append(f"{label}: chose {tuple(chosen)} but the BIC argmin is {want}")
    if accepted is not None:
        marked = [(ky, kx) for (ky, kx, _), a in zip(entries, accepted) if a]
        if marked != [want]:
            problems.append(f"{label}: trace marks {marked}, expected [{want}]")
    return problems


def read_curves(path):
    """Grid points and curve values of a wide curve CSV, parsed by numpy."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return arr[0], arr[1:]


def _basis(obj):
    return (
        np.array(obj["mean"]),
        np.array(obj["eigenfunctions"]),
        np.array(obj["eigenvalues"]),
        np.array(obj["grid"]["weights"]),
    )


def model_scores(model, y_path, x_paths):
    """Response scores and the intercept-plus-scores design, from model.json."""
    def project(basis, path):
        mean, E, _, w = _basis(basis)
        return (read_curves(path)[1] - mean) @ (E * w).T

    xi = None if y_path is None else project(model["response_basis"], y_path)
    blocks = [project(b, p) for b, p in zip(model["predictor_bases"], x_paths)]
    n = blocks[0].shape[0]
    return xi, np.hstack([np.ones((n, 1))] + blocks)


def check_cli_fit(out_dir, y_path, x_paths) -> list:
    """``fflqr fit`` outputs: LP optimality, quantile property, FPCA, BIC choice."""
    with open(out_dir / "model.json", encoding="utf-8") as fh:
        model = json.load(fh)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for name, basis in [("response", model["response_basis"])] + [
        (f"predictor {i}", b) for i, b in enumerate(model["predictor_bases"], 1)
    ]:
        _, E, lam, w = _basis(basis)
        problems += check_fpca(E, lam, w, f"model.json {name} basis")
    xi, design = model_scores(model, y_path, x_paths)
    problems += check_lp_fit(
        design, xi, float(model["tau"]), np.array(model["coefficients"]),
        report["in_sample_objective"], "fit",
    )
    with open(out_dir / "bic_trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    entries = [
        (int(r["K_Y"]), int(r["K_X"]), float(r["BIC"]) if r["BIC"] else math.nan)
        for r in rows
    ]
    problems += check_bic_choice(
        (report["k_y"], report["k_x"]), entries,
        [r["accepted"] == "true" for r in rows], "fit --tune",
    )
    return problems


def check_cli_predict(model_path, x_paths, pred_path) -> list:
    """Y_pred.csv equals mean + projected scores . coefficients . eigenfunctions."""
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    _, design = model_scores(model, None, x_paths)
    mean_y, E_y, _, _ = _basis(model["response_basis"])
    expected = mean_y + design @ np.array(model["coefficients"]) @ E_y
    _, got = read_curves(pred_path)
    if got.shape != expected.shape:
        return [f"Y_pred.csv has shape {got.shape}, expected {expected.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(got - expected)))
    if not err <= PRED_RTOL * scale:
        return [f"Y_pred.csv differs from the plain-numpy prediction by {err:.3g}"]
    return []


def check_band(lower, upper, shape, label) -> list:
    lower, upper = np.asarray(lower), np.asarray(upper)
    problems = []
    if lower.shape != shape or upper.shape != shape:
        problems.append(f"{label}: shape {lower.shape}/{upper.shape}, expected {shape}")
    elif not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        problems.append(f"{label}: non-finite bounds")
    elif np.any(lower > upper):
        problems.append(f"{label}: lower exceeds upper at {int(np.sum(lower > upper))} points")
    return problems


def check_nested(inner, outer, label) -> list:
    """The ``inner`` (lower, upper) band lies inside the ``outer`` band."""
    scale = max(1.0, float(np.max(np.abs(outer[1]))), float(np.max(np.abs(outer[0]))))
    tol = NEST_RTOL * scale
    if np.all(outer[0] <= inner[0] + tol) and np.all(inner[1] <= outer[1] + tol):
        return []
    return [f"{label}: narrower band is not inside the wider band"]


def check_mc_results(results_path, summary_path, replicates, methods, models) -> list:
    """Every (replicate, method, model) row present once with finite, positive
    MSPE, and the summary's MSPE medians and counts agree with the rows."""
    with open(results_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    keys = [(int(r["replicate"]), r["method"], r["model"]) for r in rows]
    want = {(rep, me, mo) for rep in replicates for me in methods for mo in models}
    if len(keys) != len(set(keys)) or set(keys) != want:
        problems.append(
            f"results.csv rows {sorted(set(keys) ^ want)[:5]} missing or unexpected"
        )
    by_group = {}
    for r in rows:
        v = float(r["mspe"])
        if not (math.isfinite(v) and v > 0):
            problems.append(f"results.csv: MSPE {r['mspe']!r} is not finite and positive")
        by_group.setdefault((r["method"], r["model"]), []).append(v)
    with open(summary_path, encoding="utf-8", newline="") as fh:
        summary = [s for s in csv.DictReader(fh) if s["metric"] == "mspe"]
    seen = set()
    for s in summary:
        group = by_group.get((s["method"], s["model"]), [])
        seen.add((s["method"], s["model"]))
        med = float(np.median(group)) if group else math.nan
        if int(s["n"]) != len(group) or not math.isclose(float(s["median"]), med, rel_tol=1e-12):
            problems.append(f"summary.csv {s['method']}/{s['model']} disagrees with results.csv")
    if seen != set(by_group):
        problems.append("summary.csv does not cover every (method, model) group")
    return problems
