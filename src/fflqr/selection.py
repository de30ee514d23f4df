"""BIC-driven truncation tuning and forward stepwise predictor selection."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .fdata import FunctionalSample
from .fpca import _leading
from .model import FflqrFit, _decompose, _design, _unwrap, fit_fflqr, predict
from .qreg import _column_failure, _fit_stack, check_loss

__all__ = [
    "BicTraceEntry",
    "SelectionResult",
    "log_loss_norm",
    "bic_truncation",
    "select_truncation",
    "bic_candidate",
    "forward_select",
    "write_trace_csv",
]

# Pointwise loss floor applied before taking logs; keeps perfect in-sample
# fits finite without disturbing the ordering of non-degenerate candidates.
_LOSS_FLOOR = 1e-300

# A forward stage is accepted only if it lowers the BIC by more than this
# share of |previous|. Spelled 1.0 - 0.95, not 0.05: the two are different
# doubles, and the comparison is exact.
_STAGE_DROP = 1.0 - 0.95


@dataclass(frozen=True)
class BicTraceEntry:
    """One evaluated candidate in a selection run."""

    stage: str
    candidate: str
    k_y: int
    k_x: int
    bic: float
    accepted: bool
    note: str = ""


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of predictor and truncation selection.

    Parameters
    ----------
    chosen_k_y, chosen_k_x : int
        Truncation constants picked for the final model.
    chosen_predictors : tuple of int
        Selected predictor labels in the order they were accepted.
    bic_trace : tuple of BicTraceEntry
        Every candidate evaluated, in evaluation order.
    """

    chosen_k_y: int
    chosen_k_x: int
    chosen_predictors: tuple
    bic_trace: tuple = field(default_factory=tuple)


def log_loss_norm(Y: FunctionalSample, fitted: FunctionalSample, tau: float) -> float:
    """Quadrature L2 norm of the log pointwise check loss.

    The pointwise loss ``L(t_j) = sum_i rho_tau(Y_i(t_j) - fitted_i(t_j))``
    is floored at a tiny positive value before the log so that perfect fits
    stay finite.
    """
    loss_t = check_loss(Y.values - fitted.values, tau).sum(axis=0)
    log_loss = np.log(np.maximum(loss_t, _LOSS_FLOOR))
    return float(np.sqrt(np.sum(Y.grid.weights * log_loss**2)))


def _losses(Y: FunctionalSample, dec, candidates, tau: float, ks):
    """Generator scoring ``(D, k_x)`` candidates, predictor positions ``D``
    at ``k_x``, in one stacked solve, its one request to ``_drive``. Returns,
    per candidate, its ``log_loss_norm`` at each ``k_y`` in ``ks``, its note
    and its (q, max(ks)) coefficients. The one place an unsolved candidate is
    scored: NaN at every ``k_y``, noted with its ``_column_failure`` text; a
    solved candidate's note is ``""``."""
    (basis, xi), preds = dec
    designs = [_design(preds[m][1][:, :k_x] for m in D) for D, k_x in candidates]
    coefs, solved = yield designs, [xi[:, :max(ks)]] * len(designs), [tau]
    notes = [str(_column_failure(ok[0]) or "") for ok in solved]
    losses = [
        [math.nan] * len(ks) if note else [
            log_loss_norm(Y, FunctionalSample(
                basis.mean + design @ c[0][:, :k] @ basis.eigenfunctions[:k], Y.grid
            ), tau)
            for k in ks
        ]
        for design, c, note in zip(designs, coefs, notes)
    ]
    return losses, notes, [c[0] for c in coefs]


def _drive(steps) -> list:
    """Run selection generators in lockstep; per generator, its value or the
    ``NumericalError`` it raised (on its first step too).

    Each generator yields ``(designs, responses, taus)`` requests and is sent
    back their ``_fit_stack`` result. Each round merges the pending requests
    of the narrowest response width (and the same levels) into one core
    call, the only one of the searches; wider ones wait, so a truncation search
    merges with the searches that follow other generators' forward stages. A
    problem's coefficients do not depend on its stack, so no result changes.
    """
    results, pending = [None] * len(steps), {}

    def advance(i, reply):
        try:
            pending[i] = steps[i].send(reply)
        except StopIteration as stop:
            results[i] = stop.value
        except NumericalError as exc:
            results[i] = exc

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        # Narrowest response first: its (K, n), then the levels.
        keys = {i: (r[1][0].shape[::-1], tuple(r[2])) for i, r in pending.items()}
        least = min(keys.values())
        served = [i for i, key in keys.items() if key == least]
        designs, responses, taus = zip(*(pending.pop(i) for i in served))
        coefs, solved = _fit_stack(sum(designs, []), sum(responses, []), taus[0])
        for i, part, stop in zip(served, designs, itertools.accumulate(map(len, designs))):
            advance(i, (coefs[stop - len(part):stop], solved[stop - len(part):stop]))
    return results


def _loss_at(Y: FunctionalSample, X, tau: float, k_y: int, k_x: int) -> float:
    """``log_loss_norm`` of the in-sample prediction of ``fit_fflqr`` on every
    predictor of X at ``(k_y, k_x)``."""
    return log_loss_norm(Y, predict(fit_fflqr(Y, X, tau, k_y, k_x), X), tau)


def bic_truncation(Y: FunctionalSample, X, tau: float, k_y: int, k_x: int) -> float:
    """BIC of an (k_y, k_x) truncation: log-loss norm plus ``(k_y + k_x) ln n``."""
    return _loss_at(Y, X, tau, k_y, k_x) + (k_y + k_x) * math.log(Y.n)


def select_truncation(
    Y: FunctionalSample, X, tau: float, k_y_max: int, k_x_max: int
) -> tuple:
    """Exhaustive BIC search over the truncation grid.

    Returns
    -------
    (k_y, k_x, trace)
        The minimizing pair (ties broken toward smaller ``k_y + k_x``, then
        smaller ``k_y``) and the full evaluation trace.
    """
    return _select(Y, X, tau, tuple(range(1, len(X) + 1)), None, k_y_max, k_x_max)[1:4]


def bic_candidate(
    Y: FunctionalSample, X_subset, tau: float, D, k_y: int = 2, k_x: int = 2
) -> float:
    """BIC of a predictor subset: log-loss norm plus ``|D| ln(n) / (2n)``."""
    D = tuple(D)
    if len(D) == 0:
        raise ValueError("candidate predictor set must be nonempty")
    if len(D) != len(X_subset) or len(set(D)) != len(D):
        raise ValueError("one predictor sample per distinct index in D required")
    return _loss_at(Y, X_subset, tau, k_y, k_x) + len(D) * math.log(Y.n) / (2 * Y.n)


def _improves(bic_prev: float, bic_new: float) -> bool:
    """Acceptance rule: the drop must exceed ``_STAGE_DROP`` of |previous|.

    Equals ``bic_new / bic_prev < 0.95`` whenever the previous BIC is
    positive, and stays meaningful when the log-norm turns negative.
    """
    return (bic_prev - bic_new) > _STAGE_DROP * abs(bic_prev)


def forward_select(
    Y: FunctionalSample,
    X,
    tau: float,
    fixed_k: int = 2,
    k_y_max: int = 5,
    k_x_max: int = 5,
) -> SelectionResult:
    """Forward stepwise predictor selection with a BIC improvement rule.

    Stage 1 fits every single-predictor model at ``K = fixed_k`` and keeps
    the BIC minimizer. Each later stage tries the unused predictors, takes
    the best extension and accepts it only if the BIC drops by more than 5
    percent of its current magnitude, a fixed rule. After the set is fixed,
    the truncation pair is re-tuned on it by exhaustive search up to
    ``(k_y_max, k_x_max)``. Each sample is decomposed once for all of this.

    Parameters
    ----------
    Y : FunctionalSample
        Response curves.
    X : list of FunctionalSample
        All M candidate predictors; labels are their 1-based positions.
    tau : float
        Quantile level.
    fixed_k : int
        Truncation used for both response and predictors during selection.
    k_y_max, k_x_max : int
        Grid bounds for the final truncation search.
    """
    if len(X) < 1:
        raise ValueError("need at least one candidate predictor")
    D, k_y, k_x, trace, _, _ = _select(Y, X, tau, None, fixed_k, k_y_max, k_x_max)
    return SelectionResult(k_y, k_x, D, trace)


def _widths(Y, X, fixed_k, k_y_max, k_x_max) -> tuple:
    """The widths forward selection decomposes Y and each ``X[m]`` at: the
    truncation maxima capped at ``min(n - 1, p)``, but at least ``fixed_k``."""
    if min(fixed_k, k_y_max, k_x_max) < 1:
        raise ValueError("fixed_k and the truncation maxima must be at least 1")
    n = Y.n
    return max(fixed_k, min(k_y_max, n - 1, Y.grid.size)), [
        max(fixed_k, min(k_x_max, n - 1, x.grid.size)) for x in X
    ]


def _select(Y, X, tau, D, fixed_k, k_y_max, k_x_max) -> tuple:
    """The one model choice on Y and the candidates X: forward stages at
    ``fixed_k`` pick the labels when ``D`` is None, then the truncation search
    runs up to the maxima. Forward selection decomposes at ``_widths``; given
    ``D``, every sample is decomposed at the maxima as given, so one above
    ``min(n - 1, p)`` raises ``ValueError``, as one below 1 does. Returns the
    labels, ``k_y``, ``k_x``, the trace, the decomposition cut to that model
    and its ``FflqrFit`` at ``tau``: the search's own solve, which a refit on
    the cut decomposition matches bitwise."""
    if D is None:
        widths = _widths(Y, X, fixed_k, k_y_max, k_x_max)
    elif min(k_y_max, k_x_max) < 1:
        raise ValueError("truncation maxima must be at least 1")
    else:
        widths = k_y_max, [k_x_max] * len(X)
    steps = _choice(Y, _decompose(Y, X, *widths), tau, D, fixed_k, k_y_max, k_x_max)
    return _unwrap(_drive([steps])[0])


def _choice(Y, dec, tau, D, fixed_k, k_y_max, k_x_max):
    """Generator behind ``_select`` on ``dec``, a ``_decompose`` output of Y
    and every candidate, whose widths bound the truncation search; the Monte
    Carlo study drives one per replicate. Each forward stage scores its
    candidate sets at ``fixed_k`` only, then the truncation search scores
    every ``(k_y, k_x)`` on the chosen set: one ``_losses`` request each. An
    unsolved candidate stays in the trace with a NaN BIC and is never chosen."""
    n = Y.n
    response, preds = dec
    trace, chosen, current_bic = [], [], None
    remaining = list(range(1, len(preds) + 1)) if D is None else []
    while remaining:
        stage = f"stage{len(chosen) + 1}"
        results = []
        sets = [chosen + [label] for label in remaining]
        losses, notes, _ = yield from _losses(
            Y, dec, [([i - 1 for i in S], fixed_k) for S in sets], tau, [fixed_k]
        )
        for label, S, (loss,), note in zip(remaining, sets, losses, notes):
            bic = loss + len(S) * math.log(n) / (2 * n)
            if not note:
                results.append((bic, label, len(trace)))
            name = "{" + ",".join(str(i) for i in S) + "}"
            trace.append(BicTraceEntry(stage, name, fixed_k, fixed_k, bic, False, note))
        if not results:
            break
        best_bic, best_label, idx = min(results)
        if chosen and not _improves(current_bic, best_bic):
            break
        trace[idx] = replace(trace[idx], accepted=True)
        chosen.append(best_label)
        remaining.remove(best_label)
        current_bic = best_bic
    if D is None:
        if not chosen:
            raise NumericalError("no predictor candidate could be fit")
        D = tuple(chosen)
    k_ys = range(1, min(k_y_max, response[0].n_components) + 1)
    k_xs = range(1, min([k_x_max] + [preds[i - 1][0].n_components for i in D]) + 1)
    losses, notes, coefs = yield from _losses(
        Y, dec, [([i - 1 for i in D], k_x) for k_x in k_xs], tau, k_ys
    )
    searched = [
        BicTraceEntry("truncation", f"K=({k_y},{k_x})", k_y, k_x,
                      losses[k_x - 1][k_y - 1] + (k_y + k_x) * math.log(n), False,
                      notes[k_x - 1])
        for k_y in k_ys
        for k_x in k_xs
    ]
    fitted = [e for e in searched if not math.isnan(e.bic)]
    if not fitted:
        raise NumericalError("every truncation candidate failed to fit")
    best = min(fitted, key=lambda e: (e.bic, e.k_y + e.k_x, e.k_y))
    trace += [replace(e, accepted=e is best) for e in searched]
    k_y, k_x = best.k_y, best.k_x
    model_dec = _leading(response, k_y), [_leading(preds[i - 1], k_x) for i in D]
    fit = FflqrFit(tau, model_dec[0][0], tuple(basis for basis, _ in model_dec[1]),
                   coefs[k_x - 1][:, :k_y].copy(), D)
    return D, k_y, k_x, tuple(trace), model_dec, fit


def write_trace_csv(trace, path) -> None:
    """Write BicTraceEntry items as CSV, one row per evaluated candidate."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("stage,candidate,K_Y,K_X,BIC,accepted\n")
        for e in trace:
            bic = "" if math.isnan(e.bic) else f"{e.bic:.17g}"
            fh.write(
                f"{e.stage},\"{e.candidate}\",{e.k_y},{e.k_x},{bic},"
                f"{str(e.accepted).lower()}\n"
            )
