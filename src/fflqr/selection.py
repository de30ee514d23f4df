"""BIC-driven truncation tuning and forward stepwise predictor selection."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .fdata import FunctionalSample
from .fpca import _leading
from .model import FflqrFit, _decompose, _design, _unwrap
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


def _losses(Y: FunctionalSample, dec, candidates, tau: float, k_y_max: int):
    """Generator returning, per ``(D, k_x)`` candidate, ``log_loss_norm`` at
    ``k_y = 1..k_y_max`` on predictor positions ``D`` at ``k_x``, or the
    ``NumericalError`` naming its unsolved response column; and per
    candidate, its (q, k_y_max) coefficients. All candidates share one
    stacked solve, its one request to ``_drive``."""
    (basis, xi), preds = dec
    designs = [_design(preds[m][1][:, :k_x] for m in D) for D, k_x in candidates]
    coefs, solved = yield designs, [xi[:, :k_y_max]] * len(designs), [tau]
    losses = [
        _column_failure(ok[0]) or [
            log_loss_norm(Y, FunctionalSample(
                basis.mean + design @ c[0][:, :k] @ basis.eigenfunctions[:k], Y.grid
            ), tau)
            for k in range(1, k_y_max + 1)
        ]
        for design, c, ok in zip(designs, coefs, solved)
    ]
    return losses, [c[0] for c in coefs]


def _drive(steps) -> list:
    """Run selection generators in lockstep; per generator, its value or the
    ``NumericalError`` it raised (on its first step too).

    Each generator yields ``(designs, responses, taus)`` requests and is sent
    back their ``_fit_stack`` result. Each round merges the pending requests
    of the narrowest response width (and the same levels) into one core
    call, the only one of selection; wider ones wait, so a truncation search
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


def bic_truncation(Y: FunctionalSample, X, tau: float, k_y: int, k_x: int) -> float:
    """BIC of an (k_y, k_x) truncation: log-loss norm plus ``(k_y + k_x) ln n``."""
    dec = _decompose(Y, X, k_y, [k_x] * len(X))
    (loss,), _ = _unwrap(_drive([_losses(Y, dec, [(range(len(X)), k_x)], tau, k_y)])[0])
    return _unwrap(loss)[-1] + (k_y + k_x) * math.log(Y.n)


def _search_truncation(Y, dec, D, tau: float, k_y_max: int, k_x_max: int):
    """Generator of the exhaustive truncation search, one stacked solve for
    every ``k_x``; a failed ``k_x`` fails every ``k_y`` there, with its error
    as the note. Returns the chosen ``k_y`` and ``k_x``, the trace and the
    chosen model's coefficients, a slice of that solve."""
    k_xs = range(1, k_x_max + 1)
    losses, coefs = yield from _losses(Y, dec, [(D, k_x) for k_x in k_xs], tau, k_y_max)
    losses = dict(zip(k_xs, losses))
    notes = {k_x: str(v) for k_x, v in losses.items() if isinstance(v, NumericalError)}
    losses.update((k_x, [math.nan] * k_y_max) for k_x in notes)
    trace = [
        BicTraceEntry("truncation", f"K=({k_y},{k_x})", k_y, k_x,
                      losses[k_x][k_y - 1] + (k_y + k_x) * math.log(Y.n), False,
                      notes.get(k_x, ""))
        for k_y in range(1, k_y_max + 1)
        for k_x in range(1, k_x_max + 1)
    ]
    fitted = [e for e in trace if not math.isnan(e.bic)]
    if not fitted:
        raise NumericalError("every truncation candidate failed to fit")
    best = min(fitted, key=lambda e: (e.bic, e.k_y + e.k_x, e.k_y))
    trace = tuple(replace(e, accepted=e is best) for e in trace)
    return best.k_y, best.k_x, trace, coefs[best.k_x - 1][:, :best.k_y].copy()


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
    if k_y_max < 1 or k_x_max < 1:
        raise ValueError("truncation maxima must be at least 1")
    dec = _decompose(Y, X, k_y_max, [k_x_max] * len(X))
    return _choose(Y, dec, tau, tuple(range(1, len(X) + 1)), None, k_y_max, k_x_max)[1:4]


def bic_candidate(
    Y: FunctionalSample, X_subset, tau: float, D, k_y: int = 2, k_x: int = 2
) -> float:
    """BIC of a predictor subset: log-loss norm plus ``|D| ln(n) / (2n)``."""
    D = tuple(D)
    if len(D) == 0:
        raise ValueError("candidate predictor set must be nonempty")
    if len(D) != len(X_subset) or len(set(D)) != len(D):
        raise ValueError("one predictor sample per distinct index in D required")
    dec = _decompose(Y, X_subset, k_y, [k_x] * len(D))
    (loss,), _ = _unwrap(_drive([_losses(Y, dec, [(range(len(D)), k_x)], tau, k_y)])[0])
    return _unwrap(loss)[-1] + len(D) * math.log(Y.n) / (2 * Y.n)


def _improves(bic_prev: float, bic_new: float, ratio_threshold: float) -> bool:
    """Acceptance rule: the drop must exceed the threshold share of |previous|.

    Equals ``bic_new / bic_prev < ratio_threshold`` whenever the previous
    BIC is positive, and stays meaningful when the log-norm turns negative.
    """
    return (bic_prev - bic_new) > (1.0 - ratio_threshold) * abs(bic_prev)


def forward_select(
    Y: FunctionalSample,
    X,
    tau: float,
    ratio_threshold: float = 0.95,
    fixed_k: int = 2,
    k_y_max: int = 5,
    k_x_max: int = 5,
) -> SelectionResult:
    """Forward stepwise predictor selection with a BIC improvement rule.

    Stage 1 fits every single-predictor model at ``K = fixed_k`` and keeps
    the BIC minimizer. Each later stage tries the unused predictors, takes
    the best extension and accepts it only if the BIC improves by at least
    ``1 - ratio_threshold`` of the current value. After the set is fixed,
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
    ratio_threshold : float
        Acceptance ratio; 0.95 demands a 5 percent improvement.
    fixed_k : int
        Truncation used for both response and predictors during selection.
    k_y_max, k_x_max : int
        Grid bounds for the final truncation search.
    """
    if len(X) < 1:
        raise ValueError("need at least one candidate predictor")
    dec = _decompose(Y, X, *_widths(Y, X, fixed_k, k_y_max, k_x_max))
    D, k_y, k_x, trace, _, _ = _choose(
        Y, dec, tau, None, fixed_k, k_y_max, k_x_max, ratio_threshold
    )
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


def _choose(Y, dec, tau, D, fixed_k, k_y_max, k_x_max, ratio_threshold=0.95) -> tuple:
    """The one model-choice procedure on ``dec``, a ``_decompose`` output of Y and
    every candidate: forward stages at ``fixed_k`` pick the labels when ``D`` is
    None, then the truncation search runs up to the maxima, bounded by the widths
    of ``dec`` over Y and the chosen predictors (``_widths`` caps those at
    ``min(n - 1, p)``). Returns the labels, ``k_y``, ``k_x``, the trace,
    ``dec`` cut to that model and its ``FflqrFit`` at ``tau``: the search's own
    solve of that model, which a refit on the cut ``dec`` matches bitwise.
    This is ``_drive`` on one ``_choice``; the Monte Carlo study drives the
    ``_choice`` of every replicate in a window together."""
    steps = _choice(Y, dec, tau, D, fixed_k, k_y_max, k_x_max, ratio_threshold)
    return _unwrap(_drive([steps])[0])


def _choice(Y, dec, tau, D, fixed_k, k_y_max, k_x_max, ratio_threshold=0.95):
    """Generator behind ``_choose``: one ``_fit_stack`` request per forward
    stage and one for the truncation search."""
    n = Y.n
    response, preds = dec
    trace, chosen, current_bic = [], [], None
    remaining = list(range(1, len(preds) + 1)) if D is None else []
    while remaining:
        stage = f"stage{len(chosen) + 1}"
        results = []
        sets = [chosen + [label] for label in remaining]
        losses, _ = yield from _losses(
            Y, dec, [([i - 1 for i in S], fixed_k) for S in sets], tau, fixed_k
        )
        for label, S, loss in zip(remaining, sets, losses):
            if isinstance(loss, NumericalError):
                bic, note = math.nan, str(loss)
            else:
                bic, note = loss[-1] + len(S) * math.log(n) / (2 * n), ""
                results.append((bic, label, len(trace)))
            name = "{" + ",".join(str(i) for i in S) + "}"
            trace.append(BicTraceEntry(stage, name, fixed_k, fixed_k, bic, False, note))
        if not results:
            break
        best_bic, best_label, idx = min(results)
        if chosen and not _improves(current_bic, best_bic, ratio_threshold):
            break
        trace[idx] = replace(trace[idx], accepted=True)
        chosen.append(best_label)
        remaining.remove(best_label)
        current_bic = best_bic
    if D is None:
        if not chosen:
            raise NumericalError("no predictor candidate could be fit")
        D = tuple(chosen)
    k_y_max = min(k_y_max, response[0].n_components)
    k_x_max = min([k_x_max] + [preds[i - 1][0].n_components for i in D])
    k_y, k_x, k_trace, coefs = yield from _search_truncation(
        Y, dec, [i - 1 for i in D], tau, k_y_max, k_x_max
    )
    model_dec = _leading(response, k_y), [_leading(preds[i - 1], k_x) for i in D]
    fit = FflqrFit(tau, model_dec[0][0], tuple(basis for basis, _ in model_dec[1]), coefs, D)
    return D, k_y, k_x, tuple(trace) + k_trace, model_dec, fit


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
