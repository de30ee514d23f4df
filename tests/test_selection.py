"""Tests for truncation and predictor selection by information criterion."""

import csv
import math

import numpy as np
import pytest

from fflqr import qreg, selection
from fflqr.errors import NumericalError
from fflqr.fdata import FunctionalSample, make_uniform_grid
from fflqr.model import _decompose, _fit_for, fit_fflqr, predict
from fflqr.selection import (
    SelectionResult,
    bic_candidate,
    bic_truncation,
    forward_select,
    log_loss_norm,
    select_truncation,
    write_trace_csv,
)
from fflqr.simulate import SimConfig, generate_dataset


def smooth_sample(rng, n, grid, n_harmonics=5):
    t = grid.points
    vals = np.zeros((n, grid.size))
    for k in range(1, n_harmonics + 1):
        vals += 0.7 ** k * rng.normal(size=(n, 1)) * np.sin(np.pi * k * t)
        vals += 0.7 ** k * rng.normal(size=(n, 1)) * np.cos(np.pi * k * t)
    return FunctionalSample(vals, grid)


def noisy_pair(rng, n=40, p=25, m=2):
    """Predictors plus a response driven by predictor 1 only."""
    g = make_uniform_grid(p, 0.0, 1.0)
    xs = [smooth_sample(rng, n, g) for _ in range(m)]
    t = g.points
    drive = xs[0].values @ (np.outer(np.sin(np.pi * t), np.cos(np.pi * t))) / p
    Y = FunctionalSample(drive + 0.05 * rng.normal(size=(n, p)), g)
    return Y, xs


class TestLogLossNorm:
    def test_constant_loss_scaling_by_e(self):
        # residual scale e multiplies the pointwise loss by exactly e, so
        # the norm of the log over a unit interval moves by exactly 1
        g = make_uniform_grid(11, 0.0, 1.0)
        fitted = FunctionalSample(np.zeros((2, 11)), g)
        Y = FunctionalSample(np.vstack([np.full(11, 3.0), np.full(11, -1.0)]), g)
        Ye = FunctionalSample(Y.values * math.e, g)
        base = log_loss_norm(Y, fitted, 0.5)
        scaled = log_loss_norm(Ye, fitted, 0.5)
        assert scaled - base == pytest.approx(1.0, abs=1e-12)

    def test_perfect_fit_survives_flooring(self):
        g = make_uniform_grid(11, 0.0, 1.0)
        s = FunctionalSample(np.ones((3, 11)), g)
        val = log_loss_norm(s, s, 0.5)
        assert np.isfinite(val)
        assert val == pytest.approx(abs(math.log(1e-300)), rel=1e-12)


class TestBicTruncation:
    def test_penalty_identity(self):
        rng = np.random.default_rng(0)
        Y, xs = noisy_pair(rng)
        n = Y.n
        for k_y, k_x in [(1, 1), (2, 1), (2, 3)]:
            fit = fit_fflqr(Y, xs, 0.5, k_y, k_x)
            fitted = predict(fit, xs)
            loss_term = log_loss_norm(Y, fitted, 0.5)
            bic = bic_truncation(Y, xs, 0.5, k_y, k_x)
            assert bic - loss_term == pytest.approx(
                (k_y + k_x) * math.log(n), abs=1e-12
            )

    def test_unit_penalty_step(self):
        rng = np.random.default_rng(1)
        Y, xs = noisy_pair(rng)
        n = Y.n
        b21 = bic_truncation(Y, xs, 0.5, 2, 1)
        fit = fit_fflqr(Y, xs, 0.5, 2, 1)
        loss = log_loss_norm(Y, predict(fit, xs), 0.5)
        # adding one component at unchanged loss would move BIC by ln(n)
        assert (b21 - loss) - (b21 - loss - math.log(n)) == pytest.approx(
            math.log(n), abs=1e-12
        )


class TestBicCandidate:
    def test_penalty_identity(self):
        rng = np.random.default_rng(2)
        Y, xs = noisy_pair(rng, m=3)
        n = Y.n
        for D in [(1,), (1, 2), (1, 2, 3)]:
            sub = [xs[i - 1] for i in D]
            fit = fit_fflqr(Y, sub, 0.5, 2, 2, predictor_indices=D)
            loss_term = log_loss_norm(Y, predict(fit, sub), 0.5)
            bic = bic_candidate(Y, sub, 0.5, D)
            assert bic - loss_term == pytest.approx(
                len(D) * math.log(n) / (2 * n), abs=1e-12
            )

    def test_shares_loss_path_with_truncation_bic(self):
        rng = np.random.default_rng(3)
        Y, xs = noisy_pair(rng, m=1)
        n = Y.n
        cand = bic_candidate(Y, xs, 0.5, (1,), k_y=2, k_x=2)
        trunc = bic_truncation(Y, xs, 0.5, 2, 2)
        swap = 1 * math.log(n) / (2 * n) - 4 * math.log(n)
        assert cand - trunc == pytest.approx(swap, abs=1e-10)


class TestSelectTruncation:
    def test_single_candidate(self):
        rng = np.random.default_rng(4)
        Y, xs = noisy_pair(rng)
        k_y, k_x, trace = select_truncation(Y, xs, 0.5, 1, 1)
        assert (k_y, k_x) == (1, 1)
        assert len(trace) == 1

    def test_trace_is_exhaustive(self):
        rng = np.random.default_rng(5)
        Y, xs = noisy_pair(rng)
        _, _, trace = select_truncation(Y, xs, 0.5, 3, 2)
        assert len(trace) == 6
        pairs = {(e.k_y, e.k_x) for e in trace}
        assert pairs == {(ky, kx) for ky in (1, 2, 3) for kx in (1, 2)}

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(6)
        Y, xs = noisy_pair(rng)
        k_y, k_x, trace = select_truncation(Y, xs, 0.5, 3, 3)
        best = None
        for ky in (1, 2, 3):
            for kx in (1, 2, 3):
                b = bic_truncation(Y, xs, 0.5, ky, kx)
                key = (b, ky + kx, ky)
                if best is None or key < best[0]:
                    best = (key, ky, kx)
        assert (k_y, k_x) == (best[1], best[2])

    def test_exactly_one_accepted_and_it_is_argmin(self):
        rng = np.random.default_rng(7)
        Y, xs = noisy_pair(rng)
        k_y, k_x, trace = select_truncation(Y, xs, 0.5, 2, 2)
        accepted = [e for e in trace if e.accepted]
        assert len(accepted) == 1
        assert (accepted[0].k_y, accepted[0].k_x) == (k_y, k_x)
        assert accepted[0].bic == min(e.bic for e in trace)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        Y, xs = noisy_pair(rng)
        first = select_truncation(Y, xs, 0.5, 2, 3)
        second = select_truncation(Y, xs, 0.5, 2, 3)
        assert first[:2] == second[:2]
        assert [e.bic for e in first[2]] == [e.bic for e in second[2]]


class TestForwardSelect:
    def test_single_predictor_always_chosen(self):
        rng = np.random.default_rng(9)
        Y, xs = noisy_pair(rng, m=1)
        res = forward_select(Y, xs, 0.5)
        assert isinstance(res, SelectionResult)
        assert res.chosen_predictors == (1,)

    def test_duplicate_predictor_not_added(self):
        rng = np.random.default_rng(10)
        Y, xs = noisy_pair(rng, m=1)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = forward_select(Y, [xs[0], xs[0]], 0.5)
        assert len(res.chosen_predictors) == 1

    def test_informative_predictor_found(self):
        rng = np.random.default_rng(11)
        Y, xs = noisy_pair(rng, m=3)
        res = forward_select(Y, xs, 0.5)
        assert 1 in res.chosen_predictors

    def test_stage_one_covers_all_predictors(self):
        rng = np.random.default_rng(12)
        Y, xs = noisy_pair(rng, m=3)
        res = forward_select(Y, xs, 0.5)
        stage1 = [e for e in res.bic_trace if e.stage == "stage1"]
        assert len(stage1) == 3

    def test_accepted_bics_strictly_improve(self):
        # two predictors drive the response through distinct surfaces, so
        # the second stage should also accept
        rng = np.random.default_rng(13)
        g = make_uniform_grid(25, 0.0, 1.0)
        xs = [smooth_sample(rng, 50, g) for _ in range(3)]
        t = g.points
        s1 = np.outer(np.sin(np.pi * t), np.cos(np.pi * t)) / 25
        s2 = np.outer(np.cos(np.pi * t), np.sin(2 * np.pi * t)) / 25
        drive = xs[0].values @ s1 + xs[1].values @ s2
        Y = FunctionalSample(drive + 0.02 * rng.normal(size=(50, 25)), g)
        res = forward_select(Y, xs, 0.5)
        accepted = [e for e in res.bic_trace
                    if e.accepted and e.stage.startswith("stage")]
        accepted.sort(key=lambda e: int(e.stage[5:]))
        assert len(accepted) >= 2
        for prev, new in zip(accepted, accepted[1:]):
            assert prev.bic - new.bic > 0.05 * abs(prev.bic) - 1e-12

    def test_chosen_k_from_final_truncation_pass(self):
        rng = np.random.default_rng(14)
        Y, xs = noisy_pair(rng, m=2)
        res = forward_select(Y, xs, 0.5, k_y_max=3, k_x_max=3)
        assert 1 <= res.chosen_k_y <= 3
        assert 1 <= res.chosen_k_x <= 3


def refit_loss(Y, X, tau, k_y, k_x, D=None):
    """Log-loss norm of a model refit from scratch and re-projected."""
    fit = fit_fflqr(Y, X, tau, k_y, k_x, predictor_indices=D)
    return log_loss_norm(Y, predict(fit, X), tau)


class TestTruncationNesting:
    """Scores sliced from one decomposition give the BICs of full refits."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_truncation_trace_matches_refits(self, seed, tau):
        rng = np.random.default_rng(seed)
        Y, xs = noisy_pair(rng)
        _, _, trace = select_truncation(Y, xs, tau, 4, 3)
        assert len(trace) == 12
        for e in trace:
            want = refit_loss(Y, xs, tau, e.k_y, e.k_x) + (e.k_y + e.k_x) * math.log(Y.n)
            assert e.bic == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", [23, 24])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("fixed_k", [1, 2])
    def test_forward_trace_matches_refits(self, seed, tau, fixed_k):
        rng = np.random.default_rng(seed)
        Y, xs = noisy_pair(rng, m=3)
        n = Y.n
        res = forward_select(Y, xs, tau, fixed_k=fixed_k, k_y_max=3, k_x_max=3)
        for e in res.bic_trace:
            if e.stage == "truncation":
                sub = [xs[i - 1] for i in res.chosen_predictors]
                penalty = (e.k_y + e.k_x) * math.log(n)
                want = refit_loss(Y, sub, tau, e.k_y, e.k_x) + penalty
            else:
                D = tuple(int(i) for i in e.candidate.strip("{}").split(","))
                sub = [xs[i - 1] for i in D]
                penalty = len(D) * math.log(n) / (2 * n)
                want = refit_loss(Y, sub, tau, e.k_y, e.k_x, D) + penalty
            assert e.bic == pytest.approx(want, rel=1e-13, abs=0.0)


UNSOLVED_NOTE = (
    "response column 0: interior point did not converge in 200 iterations "
    "or could not factor its normal equations"
)


class TestSolveFailures:
    @staticmethod
    def failing_at(width):
        """A stand-in for the stacked solver that marks every problem of the
        designs with ``width`` columns (of all designs, for None) unsolved."""
        real = selection._fit_stack

        def fit_stack(designs, responses, taus):
            coefs, solved = real(designs, responses, taus)
            for g, design in enumerate(designs):
                if width is None or design.shape[1] == width:
                    solved[g] = False
            return coefs, solved

        return fit_stack

    def test_failed_solve_fails_its_k_x(self, monkeypatch):
        rng = np.random.default_rng(30)
        Y, xs = noisy_pair(rng)
        # two predictors at k_x = 2 give a 1 + 2 * 2 column design
        monkeypatch.setattr(selection, "_fit_stack", self.failing_at(5))
        k_y, k_x, trace = select_truncation(Y, xs, 0.5, 3, 3)
        assert [(e.k_y, e.k_x) for e in trace] == [
            (ky, kx) for ky in (1, 2, 3) for kx in (1, 2, 3)
        ]
        for e in trace:
            if e.k_x == 2:
                assert math.isnan(e.bic) and not e.accepted
                assert e.note == UNSOLVED_NOTE
            else:
                assert math.isfinite(e.bic) and e.note == ""
        rest = [e for e in trace if e.k_x != 2]
        best = min(rest, key=lambda e: (e.bic, e.k_y + e.k_x, e.k_y))
        assert (k_y, k_x) == (best.k_y, best.k_x)
        assert [e for e in trace if e.accepted] == [best]

    def test_failed_stage_candidates_are_kept_in_trace(self, monkeypatch):
        rng = np.random.default_rng(31)
        Y, xs = noisy_pair(rng, m=3)
        # every two-predictor candidate at K = 2 has 5 design columns
        monkeypatch.setattr(selection, "_fit_stack", self.failing_at(5))
        res = forward_select(Y, xs, 0.5, k_y_max=3, k_x_max=3)
        stage2 = [e for e in res.bic_trace if e.stage == "stage2"]
        assert len(stage2) == 2
        assert all(math.isnan(e.bic) and not e.accepted for e in stage2)
        assert all(e.note == UNSOLVED_NOTE for e in stage2)
        assert len(res.chosen_predictors) == 1

    def test_every_solve_failing_raises(self, monkeypatch):
        rng = np.random.default_rng(32)
        Y, xs = noisy_pair(rng)
        monkeypatch.setattr(selection, "_fit_stack", self.failing_at(None))
        with pytest.raises(NumericalError, match="every truncation candidate failed to fit"):
            select_truncation(Y, xs, 0.5, 2, 2)
        with pytest.raises(NumericalError, match="no predictor candidate could be fit"):
            forward_select(Y, xs, 0.5)


class TestStackedCalls:
    @staticmethod
    def count_core_calls(monkeypatch):
        real = qreg._frisch_newton
        calls = []

        def frisch_newton(Xs, y, tau):
            calls.append([X.shape for X in Xs])
            return real(Xs, y, tau)

        monkeypatch.setattr(qreg, "_frisch_newton", frisch_newton)
        return calls

    def test_truncation_search_is_one_core_call(self, monkeypatch):
        Y, xs = noisy_pair(np.random.default_rng(35))
        calls = self.count_core_calls(monkeypatch)
        select_truncation(Y, xs, 0.5, k_y_max=3, k_x_max=3)
        assert len(calls) == 1
        # one group per k_x: 1 + 2 k_x design columns, one problem per k_y
        assert calls[0] == [(3, Y.n, 3), (3, Y.n, 5), (3, Y.n, 7)]

    def test_one_core_call_per_forward_stage(self, monkeypatch):
        Y, xs = noisy_pair(np.random.default_rng(36), m=3)
        calls = self.count_core_calls(monkeypatch)
        res = forward_select(Y, xs, 0.5, k_y_max=3, k_x_max=3)
        stages = {e.stage for e in res.bic_trace if e.stage != "truncation"}
        assert len(calls) == len(stages) + 1


class TestChosenFit:
    """The fit ``_choose`` returns is the truncation search's own solve."""

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.5, 0.9])
    def test_equals_a_refit_of_the_chosen_model_bitwise(self, seed, tau):
        config = SimConfig(n_train=60, n_test=5, n_grid=30, error_dist="chisq1",
                           k_y_max=4, k_x_max=3)
        data = generate_dataset(config, seed)
        Y, X = data.Y_train, data.X_train
        ks = (config.fixed_k, config.k_y_max, config.k_x_max)
        dec = _decompose(Y, X, *selection._widths(Y, X, *ks))
        for labels in (tuple(range(1, config.M + 1)), config.significant, None):
            D, k_y, k_x, _, model_dec, fit = selection._choose(Y, dec, tau, labels, *ks)
            X_fit = [X[i - 1] for i in D]
            ((refit,),) = _fit_for("fflqr", Y, X_fit, [tau], k_y, k_x, D, [model_dec])
            assert fit.coefs.shape == (1 + len(D) * k_x, k_y)
            assert fit.coefs.tobytes() == refit.coefs.tobytes()
            assert (fit.tau, fit.predictor_indices, fit.method) == (
                refit.tau, refit.predictor_indices, refit.method
            )
            assert fit.response_basis is refit.response_basis
            assert all(a is b for a, b in zip(fit.predictor_bases, refit.predictor_bases))


class TestDrive:
    """``_drive`` runs model choices in lockstep with the results of each alone."""

    @staticmethod
    def choice_cases():
        # Ragged on purpose: forward stages (fixed_k response columns) run
        # beside truncation searches (k_y_max columns).
        config = SimConfig(n_train=60, n_test=5, n_grid=30, error_dist="chisq1",
                           k_y_max=4, k_x_max=3)
        ks = (config.fixed_k, config.k_y_max, config.k_x_max)
        cases = []
        for seed, labels in ((1, None), (2, (2, 4, 5)), (3, None), (4, (1, 2, 3, 4, 5))):
            data = generate_dataset(config, seed)
            Y, X = data.Y_train, data.X_train
            dec = _decompose(Y, X, *selection._widths(Y, X, *ks))
            cases.append((Y, dec, 0.5, labels, *ks))
        return cases

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_ragged_choices_merge_by_response_width(self, monkeypatch):
        cases = self.choice_cases()
        alone = [selection._choose(*case) for case in cases]
        calls = []
        real = selection._fit_stack

        def fit_stack(designs, responses, taus):
            calls.append({r.shape for r in responses})
            return real(designs, responses, taus)

        monkeypatch.setattr(selection, "_fit_stack", fit_stack)
        together = selection._drive([selection._choice(*case) for case in cases])
        # one request per forward stage and one for the truncation search
        requests = [len({e.stage for e in trace}) for _, _, _, trace, _, _ in alone]
        assert len(set(requests)) > 1
        assert len(calls) == max(requests)
        assert all(len(shapes) == 1 for shapes in calls)
        for (D, k_y, k_x, trace, _, fit), got in zip(alone, together):
            assert (got[0], got[1], got[2], repr(got[3])) == (D, k_y, k_x, repr(trace))
            assert got[5].coefs.tobytes() == fit.coefs.tobytes()

    @pytest.mark.filterwarnings("ignore::fflqr.errors.RankDeficiencyWarning")
    def test_a_failing_generator_fails_alone(self):
        case = self.choice_cases()[0]

        def fails_at_start():
            raise NumericalError("at start")
            yield

        def fails_after_a_solve():
            yield from selection._choice(*case)
            raise NumericalError("after a solve")

        results = selection._drive(
            [fails_at_start(), selection._choice(*case), fails_after_a_solve()]
        )
        assert [str(r) for r in results[::2]] == ["at start", "after a solve"]
        assert results[1][5].coefs.tobytes() == selection._choose(*case)[5].coefs.tobytes()


class TestInputContract:
    @pytest.mark.parametrize("kwargs", [
        {"fixed_k": 0}, {"k_y_max": 0}, {"k_x_max": 0}, {"fixed_k": 40},
    ])
    def test_forward_select_rejects_bad_truncations(self, kwargs):
        Y, xs = noisy_pair(np.random.default_rng(33))
        with pytest.raises(ValueError):
            forward_select(Y, xs, 0.5, **kwargs)

    @pytest.mark.parametrize("k_y_max, k_x_max", [(0, 2), (2, 0), (40, 2), (2, 26)])
    def test_select_truncation_rejects_bad_maxima(self, k_y_max, k_x_max):
        # 40 curves on 25 points: at most min(n - 1, p) = 25 components
        Y, xs = noisy_pair(np.random.default_rng(34))
        with pytest.raises(ValueError):
            select_truncation(Y, xs, 0.5, k_y_max, k_x_max)


class TestTraceCsv:
    def test_format(self, tmp_path):
        rng = np.random.default_rng(15)
        Y, xs = noisy_pair(rng, m=2)
        res = forward_select(Y, xs, 0.5)
        path = tmp_path / "trace.csv"
        write_trace_csv(res.bic_trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["stage", "candidate", "K_Y", "K_X", "BIC", "accepted"]
        assert len(rows) == 1 + len(res.bic_trace)
        for row in rows[1:]:
            assert row[5] in ("true", "false")
            float(row[4])
