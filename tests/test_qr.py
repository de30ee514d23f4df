"""Tests for the check-loss solver against brute-force and LP references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fflqr import qreg
from fflqr.errors import NumericalError, RankDeficiencyWarning
from fflqr.qreg import QrProblem, check_loss, qr_fit, qr_fit_multi, qr_objective
from oracles import (
    brute_force_qr,
    linprog_qr,
    masked_box_step,
    masked_step,
    objective_value,
)


class TestCheckLoss:
    def test_zero_residual(self):
        assert check_loss(0.0, 0.5) == 0.0

    def test_positive_residual(self):
        assert check_loss(2.0, 0.5) == pytest.approx(1.0)

    def test_negative_residual(self):
        assert check_loss(-2.0, 0.25) == pytest.approx(1.5)

    def test_vectorized(self):
        u = np.array([-1.0, 0.0, 3.0])
        np.testing.assert_allclose(check_loss(u, 0.1), [0.9, 0.0, 0.3])

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.7])
    def test_tau_out_of_range(self, tau):
        with pytest.raises(ValueError, match="tau"):
            check_loss(1.0, tau)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=200)
        for tau in (0.05, 0.3, 0.5, 0.95):
            assert np.all(check_loss(u, tau) >= 0)


def _ratio_inputs(seed, rows=12, n=40):
    """Positive values with exact zeros, and directions over many magnitudes
    with zeros of both signs and NaNs. Row 0 has no negative direction, row 1
    only NaN ones, and row 2 only -0.0 directions on zero values."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 1.0, (rows, n))
    v[rng.random((rows, n)) < 0.1] = 0.0
    d = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-8, 9, (rows, n))
    pick = rng.random((rows, n))
    d[pick < 0.1] = 0.0
    d[(0.1 <= pick) & (pick < 0.2)] = -0.0
    d[(0.2 <= pick) & (pick < 0.25)] = np.nan
    d[0] = np.abs(d[0])
    d[1] = np.nan
    v[2], d[2] = 0.0, -0.0
    return v, d


class TestRatioTests:
    """The core's plain-arithmetic ratio tests equal the masked-division
    reference bitwise."""

    @pytest.mark.parametrize("seed", range(6))
    def test_step_matches_masked_reference(self, seed):
        v, dv = _ratio_inputs(seed)
        got = qreg._step(v, dv)
        assert got.tobytes() == masked_step(v, dv).tobytes()
        assert np.all(got[:3] == np.inf)

    @pytest.mark.parametrize("seed", range(6))
    def test_box_step_matches_masked_reference(self, seed):
        a, da = _ratio_inputs(seed)
        s = 1.0 - a
        s[np.random.default_rng(seed + 100).random(s.shape) < 0.1] = 0.0
        got = qreg._box_step(a, s, da)
        assert got.tobytes() == masked_box_step(a, s, da).tobytes()
        assert np.all(got[1:3] == np.inf)

    def test_no_floating_point_warning(self):
        v, dv = _ratio_inputs(0)
        with np.errstate(all="raise"):
            qreg._step(v, dv)
            qreg._box_step(v, 1.0 - v, dv)


class TestQrProblem:
    def test_more_columns_than_rows_raises(self):
        with pytest.raises(ValueError, match="rows"):
            QrProblem(np.ones((2, 3)), np.ones(2), 0.5)

    def test_nonfinite_raises(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError, match="finite"):
            QrProblem(X, np.array([1.0, np.inf, 2.0]), 0.5)

    def test_tau_boundary_raises(self):
        with pytest.raises(ValueError, match="tau"):
            QrProblem(np.ones((3, 1)), np.ones(3), 1.0)


class TestQrFit:
    def test_intercept_only_median(self):
        prob = QrProblem(np.ones((5, 1)), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5)
        assert qr_fit(prob)[0] == pytest.approx(3.0, abs=1e-6)

    def test_intercept_only_tau_030(self):
        prob = QrProblem(np.ones((5, 1)), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.3)
        assert qr_fit(prob)[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_interpolable_data(self, tau):
        x = np.linspace(0.0, 1.0, 9)
        X = np.column_stack([np.ones(9), x])
        prob = QrProblem(X, 2.0 * x, tau)
        beta = qr_fit(prob)
        np.testing.assert_allclose(beta, [0.0, 2.0], atol=1e-6)
        assert objective_value(X, 2.0 * x, beta, tau) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        q = int(rng.integers(1, 3))
        tau = rng.choice([0.1, 0.25, 0.5, 0.9])
        X = rng.normal(size=(n, q))
        y = rng.normal(size=n)
        beta = qr_fit(QrProblem(X, y, tau))
        got = objective_value(X, y, beta, tau)
        want, _ = brute_force_qr(X, y, tau)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_linprog(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, q = 60, 4
        tau = rng.choice([0.2, 0.5, 0.8])
        X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
        y = X @ rng.normal(size=q) + rng.standard_t(3, size=n)
        beta = qr_fit(QrProblem(X, y, tau))
        got = objective_value(X, y, beta, tau)
        want, _ = linprog_qr(X, y, tau)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_never_worse_than_zero_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = rng.normal(size=(30, 3))
            y = rng.normal(size=30)
            beta = qr_fit(QrProblem(X, y, 0.4))
            assert objective_value(X, y, beta, 0.4) <= objective_value(
                X, y, np.zeros(3), 0.4
            ) + 1e-10

    def test_response_scaling_equivariance(self):
        # unique-solution case: odd-n intercept-only median
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        base = qr_fit(QrProblem(np.ones((5, 1)), y, 0.5))[0]
        scaled = qr_fit(QrProblem(np.ones((5, 1)), 10.0 * y, 0.5))[0]
        assert scaled == pytest.approx(10.0 * base, abs=1e-5)

    @pytest.mark.parametrize("k", [-30, -17, -3, 1, 9, 30])
    def test_power_of_two_scaling_is_exact(self, k):
        # Each problem is solved in units of its own largest |y|, so a
        # power-of-two rescaling of the responses rescales the coefficients
        # bit for bit; an all-zero column is left as it is by any scale.
        rng = np.random.default_rng(41)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        Y = np.column_stack([rng.standard_t(3, size=(60, 3)), np.zeros(60)])
        base = qr_fit_multi(X, Y, 0.3)
        scaled = qr_fit_multi(X, 2.0 ** k * Y, 0.3)
        np.testing.assert_array_equal(scaled[:, :3], 2.0 ** k * base[:, :3])
        np.testing.assert_array_equal(scaled[:, 3], base[:, 3])

    def test_objective_scaling_equivariance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        b1 = qr_fit(QrProblem(X, y, 0.7))
        b2 = qr_fit(QrProblem(X, 3.0 * y, 0.7))
        v1 = objective_value(X, y, b1, 0.7)
        v2 = objective_value(X, 3.0 * y, b2, 0.7)
        assert v2 == pytest.approx(3.0 * v1, rel=1e-6)

    @pytest.mark.parametrize("seed,tau", [(0, 0.5), (1, 0.25), (2, 0.8)])
    def test_subgradient_optimality(self, seed, tau):
        rng = np.random.default_rng(20 + seed)
        n, q = 50, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
        y = rng.normal(size=n)
        beta = qr_fit(QrProblem(X, y, tau))
        r = y - X @ beta
        tie = 1e-9 * max(1.0, np.max(np.abs(y)))
        scale = 1e-6 * n * np.max(np.abs(X))
        for d in range(q):
            xd = X[:, d]
            grad = tau * np.sum(xd[r > tie]) - (1 - tau) * np.sum(xd[r < -tie])
            slack = np.sum(np.abs(xd[np.abs(r) <= tie]))
            assert abs(grad) <= slack + scale

    @pytest.mark.parametrize("seed,tau", [(3, 0.1), (4, 0.5), (5, 0.9)])
    def test_residual_sign_counts(self, seed, tau):
        rng = np.random.default_rng(30 + seed)
        n, q = 80, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
        y = rng.normal(size=n)
        beta = qr_fit(QrProblem(X, y, tau))
        r = y - X @ beta
        tie = 1e-9 * max(1.0, np.max(np.abs(y)))
        frac_neg = np.sum(r < -tie) / n
        assert tau - (q + 1) / n <= frac_neg <= tau + (q + 1) / n


class TestRankDeficiency:
    def test_duplicate_column_warns_and_zeroes(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, x])
        y = 1.0 + 2.0 * x + rng.normal(scale=0.1, size=30)
        with pytest.warns(RankDeficiencyWarning):
            beta = qr_fit(QrProblem(X, y, 0.5))
        assert beta[2] == 0.0
        assert beta[1] == pytest.approx(2.0, abs=0.2)

    def test_zero_column_warns(self):
        X = np.column_stack([np.ones(20), np.zeros(20)])
        y = np.arange(20.0)
        with pytest.warns(RankDeficiencyWarning):
            beta = qr_fit(QrProblem(X, y, 0.5))
        assert beta[1] == 0.0


class TestQrFitMulti:
    def test_single_column_matches_qr_fit(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        single = qr_fit(QrProblem(X, y, 0.3))
        multi = qr_fit_multi(X, y[:, None], 0.3)
        np.testing.assert_array_equal(multi[:, 0], single)

    def test_duplicated_response_columns(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        Y = np.column_stack([y, y])
        multi = qr_fit_multi(X, Y, 0.5)
        np.testing.assert_array_equal(multi[:, 0], multi[:, 1])

    def test_columns_match_lp_reference(self):
        rng = np.random.default_rng(52)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        Y = rng.normal(size=(50, 2))
        multi = qr_fit_multi(X, Y, 0.5)
        obj = qr_objective(X, Y, multi, 0.5)
        for k in range(2):
            want, _ = linprog_qr(X, Y[:, k], 0.5)
            assert obj[k] == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_returns_coefficient_array(self):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(10, 2))
        multi = qr_fit_multi(X, rng.normal(size=(10, 3)), 0.25)
        assert isinstance(multi, np.ndarray)
        assert multi.shape == (2, 3)

    def test_no_response_columns(self):
        rng = np.random.default_rng(54)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        multi = qr_fit_multi(X, np.empty((12, 0)), 0.5)
        assert multi.shape == (2, 0)

    def test_vector_responses_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, K\)"):
            qr_fit_multi(np.ones((5, 1)), np.ones(5), 0.5)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_regression_equivariance(self, tau):
        # Koenker & Bassett (1978): fitting Y + X G gives B + G at the same
        # minimum. Worst drift measured over these seeds: 4.8e-10 of the
        # objective and 1.1e-7 of the largest coefficient. The objective
        # bound is the tight one: a gap tolerance 100 times looser drifts
        # the objectives by 3.5e-8 but the coefficients by only 1.3e-6.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
            Y = rng.standard_t(3, size=(80, 3))
            G = 5.0 * rng.normal(size=(4, 3))
            base = qr_fit_multi(X, Y, tau)
            shifted = qr_fit_multi(X, Y + X @ G, tau)
            np.testing.assert_allclose(
                qr_objective(X, Y + X @ G, shifted, tau), qr_objective(X, Y, base, tau),
                rtol=1e-8, atol=0,
            )
            assert np.max(np.abs(shifted - (base + G))) <= 1e-5 * np.max(np.abs(base + G))


class TestQrObjective:
    def test_zero_residuals(self):
        X = np.eye(3)
        coefs = np.ones((3, 1))
        obj = qr_objective(X, X @ coefs, coefs, 0.5)
        np.testing.assert_allclose(obj, 0.0, atol=1e-15)

    def test_single_residual_is_check_loss(self):
        X = np.array([[1.0]])
        obj = qr_objective(X, np.array([[-2.0]]), np.array([[0.0]]), 0.3)
        assert obj[0] == pytest.approx(check_loss(-2.0, 0.3))

    def test_hand_sum(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([[0.0], [1.0], [3.0]])
        # residuals -1, 0, 2 -> 0.75 + 0 + 0.5
        obj = qr_objective(X, y, np.array([[1.0]]), 0.25)
        assert obj[0] == pytest.approx(1.25)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    tau=st.sampled_from([0.01, 0.3, 0.5, 0.99]),
    tied=st.booleans(),
    collinear=st.booleans(),
)
def test_multi_is_optimal_for_every_column(seed, n, tau, tied, collinear):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    if collinear:
        X = np.column_stack([X, X[:, 1] - 2.0 * X[:, 2]])
    Y = X[:, :3] @ rng.normal(size=(3, 2)) + rng.standard_t(3, size=(n, 2))
    if tied:
        Y = np.round(Y)  # integer responses, many exact ties
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coefs = qr_fit_multi(X, Y, tau)
    rank_drops = [w for w in caught if issubclass(w.category, RankDeficiencyWarning)]
    assert len(rank_drops) == int(collinear)
    obj = qr_objective(X, Y, coefs, tau)
    for k in range(Y.shape[1]):
        want, _ = linprog_qr(X, Y[:, k], tau)
        assert obj[k] == pytest.approx(want, rel=1e-7, abs=1e-9)


def random_stack(rng, B=6, n=50, q=4):
    """B problems with their own designs, responses and levels."""
    X = np.concatenate([np.ones((B, n, 1)), rng.normal(size=(B, n, q - 1))], axis=2)
    y = (X @ rng.normal(size=(B, q, 1)))[..., 0] + rng.standard_t(3, size=(B, n))
    y[::2] = np.round(y[::2])  # ties in every other problem
    tau = rng.choice([0.01, 0.3, 0.5, 0.99], size=B)
    return X, y, tau


def refuse_problem_1(monkeypatch, attempts):
    """Fail the first batched factorization, then refuse problem 1's normal
    matrix on its next ``attempts`` tries alone; returns the tries left."""
    real = np.linalg.cholesky
    refused = {}

    def cholesky(M):
        if M.ndim == 3 and not refused:
            refused["matrix"], refused["left"] = M[1].copy(), attempts
            raise np.linalg.LinAlgError("forced")
        retry = M.ndim == 2 and refused.get("left") and M.shape == refused["matrix"].shape
        if retry and np.allclose(M, refused["matrix"], rtol=1e-6, atol=0):
            refused["left"] -= 1
            raise np.linalg.LinAlgError("forced")
        return real(M)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    return refused


def ragged_stacks(rng, widths=(2, 4, 6), B=4):
    """One problem stack per design width, and their rows concatenated."""
    stacks = [random_stack(rng, B=B, q=q) for q in widths]
    Xs = [X for X, _, _ in stacks]
    y = np.concatenate([y for _, y, _ in stacks])
    tau = np.concatenate([tau for _, _, tau in stacks])
    return Xs, y, tau


class TestStackedSolver:
    def test_stack_order_does_not_change_coefficients(self):
        X, y, tau = random_stack(np.random.default_rng(60))
        (coefs,), solved = qreg._frisch_newton([X], y, tau)
        assert solved.all()
        (rev,), _ = qreg._frisch_newton([X[::-1]], y[::-1], tau[::-1])
        np.testing.assert_array_equal(rev[::-1], coefs)
        for b in range(len(X)):
            (alone,), _ = qreg._frisch_newton([X[b : b + 1]], y[b : b + 1], tau[b : b + 1])
            np.testing.assert_array_equal(alone[0], coefs[b])

    def test_ragged_groups_match_each_group_alone(self):
        Xs, y, tau = ragged_stacks(np.random.default_rng(64))
        coefs, solved = qreg._frisch_newton(Xs, y, tau)
        assert solved.all()
        assert [c.shape for c in coefs] == [(4, 2), (4, 4), (4, 6)]
        rows = np.arange(len(y)).reshape(3, 4)
        rev, _ = qreg._frisch_newton(Xs[::-1], y[rows[::-1].ravel()], tau[rows[::-1].ravel()])
        for g, X in enumerate(Xs):
            (alone,), _ = qreg._frisch_newton([X], y[rows[g]], tau[rows[g]])
            np.testing.assert_array_equal(coefs[g], alone)
            np.testing.assert_array_equal(rev[2 - g], alone)

    def test_empty_groups_are_skipped(self):
        # A group with no problems, before and after others, gets no rows.
        Xs, y, tau = ragged_stacks(np.random.default_rng(65), widths=(3,))
        want, _ = qreg._frisch_newton(Xs, y, tau)
        empty = np.empty((0, 50, 2))
        coefs, solved = qreg._frisch_newton([empty, Xs[0], empty], y, tau)
        assert solved.all() and coefs[0].shape == coefs[2].shape == (0, 2)
        np.testing.assert_array_equal(coefs[1], want[0])
        coefs, solved = qreg._frisch_newton([empty], np.empty((0, 50)), np.empty(0))
        assert solved.shape == (0,) and coefs[0].shape == (0, 2)

    @pytest.mark.parametrize("attempts", [1, 4])
    def test_factorization_failure_stays_with_its_problem(self, monkeypatch, attempts):
        # One refusal is recovered by a jitter retry; four leave problem 1
        # unsolved. Either way the other problems, in its group and in the
        # groups after it, do not notice.
        X, y, tau = random_stack(np.random.default_rng(61))
        Xs, y2, tau2 = ragged_stacks(np.random.default_rng(66), widths=(2, 5))
        Xs, y, tau = [X] + Xs, np.concatenate([y, y2]), np.concatenate([tau, tau2])
        want, _ = qreg._frisch_newton(Xs, y, tau)
        refused = refuse_problem_1(monkeypatch, attempts)
        coefs, solved = qreg._frisch_newton(Xs, y, tau)
        assert refused["left"] == 0
        others = np.arange(len(X)) != 1
        np.testing.assert_array_equal(coefs[0][others], want[0][others])
        for got, expected in zip(coefs[1:], want[1:]):
            np.testing.assert_array_equal(got, expected)
        assert solved[len(X):].all() and solved[: len(X)][others].all()
        if attempts < 4:
            assert solved[1]
            got = objective_value(X[1], y[1], coefs[0][1], tau[1])
            assert got == pytest.approx(linprog_qr(X[1], y[1], tau[1])[0], rel=1e-7, abs=1e-9)
        else:
            assert not solved[1]

    def test_no_factorable_problem_leaves_all_unsolved(self, monkeypatch):
        # The core stops once every problem's factorization has failed.
        rng = np.random.default_rng(65)
        designs = [np.column_stack([np.ones(30), rng.normal(size=(30, q))]) for q in (1, 3)]
        monkeypatch.setattr(qreg, "_cholesky", lambda M: (M, np.zeros(len(M), dtype=bool)))
        coefs, solved = qreg._fit_stack(designs, [rng.normal(size=(30, 2))] * 2, [0.3, 0.7])
        assert solved.shape == (2, 2, 2) and not solved.any()
        for design, c in zip(designs, coefs):
            np.testing.assert_array_equal(c, np.zeros((2, design.shape[1], 2)))

    def test_unfactorable_column_is_named(self, monkeypatch):
        rng = np.random.default_rng(63)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        refuse_problem_1(monkeypatch, 4)
        with pytest.raises(NumericalError, match="response column 1: "):
            qr_fit_multi(X, rng.normal(size=(40, 3)), 0.5)

    def test_unconverged_column_is_named(self, monkeypatch):
        rng = np.random.default_rng(62)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        monkeypatch.setattr(qreg, "_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="response column 0: .* in 1 iterations"):
            qr_fit_multi(X, rng.normal(size=(30, 3)), 0.5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    widths=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    taus=st.lists(st.sampled_from([0.01, 0.3, 0.5, 0.99]), min_size=1, max_size=2),
    tied=st.booleans(),
    collinear=st.booleans(),
)
def test_stack_is_optimal_for_every_problem(seed, n, widths, taus, tied, collinear):
    # Each design draws its own width and columns; with `collinear`, the
    # first design's last column depends on the others and is dropped.
    rng = np.random.default_rng(seed)
    designs = [np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))]) for q in widths]
    if collinear:
        designs[0][:, -1] = designs[0][:, :-1] @ rng.normal(size=widths[0] - 1)
    Y = [d @ rng.normal(size=(d.shape[1], 2)) + rng.standard_t(3, size=(n, 2)) for d in designs]
    if tied:
        Y = [np.round(y) for y in Y]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        coefs, solved = qreg._fit_stack(designs, Y, taus)
    assert solved.all()
    for g, design in enumerate(designs):
        assert coefs[g].shape == (len(taus), widths[g], 2)
        for t, tau in enumerate(taus):
            obj = qr_objective(design, Y[g], coefs[g][t], tau)
            for k in range(2):
                want, _ = linprog_qr(design, Y[g][:, k], tau)
                assert obj[k] == pytest.approx(want, rel=1e-7, abs=1e-9)
