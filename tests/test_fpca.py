"""Tests for the principal component decomposition of functional samples."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError

from fflqr import fpca
from fflqr.fdata import FunctionalSample, Grid, make_uniform_grid
from fflqr.fpca import _leading, fpc_decompose, project_scores, reconstruct
from oracles import evr_fpca, full_fpca


def smooth_sample(rng, n, grid, n_harmonics=6, decay=0.6):
    """Random curves built from decaying Fourier harmonics."""
    t = grid.points
    vals = np.zeros((n, grid.size))
    for k in range(1, n_harmonics + 1):
        amp = decay ** k
        vals += amp * rng.normal(size=(n, 1)) * np.sin(np.pi * k * t)
        vals += amp * rng.normal(size=(n, 1)) * np.cos(np.pi * k * t)
    return FunctionalSample(vals, grid)


class TestDecompose:
    def test_eigenfunctions_orthonormal(self):
        rng = np.random.default_rng(0)
        g = make_uniform_grid(60, 0.0, 1.0)
        basis, _ = fpc_decompose(smooth_sample(rng, 40, g), 5)
        gram = (basis.eigenfunctions * g.weights) @ basis.eigenfunctions.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_score_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(1)
        g = make_uniform_grid(50, 0.0, 1.0)
        sample = smooth_sample(rng, 80, g)
        basis, scores = fpc_decompose(sample, 4)
        # variance convention divides by n, matching the covariance estimate
        var = np.mean(scores ** 2, axis=0) - np.mean(scores, axis=0) ** 2
        np.testing.assert_allclose(var, basis.eigenvalues, rtol=1e-8)

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(2)
        g = make_uniform_grid(30, 0.0, 1.0)
        basis, _ = fpc_decompose(smooth_sample(rng, 25, g), 6)
        assert np.all(np.diff(basis.eigenvalues) <= 0)
        assert np.all(basis.eigenvalues >= 0)

    def test_mercer_trace(self):
        rng = np.random.default_rng(3)
        g = make_uniform_grid(40, 0.0, 1.0)
        sample = smooth_sample(rng, 35, g)
        k = min(sample.n - 1, g.size)
        basis, _ = fpc_decompose(sample, k)
        centered = sample.values - sample.values.mean(axis=0)
        pointwise_var = np.mean(centered ** 2, axis=0)
        trace = float(np.sum(pointwise_var * g.weights))
        assert np.sum(basis.eigenvalues) == pytest.approx(trace, rel=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        g = make_uniform_grid(30, 0.0, 1.0)
        basis, _ = fpc_decompose(smooth_sample(rng, 20, g), 3)
        for row in basis.eigenfunctions:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_many_components_raise(self):
        rng = np.random.default_rng(5)
        g = make_uniform_grid(20, 0.0, 1.0)
        sample = smooth_sample(rng, 8, g)
        with pytest.raises(ValueError, match="n_components"):
            fpc_decompose(sample, 8)

    def test_too_few_curves_raise(self):
        g = make_uniform_grid(10, 0.0, 1.0)
        sample = FunctionalSample(np.ones((1, 10)), g)
        with pytest.raises(ValueError, match="two curves"):
            fpc_decompose(sample, 1)

    def test_rank_deficient_flag(self):
        # two distinct curves repeated: covariance rank is 1
        g = make_uniform_grid(12, 0.0, 1.0)
        a = np.sin(np.pi * g.points)
        b = np.cos(np.pi * g.points)
        vals = np.vstack([a, b, a, b, a, b])
        basis, _ = fpc_decompose(FunctionalSample(vals, g), 3)
        assert basis.rank_deficient
        assert basis.eigenvalues[-1] == 0.0


class TestReconstruct:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_error_nonincreasing_in_k(self, seed):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(40, 0.0, 1.0)
        sample = smooth_sample(rng, 30, g)
        errs = []
        for k in range(1, 8):
            basis, scores = fpc_decompose(sample, k)
            recon = reconstruct(basis, scores)
            resid = sample.values - recon.values
            errs.append(np.mean([np.sum(g.weights * r * r) for r in resid]))
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_exact_rank_round_trip(self):
        # curves spanned by 3 functions reconstruct exactly from 3 components
        rng = np.random.default_rng(6)
        g = make_uniform_grid(25, 0.0, 1.0)
        t = g.points
        span = np.vstack([np.sin(np.pi * t), np.cos(np.pi * t), t ** 2])
        coefs = rng.normal(size=(12, 3))
        sample = FunctionalSample(coefs @ span, g)
        basis, scores = fpc_decompose(sample, 3)
        recon = reconstruct(basis, scores)
        np.testing.assert_allclose(recon.values, sample.values, atol=1e-10)

    def test_single_score_row(self):
        rng = np.random.default_rng(7)
        g = make_uniform_grid(15, 0.0, 1.0)
        basis, scores = fpc_decompose(smooth_sample(rng, 10, g), 2)
        one = reconstruct(basis, scores[:1])
        assert one.n == 1


class TestProjectScores:
    def test_round_trip_on_training_sample(self):
        rng = np.random.default_rng(8)
        g = make_uniform_grid(35, 0.0, 1.0)
        sample = smooth_sample(rng, 22, g)
        basis, scores = fpc_decompose(sample, 4)
        np.testing.assert_allclose(project_scores(basis, sample), scores, atol=1e-10)

    def test_uses_stored_mean(self):
        rng = np.random.default_rng(9)
        g = make_uniform_grid(20, 0.0, 1.0)
        sample = smooth_sample(rng, 15, g)
        basis, _ = fpc_decompose(sample, 2)
        shifted = FunctionalSample(sample.values + 5.0, g)
        base = project_scores(basis, sample)
        moved = project_scores(basis, shifted)
        offset = (basis.eigenfunctions * g.weights) @ np.full(g.size, 5.0)
        np.testing.assert_allclose(moved - base, np.tile(offset, (15, 1)), atol=1e-10)

    def test_grid_mismatch_raises(self):
        rng = np.random.default_rng(10)
        g = make_uniform_grid(20, 0.0, 1.0)
        other = make_uniform_grid(21, 0.0, 1.0)
        basis, _ = fpc_decompose(smooth_sample(rng, 10, g), 2)
        with pytest.raises(ValueError, match="grid"):
            project_scores(basis, smooth_sample(rng, 5, other))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    p=st.integers(2, 40),
    uniform=st.booleans(),
    repeated=st.booleans(),
)
def test_decomposition_invariants(seed, n, p, uniform, repeated):
    rng = np.random.default_rng(seed)
    if uniform:
        g = make_uniform_grid(p, 0.0, 1.0)
    else:
        g = Grid.from_points(np.cumsum(rng.uniform(0.05, 2.0, size=p)))
    vals = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if repeated:
        vals[n // 2:] = vals[: n - n // 2]  # rank-deficient: repeated curves
    sample = FunctionalSample(vals, g)
    k_max = min(n - 1, p)
    big, big_scores = fpc_decompose(sample, k_max)

    gram = (big.eigenfunctions * g.weights) @ big.eigenfunctions.T
    np.testing.assert_allclose(gram, np.eye(k_max), atol=1e-10)
    assert np.all(big.eigenvalues >= 0)
    assert np.all(np.diff(big.eigenvalues) <= 0)

    # a fresh k-component decomposition and the k-component slice of a
    # larger one both match the full-eigendecomposition reference
    k = int(rng.integers(1, k_max + 1))
    reference = full_fpca(sample, k)
    assert_matches_reference(fpc_decompose(sample, k), reference, sample)
    assert_matches_reference(_leading((big, big_scores), k), reference, sample)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    p=st.integers(2, 40),
    uniform=st.booleans(),
    repeated=st.booleans(),
)
def test_truncated_path_matches_full_decomposition(seed, n, p, uniform, repeated):
    # the sample strategy of test_decomposition_invariants
    rng = np.random.default_rng(seed)
    if uniform:
        g = make_uniform_grid(p, 0.0, 1.0)
    else:
        g = Grid.from_points(np.cumsum(rng.uniform(0.05, 2.0, size=p)))
    vals = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if repeated:
        vals[n // 2:] = vals[: n - n // 2]  # rank-deficient: repeated curves
    sample = FunctionalSample(vals, g)
    K = min(n - 1, p)
    assert_matches_reference(fpc_decompose(sample, K), full_fpca(sample, K), sample)


def assert_matches_reference(decomposition, reference, sample):
    """``decomposition`` agrees with the ``full_fpca`` reference of the same
    width to rounding, component by component where its eigengap fixes it."""
    (top, _), (full, _) = decomposition, reference
    K, p = full.n_components, sample.grid.size
    k_max = min(sample.n - 1, p)
    lam = full.eigenvalues
    spectrum = full_fpca(sample, k_max)[0].eigenvalues
    assert np.abs(top.eigenvalues - lam).max() <= 1e-12 * lam[0]
    np.testing.assert_array_equal(top.eigenvalues == 0.0, lam == 0.0)
    assert top.rank_deficient == full.rank_deficient
    np.testing.assert_array_equal(top.mean, full.mean)
    gram = (top.eigenfunctions * sample.grid.weights) @ top.eigenfunctions.T
    np.testing.assert_allclose(gram, np.eye(K), atol=1e-10)

    # components with a relative eigengap of at least 1e-6 are determined up
    # to sign, and the sign convention must pick the same one; past the
    # last computed eigenvalue the next is 0 when n - 1 < p, and absent when
    # all p are computed
    neighbours = np.concatenate([[np.inf], spectrum, [0.0 if k_max < p else np.inf]])
    gaps = np.minimum(np.abs(lam - neighbours[:K]), np.abs(lam - neighbours[2:K + 2]))
    for k in np.flatnonzero((gaps >= 1e-6 * lam[0]) & (gaps > 0)):
        f, f_top = full.eigenfunctions[k], top.eigenfunctions[k]
        peak = np.argmax(np.abs(f))
        assert np.sign(f_top[peak]) == np.sign(f[peak])
        assert np.abs(f_top - f).max() <= 1e-8 * np.abs(f).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    p=st.integers(2, 70),
    share=st.floats(0.0, 1.0),
    kind=st.sampled_from(["random", "repeated", "constant"]),
    uniform=st.booleans(),
)
@example(seed=0, n=60, p=70, share=0.1, kind="random", uniform=True)
@example(seed=1, n=50, p=40, share=0.5, kind="repeated", uniform=False)
@example(seed=2, n=10, p=45, share=1.0, kind="constant", uniform=True)
@example(seed=3, n=200, p=100, share=0.03, kind="random", uniform=True)  # the workloads' shape
def test_bitwise_equal_to_scipy_eigh(seed, n, p, share, kind, uniform):
    # fpc_decompose calls dsyevr as scipy.linalg.eigh(driver="evr") would,
    # workspace included, so every output keeps its bytes.
    rng = np.random.default_rng(seed)
    if uniform:
        g = make_uniform_grid(p, 0.0, 1.0)
    else:
        g = Grid.from_points(np.cumsum(rng.uniform(0.05, 2.0, size=p)))
    vals = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    if kind == "repeated":
        vals[n // 2:] = vals[: n - n // 2]  # rank-deficient: repeated curves
    elif kind == "constant":
        vals[:] = np.round(vals[0])  # integer curves: an exact mean, zero covariance
    sample = FunctionalSample(vals, g)
    K = 1 + int(share * (min(n - 1, p) - 1))
    (basis, scores), (ref, ref_scores) = fpc_decompose(sample, K), evr_fpca(sample, K)
    for got, want in [
        (basis.mean, ref.mean),
        (basis.eigenvalues, ref.eigenvalues),
        (basis.eigenfunctions, ref.eigenfunctions),
        (scores, ref_scores),
    ]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert basis.rank_deficient == ref.rank_deficient
    if kind == "constant":
        assert not basis.eigenvalues.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_covariance_raises():
    # Curves of 1e200 overflow the covariance: one ValueError, no warning.
    rng = np.random.default_rng(11)
    g = make_uniform_grid(30, 0.0, 1.0)
    sample = FunctionalSample(smooth_sample(rng, 20, g).values * 1e200, g)
    with pytest.raises(ValueError, match="covariance is not finite"):
        fpc_decompose(sample, 2)


def test_lapack_failure_raises_linalg_error(monkeypatch):
    real = fpca.dsyevr

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(fpca, "dsyevr", failing)
    rng = np.random.default_rng(12)
    g = make_uniform_grid(20, 0.0, 1.0)
    with pytest.raises(LinAlgError, match="info = 1"):
        fpc_decompose(smooth_sample(rng, 10, g), 2)
