"""Tests for the B-spline basis evaluation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline

import fflqr
from fflqr.bspline import bspline_design


def clamped_knots(n_basis, order):
    """The clamped uniform knot vector on [0, 1], written out."""
    interior = [j / (n_basis - order + 1) for j in range(1, n_basis - order + 1)]
    return np.array([0.0] * order + interior + [1.0] * order)


class TestKnots:
    def test_clamped_uniform(self):
        # order 4 with 6 basis functions: interior knots at 1/3 and 2/3, so
        # the first function lives on [0, 1/3) and the last on (2/3, 1]
        x = np.linspace(0.0, 1.0, 61)
        B = bspline_design(x, 6, 4, 0.0, 1.0)
        first, last = x < 1.0 / 3.0 - 1e-12, x > 2.0 / 3.0 + 1e-12
        assert np.all(B[first, 0] > 0) and np.all(B[~first, 0] == 0)
        assert np.all(B[last, -1] > 0) and np.all(B[~last, -1] == 0)

    def test_order_too_small_raises(self):
        with pytest.raises(ValueError, match="order"):
            bspline_design([0.5], 4, 1, 0.0, 1.0)

    def test_too_few_basis_raises(self):
        with pytest.raises(ValueError, match="n_basis"):
            bspline_design([0.5], 3, 4, 0.0, 1.0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError, match="a < b"):
            bspline_design([0.5], 5, 3, 1.0, 0.0)


class TestDesign:
    @pytest.mark.parametrize("n_basis,order", [(4, 2), (6, 3), (8, 4), (12, 4)])
    def test_partition_of_unity(self, n_basis, order):
        x = np.linspace(0.0, 1.0, 57)
        B = bspline_design(x, n_basis, order, 0.0, 1.0)
        assert B.shape == (57, n_basis)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)

    def test_nonnegative(self):
        x = np.linspace(0.0, 2.0, 41)
        B = bspline_design(x, 7, 4, 0.0, 2.0)
        assert np.all(B >= 0)

    def test_right_endpoint_closure(self):
        B = bspline_design(np.array([2.0]), 5, 3, 0.0, 2.0)
        assert B[0, -1] == pytest.approx(1.0)
        np.testing.assert_allclose(B[0, :-1], 0.0, atol=1e-15)

    def test_left_endpoint(self):
        B = bspline_design(np.array([0.0]), 5, 3, 0.0, 2.0)
        assert B[0, 0] == pytest.approx(1.0)

    def test_order_two_hat_functions(self):
        # order 2 on [0,1] with 3 basis functions: hats at 0, 0.5, 1
        B = bspline_design(np.array([0.25]), 3, 2, 0.0, 1.0)
        np.testing.assert_allclose(B[0], [0.5, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("n_basis,order", [(5, 2), (6, 3), (9, 4)])
    def test_matches_scipy(self, n_basis, order):
        kn = clamped_knots(n_basis, order)
        x = np.linspace(0.0, 1.0, 33)[:-1]  # scipy's last span is half-open
        B = bspline_design(x, n_basis, order, 0.0, 1.0)
        for j in range(n_basis):
            c = np.zeros(n_basis)
            c[j] = 1.0
            ref = BSpline(kn, c, order - 1, extrapolate=False)(x)
            np.testing.assert_allclose(B[:, j], ref, atol=1e-12)

    def test_local_support(self):
        kn = clamped_knots(8, 4)
        x = np.linspace(0.0, 1.0, 101)
        B = bspline_design(x, 8, 4, 0.0, 1.0)
        for j in range(8):
            lo, hi = kn[j], kn[j + 4]
            outside = (x < lo - 1e-12) | (x > hi + 1e-12)
            np.testing.assert_allclose(B[outside, j], 0.0, atol=1e-15)


def test_package_and_cli_import_without_scipy_interpolate():
    # the basis loads scipy.interpolate on first use, so commands that fit
    # no B-spline do not pay for it
    src = Path(fflqr.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fflqr, fflqr.cli; assert 'scipy.interpolate' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
