"""Tests for grids, functional samples, and CSV round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fflqr.errors import DataError
from fflqr.fdata import (
    FunctionalSample,
    Grid,
    center,
    inner_product,
    make_uniform_grid,
    read_sample_csv,
    write_sample_csv,
)


class TestGrid:
    def test_uniform_weights_sum_to_length(self):
        g = make_uniform_grid(101, 0.0, 1.0)
        assert g.size == 101
        assert g.length == pytest.approx(1.0)
        assert np.sum(g.weights) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_endpoint_weights_are_half(self):
        g = make_uniform_grid(11, 0.0, 1.0)
        h = 0.1
        assert g.weights[0] == pytest.approx(h / 2)
        assert g.weights[-1] == pytest.approx(h / 2)
        np.testing.assert_allclose(g.weights[1:-1], h)

    def test_nonuniform_trapezoid_weights(self):
        pts = np.array([0.0, 0.1, 0.4, 1.0])
        g = Grid.from_points(pts)
        expected = np.array([0.05, 0.2, 0.45, 0.3])
        np.testing.assert_allclose(g.weights, expected)
        assert np.sum(g.weights) == pytest.approx(1.0)

    def test_nonincreasing_points_raise(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid.from_points(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_single_point_raises(self):
        with pytest.raises(ValueError, match="at least two"):
            Grid.from_points(np.array([0.3]))

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Grid(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_weights_must_sum_to_length(self):
        with pytest.raises(ValueError, match="sum"):
            Grid(np.array([0.0, 1.0]), np.array([0.9, 0.9]))

    def test_close_to(self):
        a = make_uniform_grid(10, 0.0, 1.0)
        b = make_uniform_grid(10, 0.0, 1.0)
        c = make_uniform_grid(10, 0.0, 2.0)
        assert a.close_to(b)
        assert not a.close_to(c)
        assert not a.close_to(make_uniform_grid(11, 0.0, 1.0))


class TestFunctionalSample:
    def test_shape_properties(self):
        g = make_uniform_grid(7, 0.0, 1.0)
        s = FunctionalSample(np.zeros((4, 7)), g)
        assert s.n == 4
        assert s.n_points == 7

    def test_column_mismatch_raises(self):
        g = make_uniform_grid(7, 0.0, 1.0)
        with pytest.raises(ValueError, match="grid"):
            FunctionalSample(np.zeros((4, 6)), g)

    def test_nonfinite_raises(self):
        g = make_uniform_grid(3, 0.0, 1.0)
        vals = np.array([[0.0, np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            FunctionalSample(vals, g)

    def test_center_removes_mean(self):
        rng = np.random.default_rng(0)
        g = make_uniform_grid(20, 0.0, 1.0)
        s = FunctionalSample(rng.normal(size=(15, 20)), g)
        centered, mean = center(s)
        np.testing.assert_allclose(centered.values.mean(axis=0), 0.0, atol=1e-14)
        np.testing.assert_allclose(mean, s.values.mean(axis=0))


class TestInnerProduct:
    def test_linear_functions_exact(self):
        # trapezoid quadrature integrates piecewise-linear integrands of
        # degree <= 1 exactly; <f, 1> with f(t) = t gives 1/2
        g = make_uniform_grid(51, 0.0, 1.0)
        f = g.points
        one = np.ones_like(f)
        assert inner_product(f, one, g) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_converges(self):
        exact = 1.0 / 3.0
        errs = []
        for m in (11, 101, 1001):
            g = make_uniform_grid(m, 0.0, 1.0)
            errs.append(abs(inner_product(g.points, g.points, g) - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_matches_weighted_sum(self):
        rng = np.random.default_rng(3)
        g = Grid.from_points(np.sort(rng.uniform(size=12)))
        f = rng.normal(size=12)
        h = rng.normal(size=12)
        assert inner_product(f, h, g) == pytest.approx(np.sum(f * h * g.weights))


class TestCsvRoundTrip:
    def test_write_read_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        g = make_uniform_grid(9, 0.0, 2.0)
        s = FunctionalSample(rng.normal(size=(5, 9)) * 1e3, g)
        path = tmp_path / "sample.csv"
        write_sample_csv(s, path)
        back = read_sample_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        np.testing.assert_array_equal(back.grid.points, s.grid.points)

    def test_written_text_is_pinned(self, tmp_path):
        g = Grid.from_points([0.0, 0.5, 1.0])
        s = FunctionalSample(np.array([[-0.0, 5e-324, 0.1], [1 / 3, 2.0, -1e300]]), g)
        path = tmp_path / "s.csv"
        write_sample_csv(s, path)
        assert path.read_bytes() == (
            b"0,0.5,1\n"
            b"-0,4.9406564584124654e-324,0.10000000000000001\n"
            b"0.33333333333333331,2,-1.0000000000000001e+300\n"
        )

    def test_header_row_is_grid(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n")
        s = read_sample_csv(path)
        assert s.n == 1
        np.testing.assert_allclose(s.grid.points, [0.0, 0.5, 1.0])

    def test_missing_rows_raise(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.0,0.5,1.0\n")
        with pytest.raises(DataError, match="at least"):
            read_sample_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,2.0\n", 3),
        ("0.0,0.5,1.0\n\n\n1.0,2.0\n", 4),
    ], ids=["no-blank-lines", "after-blank-lines"])
    def test_ragged_row_raises(self, tmp_path, text, line):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line} has"):
            read_sample_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("0.0,0.5,1.0\n1.0,oops,3.0\n", 2),
        ("0.0,0.5,1.0\n\n1.0,2.0,3.0\n1.0,oops,3.0\n", 4),
    ], ids=["no-blank-lines", "after-blank-lines"])
    def test_non_numeric_raises_with_line(self, tmp_path, text, line):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line}: non-numeric"):
            read_sample_csv(path)

    def test_bad_grid_wrapped_as_data_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.0,1.0,0.5\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            read_sample_csv(path)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        min_size=2, max_size=8, unique=True,
    ).map(sorted),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_csv_round_trip_property(points, n, data):
    g = Grid.from_points(points)
    values = data.draw(arrays(np.float64, (n, g.size), elements=st.floats(
        allow_nan=False, allow_infinity=False, allow_subnormal=True,
    )))
    sample = FunctionalSample(values, g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        write_sample_csv(sample, path)
        back = read_sample_csv(path)
    # bit-for-bit, so signed zeros and subnormals must survive too
    assert back.values.tobytes() == sample.values.tobytes()
    assert back.grid.points.tobytes() == sample.grid.points.tobytes()
    np.testing.assert_array_equal(back.grid.weights, sample.grid.weights)
