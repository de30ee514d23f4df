"""Tests for grids, functional samples, and CSV round trips."""

import io
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fflqr.fdata as fdata_mod
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("points", [
        [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, np.nan, 1.0],
    ], ids=["inf", "minus-inf", "nan"])
    def test_non_finite_points_raise(self, points):
        with pytest.raises(ValueError, match="finite"):
            Grid.from_points(points)
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array(points), np.array([0.5, 0.5, 0.0]))

    def test_nan_weights_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Grid(np.array([0.0, 1.0]), np.array([np.nan, np.nan]))

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
        ("0.0,0.5,1.0\n \t\n1.0,2.0\n", 3),
        ("0.0,0.5,1.0\r\n1.0,2.0,3.0\r\n\r\n1.0,2.0\r\n", 4),
    ], ids=["no-blank-lines", "after-blank-lines", "after-whitespace-line", "crlf"])
    def test_ragged_row_raises(self, tmp_path, text, line):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line} has"):
            read_sample_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("0.0,0.5,1.0\n1.0,oops,3.0\n", 2),
        ("0.0,0.5,1.0\n\n1.0,2.0,3.0\n1.0,oops,3.0\n", 4),
        ("0.0,0.5,1.0\n  \t \n1.0,oops,3.0\n", 3),
        ("0.0,0.5,1.0\r\n1.0,2.0,3.0\r\n\r\n1.0,oops,3.0\r\n", 4),
        ("0.0,0.5,1.0\n1.0,2.0,3.0 # c\n", 2),
        ("0.0,0.5,1.0\n1_0,2.0,3.0\n", 2),
        ("0.0,0.5,1.0\n1.0,2.0\x1c,3.0\n", 2),
        ("0.0,0.5,1.0\n1.0,2.0\n1.0,oops,3.0\n", 3),
    ], ids=[
        "no-blank-lines", "after-blank-lines", "after-whitespace-line", "crlf",
        "trailing-comment", "underscore-digits", "separator-char", "after-ragged-row",
    ])
    def test_non_numeric_raises_with_line(self, tmp_path, text, line):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"line {line}: non-numeric"):
            read_sample_csv(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_grid_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.0,0.5,inf\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="grid points must be finite"):
            read_sample_csv(path)

    def test_bad_grid_wrapped_as_data_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.0,1.0,0.5\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            read_sample_csv(path)

    def test_non_utf8_file_raises_naming_it(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"0,0.5,1\n1,2,\xff\n")
        with pytest.raises(DataError, match=r"latin\.csv: not UTF-8"):
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


def savetxt_bytes(sample: FunctionalSample) -> bytes:
    """The reference rendering: ``np.savetxt`` of the grid row, then the values."""
    buf = io.BytesIO()
    np.savetxt(buf, sample.grid.points[None, :], fmt="%.17g", delimiter=",")
    np.savetxt(buf, sample.values, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def written_bytes(sample: FunctionalSample) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        write_sample_csv(sample, path)
        return path.read_bytes()


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# Every finite double, and doubles the kernel formats: zeros, exponents -6 to
# 16, integers, half-integers and quarters from 2**49 to 2**51, whose 17
# digits often end on an exact half.
_any_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_in_kernel_range = st.one_of(
    st.sampled_from([0.0, -0.0]),
    signed(st.floats(1e-6, 1e17, exclude_max=True)),
    st.integers(-(10**16), 10**16).map(float),
    st.integers(-(10**9), 10**9).map(lambda i: i + 0.5),
    signed(st.integers(2**51, 2**53).map(lambda i: i / 4)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        min_size=2, max_size=8, unique=True,
    ).map(sorted),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_written_bytes_equal_savetxt(points, n, data):
    g = Grid.from_points(points)
    elements = data.draw(st.sampled_from([_any_finite, _in_kernel_range]))
    values = data.draw(arrays(np.float64, (n, g.size), elements=elements))
    sample = FunctionalSample(values, g)
    assert written_bytes(sample) == savetxt_bytes(sample)


class TestWrittenBytes:
    """Byte equality with ``np.savetxt(fmt="%.17g")`` where the vectorized
    formatter takes over and where it hands a block back."""

    @staticmethod
    def one_row_per_block(monkeypatch, values):
        monkeypatch.setattr(fdata_mod, "_CHUNK_BYTES", 16)  # two columns, one row
        return FunctionalSample(np.column_stack([values, values]), Grid.from_points([0.0, 1.0]))

    def test_powers_of_ten_and_neighbours(self, monkeypatch):
        values = []
        for e in range(-7, 18):
            x = float(f"1e{e}")
            values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
        values = np.array(values)
        sample = self.one_row_per_block(monkeypatch, np.concatenate([values, -values]))
        assert written_bytes(sample) == savetxt_bytes(sample)
        # The formatter takes exactly the doubles of exponent -6 to 16.
        handed_back = [v for v in values if fdata_mod._format_17g(np.array([[v]])) is None]
        assert handed_back == [*values[:5], *values[-2:]]

    def test_double_1e_minus_6_lies_below_its_decade(self, monkeypatch):
        # Its product with 10**22 rounds to 1e16 but lies below it: the
        # exponent is -7 and the value goes to np.savetxt.
        sample = self.one_row_per_block(monkeypatch, [1e-06, np.nextafter(1e-06, 1.0)])
        assert written_bytes(sample).splitlines()[1:] == [
            b"9.9999999999999995e-07,9.9999999999999995e-07",
            b"1.0000000000000002e-06,1.0000000000000002e-06",
        ]
        assert fdata_mod._format_17g(np.array([[1e-06]])) is None

    def test_ties_round_half_to_even(self, monkeypatch):
        # 2**50 + 0.25 is 1125899906842624.25: its 17th digit sits on an
        # exact half, and an even 2 ends the text.
        quarters = 2.0**50 + np.arange(-8, 9) / 4
        eighths = 2.0**49 + np.arange(-8, 9) / 8
        sample = self.one_row_per_block(monkeypatch, np.concatenate([quarters, -eighths]))
        assert written_bytes(sample) == savetxt_bytes(sample)
        assert written_bytes(sample).splitlines()[10] == b"1125899906842624.2,1125899906842624.2"

    def test_no_double_in_range_rounds_up_a_decade(self):
        # So the formatter needs no carry: the largest double below each
        # power of ten from 1e-6 to 1e17 keeps its leading 9.
        for e in range(-6, 18):
            x = float(f"1e{e}")
            below = x if Fraction(x) < Fraction(10) ** e else np.nextafter(x, 0.0)
            assert ("%.16e" % below).startswith("9.")

    def test_carry_into_the_next_decade(self, monkeypatch):
        # The double 1e-14 lies below 10**-14 and prints as 1e-14; it is
        # outside the formatter's range, beside values inside it.
        x = float("1e-14")
        assert Fraction(x) < Fraction(1, 10**14)
        sample = self.one_row_per_block(monkeypatch, [x, 0.5, -x])
        assert written_bytes(sample).splitlines()[1:] == [b"1e-14,1e-14", b"0.5,0.5", b"-1e-14,-1e-14"]

    def test_fortran_order_and_strided_views(self):
        rng = np.random.default_rng(4)
        wide = rng.normal(size=(30, 40)) * 100
        g = make_uniform_grid(20, 0.0, 1.0)
        for values in (np.asfortranarray(wide[:, :20]), wide[:, ::2], wide[::-1, 1::2]):
            sample = FunctionalSample(values, g)
            assert sample.values is values
            assert written_bytes(sample) == savetxt_bytes(sample)

    def test_value_out_of_range_in_second_block_only(self):
        rng = np.random.default_rng(5)
        p = 100
        rows = fdata_mod._CHUNK_BYTES // (8 * p) + 1
        values = rng.normal(size=(rows, p))
        values[-1, 3] = 1e-300
        sample = FunctionalSample(values, make_uniform_grid(p, 0.0, 1.0))
        assert fdata_mod._format_17g(values[:-1]) is not None
        assert written_bytes(sample) == savetxt_bytes(sample)

    def test_peak_memory_is_bounded_per_block(self, tmp_path):
        # One block at a time: formatting all 200,000 values at once would
        # trace near 80 MB.
        rng = np.random.default_rng(6)
        sample = FunctionalSample(10 + rng.normal(size=(2000, 100)), make_uniform_grid(100, 0.0, 1.0))
        path = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            write_sample_csv(sample, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def reference_read(text: str):
    """Plain-Python oracle of ``read_sample_csv``: one ``float()`` per token.

    Returns the sample, or the error message without its path prefix.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [(i, s.strip()) for i, s in enumerate(lines, start=1) if s.strip()]
    if len(lines) < 2:
        return "need a grid line and at least one curve line"
    rows = []
    for lineno, line in lines:
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            return f"line {lineno}: non-numeric entry"
    for (lineno, _), row in zip(lines[1:], rows[1:]):
        if len(row) != len(rows[0]):
            return f"line {lineno} has {len(row)} fields, expected {len(rows[0])}"
    try:
        return FunctionalSample(np.array(rows[1:]), Grid.from_points(np.array(rows[0])))
    except ValueError as exc:
        return str(exc)


_value = st.floats(-1e300, 1e300, allow_subnormal=True)
_good = st.one_of(
    _value.map(repr), _value.map(lambda v: f"{v:.3e}"), st.integers(-9, 9).map(str)
)
_bad = st.sampled_from(["inf", "-nan", "oops", "", "1 2", "1.0 # c", "1e"])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    grid=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=5, unique=True),
    data=st.data(),
)
def test_reader_matches_float_reference(grid, data):
    # Rows are good, hold one bad token or a separator after a number, or
    # are one field short or long; lines end in \n or \r\n and may follow
    # blank or whitespace-only lines.
    if data.draw(st.sampled_from([True] * 4 + [False])):
        grid = sorted(grid)
    lines = [",".join(map(repr, grid))]
    for _ in range(data.draw(st.integers(1, 4))):
        kinds = ["good"] * 3 + ["bad", "short", "long", "separator"]
        kind = data.draw(st.sampled_from(kinds))
        k = len(grid) + {"short": -1, "long": 1}.get(kind, 0)
        row = [data.draw(_good) for _ in range(k)]
        if kind in ("bad", "separator"):
            j = data.draw(st.integers(0, k - 1))
            row[j] = data.draw(_bad) if kind == "bad" else row[j] + "\x1c"
        pad = st.sampled_from(["", "", " ", "\t"])
        edge = data.draw(st.sampled_from(["", "", "\x1c"]))
        lines.append(edge + ",".join(data.draw(pad) + tok + data.draw(pad) for tok in row))
    blanks = st.lists(st.sampled_from(["", " ", "\t \x1c"]), max_size=2)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(newline.join(data.draw(blanks) + [line]) + newline for line in lines)
    expected = reference_read(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        path.write_bytes(text.encode())
        try:
            got = read_sample_csv(path)
        except DataError as exc:
            assert str(exc) == f"{path}: {expected}"
            return
    assert not isinstance(expected, str), expected
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.grid.points.tobytes() == expected.grid.points.tobytes()
    assert got.grid.weights.tobytes() == expected.grid.weights.tobytes()
