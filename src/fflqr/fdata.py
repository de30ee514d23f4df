"""Discretized functional data: grids, quadrature, samples of curves, CSV I/O.

A curve is represented by its values on a shared, strictly increasing grid.
All integrals in the package are trapezoidal quadrature sums against the
weights stored on the grid, so a ``Grid`` carries both the evaluation points
and the matching weights.

Curves are written as ``%.17g`` text by a numpy kernel that formats a block
of values at once and gives the bytes of ``np.savetxt``; blocks holding a
value outside its range go through ``np.savetxt`` itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Grid",
    "FunctionalSample",
    "make_uniform_grid",
    "read_sample_csv",
    "write_sample_csv",
]


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for strictly increasing points."""
    w = np.empty_like(points)
    w[0] = (points[1] - points[0]) / 2.0
    w[-1] = (points[-1] - points[-2]) / 2.0
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


@dataclass(frozen=True)
class Grid:
    """Evaluation points on a closed interval with quadrature weights.

    Parameters
    ----------
    points : ndarray, shape (p,)
        Strictly increasing grid points, ``p >= 2``.
    weights : ndarray, shape (p,)
        Nonnegative quadrature weights summing to the interval length.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if weights.shape != points.shape:
            raise ValueError("weights must match points in shape")
        if not np.all(weights >= 0):
            raise ValueError("quadrature weights must be nonnegative")
        length = points[-1] - points[0]
        if abs(weights.sum() - length) > 1e-12 * max(1.0, length):
            raise ValueError("weights must sum to the interval length")

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Build a grid with trapezoidal weights from the points alone."""
        points = np.asarray(points, dtype=float)
        usable = points.ndim == 1 and points.size >= 2 and np.all(np.isfinite(points))
        return cls(points, _trapezoid_weights(points) if usable else points)

    @property
    def size(self) -> int:
        return self.points.size

    def close_to(self, other: "Grid") -> bool:
        """Whether two grids share the same points up to 1e-12."""
        return self.size == other.size and bool(
            np.allclose(self.points, other.points, rtol=0.0, atol=1e-12)
        )


def make_uniform_grid(n_points: int, a: float, b: float) -> Grid:
    """Equally spaced grid on ``[a, b]`` with trapezoidal weights.

    Parameters
    ----------
    n_points : int
        Number of points, at least 2.
    a, b : float
        Interval endpoints, ``a < b``.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not a < b:
        raise ValueError("need a < b")
    points = np.linspace(a, b, n_points)
    h = (b - a) / (n_points - 1)
    weights = np.full(n_points, h)
    weights[0] = h / 2.0
    weights[-1] = h / 2.0
    return Grid(points, weights)


@dataclass(frozen=True)
class FunctionalSample:
    """``n`` curves evaluated on a common grid.

    Parameters
    ----------
    values : ndarray, shape (n, p)
        One row per curve; column ``j`` holds evaluations at ``grid.points[j]``.
    grid : Grid
        Shared evaluation grid with ``p`` points.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array of shape (n, p)")
        object.__setattr__(self, "values", values)
        if values.shape[1] != self.grid.size:
            raise ValueError(
                f"curves have {values.shape[1]} columns but the grid has "
                f"{self.grid.size} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must all be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]


# numpy strips these around a field, float() rejects them; as "?" both reject them.
_SEPARATORS = str.maketrans(dict.fromkeys("\x1c\x1d\x1e\x1f", "?"))


def _line_error(lines) -> str | None:
    """The first of ``(lineno, line)`` that numpy cannot parse alone, else the
    first whose field count differs from the grid line's."""
    for lineno, line in lines:
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return f"line {lineno}: non-numeric entry"
    width = lines[0][1].count(",") + 1
    for lineno, line in lines[1:]:
        if line.count(",") + 1 != width:
            return f"line {lineno} has {line.count(',') + 1} fields, expected {width}"
    return None


def read_sample_csv(path) -> FunctionalSample:
    """Read a functional sample from wide CSV.

    The first line holds the comma-separated grid points; each following
    line holds one curve. numpy's parser reads the values, so Python-only
    spellings such as ``1_0`` are rejected. Blank and whitespace-only lines
    are skipped, and errors name the line of the file. Ragged rows and
    non-finite grid points are rejected, as is a file that is not UTF-8; a
    leading UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = [(i, s.strip()) for i, s in enumerate(text.split("\n"), 1) if s.strip()]
    if any(chr(c) in text for c in _SEPARATORS):
        lines = [(i, s.translate(_SEPARATORS)) for i, s in lines]
    if len(lines) < 2:
        raise DataError(f"{path}: need a grid line and at least one curve line")
    try:
        table = np.loadtxt([s for _, s in lines], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: {_line_error(lines) or exc}") from exc
    try:
        return FunctionalSample(table[1:], Grid.from_points(table[0]))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# Bytes of the values formatted at once: the kernel's temporaries take about
# 50 times as much (1.6 MiB).
_CHUNK_BYTES = 1 << 15

_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 1e22


def _times_pow10(a, k):
    """Dekker's exact product a * 10**k == p + err (numpy has no fma): each
    factor is split by 2**27 + 1 into halves of at most 26 bits."""
    c = _POW10[k]
    p, ta, tc = a * c, a * 134217729.0, c * 134217729.0
    ah, ch = ta - (ta - a), tc - (tc - c)
    al, cl = a - ah, c - ch
    return p, al * cl - (((p - ah * ch) - al * ch) - ah * cl)


@functools.cache
def _tables():
    """The kernel's byte tables, built on first use, so that a process that
    writes no curve CSV does not hold them.

    Each value is laid out in six 8-byte words holding every byte a %.17g
    text can need: "-0.000" (the sign and the zeros of 0.000ddd), the 17
    digits each followed by a candidate ".", "e-05"/"e-06" and the
    separator. Negative values keep the sign; a value of kind c = e + 6 (23
    for zeros) whose last nonzero digit is its s-th keeps byte j > 0 where
    ``keep_masks[17 c + s - 1, j]``.
    """
    head_words = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
    group_words = np.frombuffer(
        bytes(b for i in range(10000) for c in b"%04d" % i for b in (c, 46)), np.uint64
    )
    tail_words = np.frombuffer(b"e-056,\0\0e-056\n\0\0", np.uint64)  # inside a row, at its end
    group_places = np.array([len((b"%04d" % i).rstrip(b"0")) for i in range(10000)], np.int8)
    # Byte j of kind c is kept where ranks[c, j] < s: 99 never, -1 always.
    ranks = np.full((24, 48), 99, dtype=np.int8)
    ranks[:, 45] = -1
    ranks[23, 1] = -1
    for e, row in zip(range(-6, 17), ranks):
        row[6:40:2] = np.arange(17)
        if e >= 0:  # ddd.ddd: the integer digits stay, the point if a digit follows
            row[6:8 + 2 * e:2] = -1
            row[7 + 2 * e] = e + 1
        elif e >= -4:  # 0.000ddd
            row[1:2 - e] = -1
        else:  # d.ddde-0X
            row[7] = 1
            row[[40, 41, 42, 38 - e]] = -1
    # Both sides int8, so numpy compares without casting through 128 KiB buffers.
    s = np.arange(1, 18, dtype=np.int8)
    keep_masks = (ranks[:, None] < s[:, None]).reshape(-1, 48)
    return head_words, group_words, tail_words, group_places, keep_masks


def _format_17g(block: np.ndarray) -> str | None:
    """``np.savetxt(fh, block, fmt="%.17g", delimiter=",")`` text of a 2-D block,
    or None if a nonzero value has a decimal exponent outside [-6, 16], where
    10**(16 - e) is no exact double."""
    x = np.ascontiguousarray(block).ravel()
    a = np.abs(x)
    zero = a == 0
    a[zero] = 1.0
    if not (a.min() >= 1e-6 and a.max() < 1e17):  # NaN and inf fail this too
        return None
    # a * 10**(16 - e) lies in [1e16, 1e17). e starts from log10 and is put
    # right on the exact pair, never on a rounded product: the double 1e-06
    # lies below 10**-6, yet its product with 10**22 rounds to 1e16.
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    p, err = _times_pow10(a, k)
    above = (p > 1e17) | (p == 1e17) & (err >= 0)
    below = (p < 1e16) | (p == 1e16) & (err < 0)
    e = 16 - k + above - below
    if e.min() < -6:
        return None
    redo = np.flatnonzero(e != 16 - k)
    p[redo], err[redo] = _times_pow10(a[redo], 16 - e[redo])
    # p >= 1e16 > 2**53 is an even integer, so rint rounds half to even as
    # dtoa does. No double in range rounds up to 10**17: the nearest below a
    # power of ten is 4.5e-17 of it away, and rounding up takes under 5e-18.
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    head_words, group_words, tail_words, group_places, keep_masks = _tables()
    words = np.empty((x.size, 6), dtype=np.uint64)
    words[:, 0] = head_words[lead]
    for j, group in enumerate(groups, 1):
        words[:, j] = group_words[group]
    words[:, 5] = tail_words[0]
    words.reshape(len(block), -1, 6)[:, -1, 5] = tail_words[1]
    significant = 1 + group_places[groups[0]]
    for offset, group in zip((5, 9, 13), groups[1:]):
        significant = np.where(group != 0, offset + group_places[group], significant)
    keep = np.take(keep_masks, 17 * np.where(zero, 23, e + 6) + significant - 1, axis=0)
    keep[:, 0] = np.signbit(x)
    return np.compress(keep.ravel(), words.view(np.uint8)).tobytes().decode("ascii")


def write_sample_csv(sample: FunctionalSample, path) -> None:
    """Write a functional sample in the wide CSV format used by this package.

    17 significant digits round-trip any float64 exactly through text. The
    bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on the grid
    row and the values. Blocks of rows are formatted by ``_format_17g``; a
    block holding a nonzero value below about 1e-6 or from 1e17 up is written
    by ``np.savetxt``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for rows in (sample.grid.points[None, :], sample.values):
            step = max(1, _CHUNK_BYTES // (8 * rows.shape[1]))
            for start in range(0, len(rows), step):
                block = rows[start:start + step]
                text = _format_17g(block)
                if text is None:
                    np.savetxt(fh, block, fmt="%.17g", delimiter=",")
                else:
                    fh.write(text)
