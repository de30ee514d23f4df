"""Discretized functional data: grids, quadrature, samples of curves, CSV I/O.

A curve is represented by its values on a shared, strictly increasing grid.
All integrals in the package are trapezoidal quadrature sums against the
weights stored on the grid, so a ``Grid`` carries both the evaluation points
and the matching weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Grid",
    "FunctionalSample",
    "make_uniform_grid",
    "inner_product",
    "center",
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
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if weights.shape != points.shape:
            raise ValueError("weights must match points in shape")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        length = points[-1] - points[0]
        if abs(weights.sum() - length) > 1e-12 * max(1.0, length):
            raise ValueError("weights must sum to the interval length")

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Build a grid with trapezoidal weights from the points alone."""
        points = np.asarray(points, dtype=float)
        usable = points.ndim == 1 and points.size >= 2
        return cls(points, _trapezoid_weights(points) if usable else points)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def length(self) -> float:
        return float(self.points[-1] - self.points[0])

    def close_to(self, other: "Grid", atol: float = 1e-12) -> bool:
        """Whether two grids share the same points up to ``atol``."""
        return self.size == other.size and bool(
            np.allclose(self.points, other.points, rtol=0.0, atol=atol)
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


def inner_product(f, g, grid: Grid) -> float:
    """Quadrature inner product ``sum_j w_j f_j g_j`` of two curves."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (grid.size,) or g.shape != (grid.size,):
        raise ValueError("f and g must be vectors of the grid length")
    return float(np.sum(grid.weights * f * g))


def center(sample: FunctionalSample) -> tuple[FunctionalSample, np.ndarray]:
    """Remove the pointwise sample mean curve.

    Returns
    -------
    centered : FunctionalSample
        Sample with column means zero.
    mean : ndarray, shape (p,)
        The removed mean curve.
    """
    mean = sample.values.mean(axis=0)
    return FunctionalSample(sample.values - mean, sample.grid), mean


def read_sample_csv(path) -> FunctionalSample:
    """Read a functional sample from wide CSV.

    The first line holds the comma-separated grid points; each following
    line holds one curve. Blank lines are skipped, and errors name the line
    of the file. Ragged rows are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, s.strip()) for i, s in enumerate(fh, start=1) if s.strip()]
    if len(lines) < 2:
        raise DataError(f"{path}: need a grid line and at least one curve line")
    rows = []
    for lineno, line in lines:
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric entry") from exc
        rows.append(row)
    width = len(rows[0])
    for (lineno, _), row in zip(lines[1:], rows[1:]):
        if len(row) != width:
            raise DataError(
                f"{path}: line {lineno} has {len(row)} fields, expected {width}"
            )
    try:
        grid = Grid.from_points(np.array(rows[0]))
        return FunctionalSample(np.array(rows[1:]), grid)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_sample_csv(sample: FunctionalSample, path) -> None:
    """Write a functional sample in the wide CSV format used by this package.

    17 significant digits round-trip any float64 exactly through text.
    """
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, sample.grid.points[None, :], fmt="%.17g", delimiter=",")
        np.savetxt(fh, sample.values, fmt="%.17g", delimiter=",")
