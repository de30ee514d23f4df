"""B-spline basis evaluation with clamped uniform knots."""

from __future__ import annotations

import numpy as np

__all__ = ["bspline_knots", "bspline_design"]


def bspline_knots(n_basis: int, order: int, a: float, b: float) -> np.ndarray:
    """Clamped knot vector with uniformly spaced interior knots.

    The first and last knots repeat ``order`` times; ``n_basis - order``
    interior knots are equally spaced inside ``(a, b)``.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if n_basis < order:
        raise ValueError("n_basis must be at least the order")
    if not a < b:
        raise ValueError("need a < b")
    n_interior = n_basis - order
    interior = np.linspace(a, b, n_interior + 2)[1:-1]
    return np.concatenate([np.full(order, a), interior, np.full(order, b)])


def bspline_design(x, n_basis: int, order: int, a: float, b: float) -> np.ndarray:
    """Evaluate all basis functions at the points ``x``, which lie in ``[a, b]``.

    Returns
    -------
    ndarray, shape (len(x), n_basis)
        Row j holds the basis values at ``x[j]``. Rows sum to 1 for x in
        ``[a, b]`` (partition of unity).
    """
    # Loaded on first use: it costs a command about 0.4 s and 23 MB to import.
    from scipy.interpolate import BSpline

    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = bspline_knots(n_basis, order, a, b)
    return BSpline.design_matrix(x, t, order - 1).toarray()
