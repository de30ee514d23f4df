"""B-spline basis evaluation with clamped uniform knots."""

from __future__ import annotations

import numpy as np

__all__ = ["bspline_design"]


def bspline_design(x, n_basis: int, order: int, a: float, b: float) -> np.ndarray:
    """Evaluate all basis functions at the points ``x``, which lie in ``[a, b]``.

    The knots are clamped: ``a`` and ``b`` repeat ``order`` times, and
    ``n_basis - order`` interior knots are equally spaced inside ``(a, b)``.

    Returns
    -------
    ndarray, shape (len(x), n_basis)
        Row j holds the basis values at ``x[j]``. Rows sum to 1 for x in
        ``[a, b]`` (partition of unity).
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if n_basis < order:
        raise ValueError("n_basis must be at least the order")
    if not a < b:
        raise ValueError("need a < b")
    # Loaded on first use: it costs a command about 0.4 s and 23 MB to import.
    from scipy.interpolate import BSpline

    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.r_[np.full(order, a), np.linspace(a, b, n_basis - order + 2)[1:-1], np.full(order, b)]
    return BSpline.design_matrix(x, t, order - 1).toarray()
