"""Synthetic data generation and the Monte Carlo comparison harness.

Predictor curves are overlapping sums of Gaussian process fields, the
response integrates a subset of them against fixed bivariate coefficient
surfaces, and errors follow an exactly discretized Ornstein-Uhlenbeck
process. The harness runs replicated train/test comparisons of the
quantile estimator against its least squares baselines.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .bands import MetricsReport, _paired_band, bootstrap_band, cpd, interval_score, mspe
from .errors import ConfigError, NumericalError
from .fdata import FunctionalSample, Grid, make_uniform_grid
from .model import (
    CoefficientSurface, _basis_coordinates, _decompose, _fit_for, _is_int, _unwrap, predict,
)
from .selection import _choice, _drive, _widths

__all__ = [
    "SimConfig",
    "SimData",
    "squared_exp_kernel",
    "sample_gp",
    "gen_predictors",
    "true_beta",
    "gen_ou_errors",
    "gen_response",
    "contaminate",
    "generate_dataset",
    "run_monte_carlo",
    "write_study_tables",
    "ALL_METHODS",
    "ALL_MODELS",
]

ALL_METHODS = ("fflqr", "fpc-ls", "bspline-ls")
ALL_MODELS = ("full", "true", "selected")
# Each model's report rows in table order, one bootstrap seed each: one per
# estimator, then the check-loss estimator's paired-quantile band.
_ROWS = (*ALL_METHODS, "fflqr-direct")
# Replicates run in lockstep, so that their selection stages share core
# calls; each live replicate holds its data and decompositions. On the
# default 20-replicate study (2-core box, OpenBLAS on 1 thread, median of
# 15 runs), windows of 1, 2, 4 and 8 took 2.60, 2.24, 2.11 and 2.12 s and
# peaked at 93, 98, 110 and 133 MB: 4 is the smallest within 2% of the best.
_WINDOW = 4


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number; a ``bool`` is not."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# What each annotated type of a SimConfig field admits, and how to say so.
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite_real),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "str": ("a string", lambda value: isinstance(value, str)),
}


@dataclass(frozen=True)
class SimConfig:
    """All knobs of the synthetic experiment.

    Defaults reproduce the standard scenario: five correlated predictors on
    100 grid points, three of them driving the response, with
    Ornstein-Uhlenbeck errors.
    """

    n_train: int = 200
    n_test: int = 300
    n_grid: int = 100
    M: int = 5
    lag: int = 4
    sigma: float = 1.0
    error_dist: str = "normal"
    ou_gamma: float = 0.0
    ou_theta: float = 1.0
    contamination_rate: float = 0.0
    outlier_mean: float = 10.0
    outlier_var: float = 0.04
    outlier_per_point: bool = False
    tau: float = 0.5
    n_replicates: int = 20
    master_seed: int = 0
    significant: tuple = (2, 4, 5)
    fixed_k: int = 2
    k_y_max: int = 5
    k_x_max: int = 5
    bootstrap_R: int = 100
    scenario: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, accepts = _FIELD_KINDS.get(f.type, (None, None))
            if kind is not None and not accepts(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.n_train < 2 or self.n_test < 1:
            raise ConfigError("n_train must be >= 2 and n_test >= 1")
        if self.n_grid < 2:
            raise ConfigError("n_grid must be at least 2")
        if self.M < 1 or self.lag < 0:
            raise ConfigError("need M >= 1 and lag >= 0")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.error_dist not in ("normal", "chisq1"):
            raise ConfigError(
                f"error_dist must be 'normal' or 'chisq1', got {self.error_dist!r}"
            )
        if self.ou_theta <= 0:
            raise ConfigError("ou_theta must be positive")
        if not 0.0 <= self.contamination_rate < 1.0:
            raise ConfigError("contamination_rate must lie in [0, 1)")
        if self.outlier_var < 0:
            raise ConfigError("outlier_var must be nonnegative")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie strictly inside (0, 1)")
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be at least 1")
        object.__setattr__(self, "significant", tuple(self.significant))
        if not all(_is_int(m) and 1 <= m <= self.M for m in self.significant):
            raise ConfigError("significant predictor labels must be integers in 1..M")
        labels = list(self.significant)
        if not labels or len(set(labels)) < len(labels):
            raise ConfigError(f"significant must be one or more distinct labels, got {labels}")
        if self.fixed_k < 1 or self.k_y_max < 1 or self.k_x_max < 1:
            raise ConfigError("truncation settings must be at least 1")
        if self.bootstrap_R < 2:
            raise ConfigError("bootstrap_R must be at least 2")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def label(self) -> str:
        if self.scenario:
            return self.scenario
        return (
            f"{self.error_dist}-sigma{self.sigma:g}"
            f"-contam{self.contamination_rate:g}"
        )


@dataclass(frozen=True)
class SimData:
    """One generated train/test split.

    ``Y_test_signal`` holds the error-free structural part of the test
    response; prediction accuracy is judged against it, while interval
    coverage is judged against the observed ``Y_test``.
    """

    Y_train: FunctionalSample
    X_train: list
    Y_test: FunctionalSample
    X_test: list
    Y_test_signal: FunctionalSample
    contaminated: tuple
    s_grid: Grid
    t_grid: Grid


def squared_exp_kernel(width: float = 100.0):
    """Squared exponential covariance ``exp(-width (s - s')^2)``."""

    def kernel(s, t):
        return np.exp(-width * (np.asarray(s) - np.asarray(t)) ** 2)

    return kernel


def _gram_factor(kernel, grid: Grid):
    """Lower Cholesky factor of the kernel Gram matrix on a grid, found with a
    small escalating diagonal jitter; None for an identically zero kernel."""
    pts = grid.points
    gram = np.asarray(kernel(pts[:, None], pts[None, :]), dtype=float)
    gram = (gram + gram.T) / 2.0
    if np.max(np.abs(gram)) == 0.0:
        return None
    jitter = 1e-10
    for attempt in range(3):
        try:
            return np.linalg.cholesky(gram + jitter * np.eye(grid.size))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError("kernel Gram matrix is not positive definite")


def sample_gp(kernel, grid: Grid, n: int, rng) -> FunctionalSample:
    """Draw mean-zero Gaussian process paths on a grid.

    The kernel Gram matrix is factorized with a small escalating diagonal
    jitter; an identically zero kernel yields the all-zero sample.
    """
    factor = _gram_factor(kernel, grid)
    if factor is None:
        return FunctionalSample(np.zeros((n, grid.size)), grid)
    return FunctionalSample(rng.standard_normal((n, grid.size)) @ factor.T, grid)


def gen_predictors(config: SimConfig, rng, n: int = None) -> list:
    """Generate the M correlated predictor samples.

    Each predictor is 10 plus a normalized sum of ``lag + 1`` consecutive
    fields out of ``M + lag`` independent Gaussian process draws, so
    neighbors share most of their components. The fields share one factored
    kernel Gram matrix.
    """
    if n is None:
        n = config.n_train + config.n_test
    s_grid = make_uniform_grid(config.n_grid, 0.0, 1.0)
    factor = _gram_factor(squared_exp_kernel(100.0), s_grid)
    fields_v = [
        rng.standard_normal((n, config.n_grid)) @ factor.T
        for _ in range(config.M + config.lag)
    ]
    scale = math.sqrt(config.lag + 1)
    out = []
    for m in range(config.M):
        total = np.zeros((n, config.n_grid))
        for j in range(config.lag + 1):
            total += fields_v[m + j]
        out.append(FunctionalSample(10.0 + total / scale, s_grid))
    return out


def true_beta(m: int, s_grid: Grid, t_grid: Grid) -> CoefficientSurface:
    """The five closed-form coefficient surfaces driving the response."""
    s = s_grid.points[:, None]
    t = t_grid.points[None, :]
    if m == 1:
        values = (1.0 - s) ** 2 * (t - 0.5) ** 2
    elif m == 2:
        values = np.exp(-3.0 * (s - 1.0) ** 2 - 5.0 * (t - 0.5) ** 2)
    elif m == 3:
        values = np.exp(-5.0 * (s - 0.5) ** 2 - 5.0 * (t - 0.5) ** 2) + 8.0 * np.exp(
            -5.0 * (s - 1.5) ** 2 - 5.0 * (t - 0.5) ** 2
        )
    elif m == 4:
        values = np.sin(1.5 * np.pi * s) * np.sin(np.pi * t)
    elif m == 5:
        values = np.sqrt(s * t)
    else:
        raise ValueError(f"no coefficient surface defined for predictor {m}")
    values = np.broadcast_to(values, (s_grid.size, t_grid.size)).copy()
    return CoefficientSurface(values, s_grid, t_grid, m, 0.5)


def gen_ou_errors(
    config: SimConfig, grid: Grid, n: int, rng, eps0: np.ndarray = None
) -> FunctionalSample:
    """Ornstein-Uhlenbeck error paths via exact discretization.

    With normal errors the paths start from the stationary law, so sigma = 0
    gives identically zero noise (for ou_gamma = 0). With chisq1 errors the
    start value is a raw chi-square(1) draw and the innovations are
    standardized chi-square(1), keeping the second-moment structure while
    skewing the marginals.

    Parameters
    ----------
    eps0 : ndarray, optional
        Fixed start values (length n) overriding the random draw.
    """
    gamma, theta, sigma = config.ou_gamma, config.ou_theta, config.sigma
    p = grid.size
    if eps0 is not None:
        start = np.asarray(eps0, dtype=float) * np.ones(n)
    elif config.error_dist == "normal":
        start = gamma + sigma / math.sqrt(2.0 * theta) * rng.standard_normal(n)
    else:
        start = rng.chisquare(1.0, size=n)

    if config.error_dist == "normal":
        innov = rng.standard_normal((n, p - 1))
    else:
        innov = (rng.chisquare(1.0, size=(n, p - 1)) - 1.0) / math.sqrt(2.0)

    values = np.empty((n, p))
    values[:, 0] = start
    dts = np.diff(grid.points)
    decay = np.exp(-theta * dts)
    scale = sigma * np.sqrt((1.0 - np.exp(-2.0 * theta * dts)) / (2.0 * theta))
    for j in range(p - 1):
        values[:, j + 1] = (
            gamma + (values[:, j] - gamma) * decay[j] + scale[j] * innov[:, j]
        )
    return FunctionalSample(values, grid)


def gen_response(
    X: list, errors: FunctionalSample, D, s_grid: Grid, t_grid: Grid
) -> FunctionalSample:
    """Integrate the significant predictors against their true surfaces."""
    n = errors.n
    values = errors.values.copy()
    for m in D:
        xm = X[m - 1]
        if xm.n != n:
            raise ValueError("predictor and error sample sizes differ")
        surface = true_beta(m, s_grid, t_grid)
        values += xm.values @ (s_grid.weights[:, None] * surface.values)
    return FunctionalSample(values, t_grid)


def contaminate(
    Y: FunctionalSample,
    rate: float,
    mean: float = 10.0,
    var: float = 0.04,
    rng=None,
    per_point: bool = False,
) -> tuple:
    """Shift a random subset of curves upward by folded normal outliers.

    ``floor(n * rate)`` distinct curves each get one scalar
    ``|Normal(mean, var)|`` added everywhere; with ``per_point`` the draw is
    instead made independently at every grid point.

    Returns
    -------
    (sample, indices)
        The contaminated sample and the sorted affected row indices.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    n = Y.n
    k = int(n * rate)
    if k == 0:
        return Y, ()
    if rng is None:
        rng = np.random.default_rng()
    rows = np.sort(rng.choice(n, size=k, replace=False))
    sd = math.sqrt(var)
    if per_point:
        shift = np.abs(rng.normal(mean, sd, size=(k, Y.n_points)))
    else:
        shift = np.abs(rng.normal(mean, sd, size=k))[:, None]
    values = Y.values.copy()
    values[rows] += shift
    return FunctionalSample(values, Y.grid), tuple(int(i) for i in rows)


def generate_dataset(config: SimConfig, seed) -> SimData:
    """Generate one train/test split; only training curves are contaminated."""
    rng = np.random.default_rng(seed)
    n = config.n_train + config.n_test
    s_grid = make_uniform_grid(config.n_grid, 0.0, 1.0)
    t_grid = make_uniform_grid(config.n_grid, 0.0, 1.0)
    X = gen_predictors(config, rng, n)
    errors = gen_ou_errors(config, t_grid, n, rng)
    no_errors = FunctionalSample(np.zeros((n, config.n_grid)), t_grid)
    signal = gen_response(X, no_errors, config.significant, s_grid, t_grid)
    Y_values = signal.values + errors.values

    tr = slice(0, config.n_train)
    te = slice(config.n_train, n)
    Y_train = FunctionalSample(Y_values[tr], t_grid)
    Y_test = FunctionalSample(Y_values[te], t_grid)
    Y_test_signal = FunctionalSample(signal.values[te], t_grid)
    X_train = [FunctionalSample(x.values[tr], s_grid) for x in X]
    X_test = [FunctionalSample(x.values[te], s_grid) for x in X]

    contaminated = ()
    if config.contamination_rate > 0:
        Y_train, contaminated = contaminate(
            Y_train,
            config.contamination_rate,
            config.outlier_mean,
            config.outlier_var,
            rng,
            config.outlier_per_point,
        )
    return SimData(
        Y_train, X_train, Y_test, X_test, Y_test_signal, contaminated,
        s_grid, t_grid,
    )


def _replicate_reports(config: SimConfig, replicate: int, child, methods, models, alpha):
    """Generator of the reports of one replicate: it yields each model
    choice's ``_fit_stack`` requests (see ``selection._drive``) and returns
    the reports. Each training sample is decomposed once, and the response
    expanded in the B-spline basis once; every model's selection and fits
    slice these. The check-loss point fit is the selection's own solve, and
    with ``alpha`` the paired band's two levels share one stacked solve.
    Only bootstrap refits decompose (their resamples)."""
    data_ss, boot_ss = child.spawn(2)
    data = generate_dataset(config, data_ss)
    scenario = config.label()
    boot_children = boot_ss.spawn(len(ALL_MODELS) * len(_ROWS))
    # One decomposition per training sample: every model and fit slices it.
    Y, X = data.Y_train, data.X_train
    ks = (config.fixed_k, config.k_y_max, config.k_x_max)
    dec = _decompose(Y, X, *_widths(Y, X, *ks))
    coords = _basis_coordinates(Y) if "bspline-ls" in methods else None
    labels = {"full": tuple(range(1, config.M + 1)), "true": config.significant}

    def report(method, band):
        # The row of ``method`` under the current model and prediction error;
        # CPD and interval score only when a band is given.
        scores = (None, None) if band is None else (
            cpd(band, data.Y_test, alpha), interval_score(band, data.Y_test, alpha)
        )
        return MetricsReport(err, *scores, method, model, scenario, replicate, config.master_seed)

    reports = []
    for model in ALL_MODELS:
        if model not in models:
            continue
        D, k_y, k_x, _, model_dec, chosen = yield from _choice(
            Y, dec, config.tau, labels.get(model), *ks
        )
        X_tr = [X[i - 1] for i in D]
        X_te = [data.X_test[i - 1] for i in D]
        for method in ALL_METHODS:
            if method not in methods:
                continue
            decs = coords if method == "bspline-ls" else [model_dec]
            fit = chosen if method == "fflqr" else _unwrap(
                _fit_for(method, Y, X_tr, [config.tau], k_y, k_x, D, decs)[0][0]
            )
            err = mspe(data.Y_test_signal, predict(fit, X_te))
            band = None
            if alpha is not None:
                slot = ALL_MODELS.index(model) * len(_ROWS) + _ROWS.index(method)
                band = bootstrap_band(
                    Y, X_tr, X_te, config.tau, alpha, k_y, k_x,
                    R=config.bootstrap_R, seed=boot_children[slot], method=method,
                )
            reports.append(report(method, band))
            if method == "fflqr" and alpha is not None:
                levels = [alpha / 2.0, 1.0 - alpha / 2.0]
                (fits,) = _fit_for(method, Y, X_tr, levels, k_y, k_x, D, [model_dec])
                reports.append(report("fflqr-direct", _paired_band(fits, X_te, alpha, Y.grid)))
    return reports


def run_monte_carlo(
    config: SimConfig,
    methods=ALL_METHODS,
    models=ALL_MODELS,
    alpha: float = None,
    n_threads: int = 1,
) -> list:
    """Replicated train/test comparison of the requested estimators.

    Prediction error is measured against the error-free test signal;
    interval coverage metrics use the observed test curves.

    Parameters
    ----------
    config : SimConfig
        Its truncations must not exceed min(n_train - 1, n_grid), and a
        requested full or true model's widest design, ``1 + |D| k_x_max``
        columns, must not exceed n_train (``ConfigError`` otherwise).
    methods : iterable of str
        Subset of {"fflqr", "fpc-ls", "bspline-ls"}.
    models : iterable of str
        Subset of {"full", "true", "selected"}: all M predictors, the
        significant ones, or forward selection's choice. Each replicate tunes
        the truncations of the first two by BIC search on the training data.
    alpha : float, optional
        When given, bootstrap bands (plus a paired-quantile band for the
        check-loss method) are evaluated and CPD/interval score reported.
        It must lie in (0, 1) (``ConfigError`` otherwise).
    n_threads : int
        Worker threads, at least 1 (``ConfigError`` otherwise). Replicates
        run in consecutive windows of ``_WINDOW``, whose selection stages
        share one core call each (``selection._drive``); each thread takes
        whole windows. Output order and content depend on neither.

    Returns
    -------
    list of MetricsReport
        Grouped by replicate, then model, then method.
    """
    methods = set(methods)
    models = set(models)
    bad = methods - set(ALL_METHODS)
    if bad:
        raise ConfigError(f"unknown method(s): {', '.join(sorted(bad))}")
    bad = models - set(ALL_MODELS)
    if bad:
        raise ConfigError(f"unknown model(s): {', '.join(sorted(bad))}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if n_threads < 1:
        raise ConfigError(f"thread count must be at least 1, got {n_threads}")
    k_cap = min(config.n_train - 1, config.n_grid)
    if max(config.fixed_k, config.k_y_max, config.k_x_max) > k_cap:
        raise ConfigError(
            f"fixed_k, k_y_max and k_x_max must not exceed min(n_train - 1, n_grid) = {k_cap}"
        )
    for model, width in (("full", config.M), ("true", len(config.significant))):
        columns = 1 + width * config.k_x_max
        if model in models and columns > config.n_train:
            raise ConfigError(
                f"the {model} model's truncation search needs {columns} design "
                f"columns at k_x_max = {config.k_x_max}, more than n_train = {config.n_train}"
            )

    children = np.random.SeedSequence(config.master_seed).spawn(config.n_replicates)

    def replicate(r):
        # Made inside a generator, so a NumericalError at the call fails r alone.
        return (yield from _replicate_reports(config, r, children[r], methods, models, alpha))

    def task(window):
        return _drive([replicate(r) for r in window])

    replicates = range(config.n_replicates)
    windows = [replicates[i:i + _WINDOW] for i in replicates[::_WINDOW]]
    if n_threads == 1:
        outcomes = [o for window in windows for o in task(window)]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = [o for result in pool.map(task, windows) for o in result]

    failures = [(r, o) for r, o in enumerate(outcomes) if isinstance(o, Exception)]
    if len(failures) > 0.2 * config.n_replicates:
        detail = "; ".join(f"replicate {r}: {e}" for r, e in failures[:5])
        raise NumericalError(
            f"{len(failures)} of {config.n_replicates} replicates failed ({detail})"
        )
    reports = []
    for o in outcomes:
        if not isinstance(o, Exception):
            reports.extend(o)
    return reports


# The metric columns of the study's tables, each with the MetricsReport
# attribute it reads. A metric that was not computed (None) is left empty.
_METRICS = {"mspe": "mspe", "cpd": "cpd", "score": "interval_score"}


def write_study_tables(reports, out) -> list:
    """Write ``results.csv`` (one row per report), ``summary.csv`` (median, IQR
    and count of each computed model × row × metric cell) and ``long.csv`` (one
    row per computed metric value, in report order) into the directory ``out``;
    returns their names."""
    out = Path(out)
    with open(out / "results.csv", "w", encoding="utf-8") as fh:
        fh.write("seed,replicate,method,model,scenario," + ",".join(_METRICS) + "\n")
        for r in reports:
            values = (getattr(r, attr) for attr in _METRICS.values())
            fh.write(
                f"{r.seed},{r.replicate},{r.method},{r.model},{r.scenario},"
                + ",".join("" if v is None else f"{v:.17g}" for v in values) + "\n"
            )
    cells = [(r, metric, getattr(r, attr)) for r in reports for metric, attr in _METRICS.items()
             if getattr(r, attr) is not None]
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("method,model,metric,median,iqr,n\n")
        for model, method, metric in itertools.product(ALL_MODELS, _ROWS, _METRICS):
            values = [v for r, m, v in cells
                      if (r.model, r.method, m) == (model, method, metric)]
            if values:
                iqr = np.quantile(values, 0.75) - np.quantile(values, 0.25)
                fh.write(
                    f"{method},{model},{metric},{np.median(values):.17g},"
                    f"{iqr:.17g},{len(values)}\n"
                )
    with open(out / "long.csv", "w", encoding="utf-8") as fh:
        fh.write("seed,replicate,method,model,scenario,metric,value\n")
        for r, metric, value in cells:
            fh.write(
                f"{r.seed},{r.replicate},{r.method},{r.model},"
                f"{r.scenario},{metric},{value:.17g}\n"
            )
    return ["results.csv", "summary.csv", "long.csv"]
