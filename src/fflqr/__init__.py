"""Function-on-function linear quantile regression.

Curves are reduced to principal component scores, the conditional quantile
is fit in score space under the check loss, and coefficient surfaces,
predictions and uncertainty bands are reconstructed back in function space.
"""

__version__ = "0.1.0"

from .bands import (
    MetricsReport,
    PredictionBand,
    bootstrap_band,
    cpd,
    direct_band,
    interval_score,
    mspe,
)
from .errors import (
    ConfigError,
    DataError,
    FflqrError,
    NumericalError,
    RankDeficiencyWarning,
)
from .fdata import (
    FunctionalSample,
    Grid,
    center,
    inner_product,
    make_uniform_grid,
    read_sample_csv,
    write_sample_csv,
)
from .fpca import FpcBasis, fpc_decompose, project_scores, reconstruct
from .model import (
    CoefficientSurface,
    FflqrFit,
    coefficient_surface,
    fit_bspline_ls,
    fit_fflqr,
    fit_fpc_ls,
    intercept_function,
    load_model,
    predict,
    save_model,
)
from .qreg import QrProblem, check_loss, qr_fit, qr_fit_multi, qr_objective
from .selection import (
    SelectionResult,
    bic_candidate,
    bic_truncation,
    forward_select,
    select_truncation,
)
from .simulate import (
    SimConfig,
    contaminate,
    gen_ou_errors,
    gen_predictors,
    gen_response,
    generate_dataset,
    run_monte_carlo,
    sample_gp,
    squared_exp_kernel,
    true_beta,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DataError",
    "FflqrError",
    "NumericalError",
    "RankDeficiencyWarning",
    "Grid",
    "FunctionalSample",
    "make_uniform_grid",
    "inner_product",
    "center",
    "read_sample_csv",
    "write_sample_csv",
    "FpcBasis",
    "fpc_decompose",
    "project_scores",
    "reconstruct",
    "QrProblem",
    "check_loss",
    "qr_fit",
    "qr_fit_multi",
    "qr_objective",
    "FflqrFit",
    "CoefficientSurface",
    "fit_fflqr",
    "fit_fpc_ls",
    "fit_bspline_ls",
    "predict",
    "coefficient_surface",
    "intercept_function",
    "save_model",
    "load_model",
    "SelectionResult",
    "bic_truncation",
    "select_truncation",
    "bic_candidate",
    "forward_select",
    "PredictionBand",
    "MetricsReport",
    "mspe",
    "bootstrap_band",
    "direct_band",
    "cpd",
    "interval_score",
    "SimConfig",
    "squared_exp_kernel",
    "sample_gp",
    "gen_predictors",
    "true_beta",
    "gen_ou_errors",
    "gen_response",
    "contaminate",
    "generate_dataset",
    "run_monte_carlo",
]
