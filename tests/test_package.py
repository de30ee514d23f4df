"""The package's public surface: each module's ``__all__``, re-exported."""

import importlib

import fflqr
from fflqr import bspline, errors, fdata, simulate

MODULES = ("bands", "bspline", "errors", "fdata", "fpca", "model", "qreg", "selection",
           "simulate")


def module_lists():
    return [importlib.import_module(f"fflqr.{name}").__all__ for name in MODULES]


def test_top_level_all_is_the_module_lists_in_import_order():
    assert fflqr.__all__ == ["__version__"] + [n for names in module_lists() for n in names]


def test_no_name_is_public_in_two_modules():
    names = [n for names in module_lists() for n in names]
    assert len(names) == len(set(names))


def test_every_public_name_is_the_module_object():
    for module in MODULES:
        mod = importlib.import_module(f"fflqr.{module}")
        for name in mod.__all__:
            assert getattr(fflqr, name) is getattr(mod, name), f"{module}.{name}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fflqr import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fflqr.__all__)
    assert len(namespace) == 60


def test_numpy_one_liners_are_not_public():
    # centring, the quadrature inner product, the kernel and the knot vector
    # are one numpy expression each, and a Gaussian process draw is two
    for module, name in ((fdata, "center"), (fdata, "inner_product"),
                         (simulate, "squared_exp_kernel"), (simulate, "sample_gp"),
                         (bspline, "bspline_knots")):
        assert name not in fflqr.__all__ and not hasattr(fflqr, name)
        assert name not in module.__all__ and not hasattr(module, name)


def test_errors_lists_its_error_and_warning_types():
    assert sorted(errors.__all__) == [
        "ConfigError", "DataError", "FflqrError", "NumericalError", "RankDeficiencyWarning",
    ]
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), (errors.FflqrError, UserWarning))
