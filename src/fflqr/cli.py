"""Command-line interface: simulate, fit, predict, interval, benchmark.

Every command writes its outputs plus a ``manifest.json`` recording the
resolved configuration and seed, so any run can be reproduced from its
output directory alone. ``main`` is the one shell around the commands: it
times each command, writes its manifest from the record the command returns
and maps its errors to exit codes: 0 success, 2 configuration error, 3 data
error (or a file that cannot be read or written), 4 numerical failure.
Typed errors keep their codes; any other ``ValueError`` a command lets
through is a configuration error for ``simulate``, ``fit`` and ``benchmark``
and a data error for ``predict`` and ``interval``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .bands import bootstrap_band, direct_band, write_band_csv
from .errors import ConfigError, DataError, NumericalError
from .fdata import read_sample_csv, write_sample_csv
from .model import FflqrFit, fit_fflqr, load_model, predict, save_model, score_objective
from .selection import _select, write_trace_csv
from .simulate import (
    ALL_METHODS,
    ALL_MODELS,
    SimConfig,
    generate_dataset,
    run_monte_carlo,
    write_study_tables,
)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def _write_manifest(args, started, finished, config, inputs, outputs, master_seed, **extra):
    _write_json(Path(args.out) / "manifest.json", {
        "command": args.command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "master_seed": master_seed,
        "version": __version__,
        "started": started,
        "finished": finished,
        **extra,
    })


def _load_config(args) -> SimConfig:
    d = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config JSON must be an object of field values")
        d.update(loaded)
    # Config flags are stored under their SimConfig field names.
    for f in fields(SimConfig):
        if getattr(args, f.name, None) is not None:
            d[f.name] = getattr(args, f.name)
    return SimConfig.from_dict(d)


def _read_samples(y_path, x_paths):
    Y = read_sample_csv(y_path)
    X = [read_sample_csv(p) for p in x_paths]
    for p, x in zip(x_paths, X):
        if x.n != Y.n:
            raise DataError(
                f"{p} holds {x.n} curves but {y_path} holds {Y.n}"
            )
    return Y, X


def cmd_simulate(args) -> dict:
    config = _load_config(args)
    out = _out_dir(args.out)
    data = generate_dataset(config, np.random.SeedSequence(config.master_seed))

    outputs = []

    def dump(sample, name):
        path = out / name
        write_sample_csv(sample, path)
        outputs.append(name)

    dump(data.Y_train, "Y_train.csv")
    dump(data.Y_test, "Y_test.csv")
    for m in range(1, config.M + 1):
        dump(data.X_train[m - 1], f"X{m}_train.csv")
        dump(data.X_test[m - 1], f"X{m}_test.csv")

    truth = {
        "significant": list(config.significant),
        "surfaces": {str(m): f"beta_{m}" for m in config.significant},
        "master_seed": config.master_seed,
        "contaminated_train_rows": list(data.contaminated),
    }
    _write_json(out / "truth.json", truth)
    outputs.append("truth.json")
    return dict(config=config.to_dict(), inputs=[args.config] if args.config else [],
                outputs=outputs, master_seed=config.master_seed)


def cmd_fit(args) -> dict:
    given = [k for k in (args.ky, args.kx) if k is not None]
    if len(given) != (0 if args.tune or args.select else 2):
        raise ConfigError(
            "set the truncations either with both --ky and --kx or by --tune / --select"
        )
    out = _out_dir(args.out)
    Y, X = _read_samples(args.y, args.x)
    outputs = []

    # --tune and --select decompose each sample once, and the fit is the
    # search's own solve of the chosen model.
    indices = tuple(range(1, len(X) + 1))
    if args.select or args.tune:
        indices, k_y, k_x, trace, _, fit = _select(
            Y, X, args.tau, None if args.select else indices,
            args.fixed_k, args.ky_max, args.kx_max,
        )
        name = "selection_trace.csv" if args.select else "bic_trace.csv"
        write_trace_csv(trace, out / name)
        outputs.append(name)
    else:
        k_y, k_x = args.ky, args.kx
        fit = fit_fflqr(Y, X, args.tau, k_y, k_x)
    X_fit = [X[i - 1] for i in indices]
    save_model(fit, out / "model.json")
    outputs.append("model.json")

    report = {
        "tau": args.tau,
        "k_y": k_y,
        "k_x": k_x,
        "predictors": list(indices),
        "n": Y.n,
        "in_sample_objective": score_objective(fit, Y, X_fit).tolist(),
    }
    _write_json(out / "report.json", report)
    outputs.append("report.json")
    return dict(config={"tau": args.tau, "k_y": k_y, "k_x": k_x, "predictors": list(indices)},
                inputs=[args.y, *args.x], outputs=outputs, master_seed=None)


def cmd_predict(args) -> dict:
    out = _out_dir(args.out)
    fit = load_model(args.model)
    X = [read_sample_csv(p) for p in args.x]
    write_sample_csv(predict(fit, X), out / "Y_pred.csv")
    return dict(config={"model": str(args.model)}, inputs=[args.model, *args.x],
                outputs=["Y_pred.csv"], master_seed=None)


def cmd_interval(args) -> dict:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie strictly inside (0, 1), got {args.alpha}")
    if args.method == "bootstrap" and args.R < 2:
        raise ConfigError(f"--R must be at least 2, got {args.R}")
    if args.method == "bootstrap" and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if len(args.train_x) != len(args.x):
        raise DataError(f"{len(args.train_x)} --train-x CSVs for {len(args.x)} --x CSVs")
    out = _out_dir(args.out)
    fit = load_model(args.model)
    if not isinstance(fit, FflqrFit) or fit.method != "fflqr":
        raise ConfigError("interval construction needs a quantile (fflqr) model")
    X = [read_sample_csv(p) for p in args.x]
    Y_train, X_train = _read_samples(args.train_y, args.train_x)
    k_y = fit.response_basis.n_components
    k_x = fit.predictor_bases[0].n_components
    pred = predict(fit, X)
    if args.method == "bootstrap":
        band = bootstrap_band(
            Y_train, X_train, X, fit.tau, args.alpha, k_y, k_x, R=args.R, seed=args.seed
        )
    else:
        band = direct_band(Y_train, X_train, X, args.alpha, k_y, k_x)
    write_sample_csv(pred, out / "Y_pred.csv")
    write_band_csv(band, out / "lower.csv", out / "upper.csv")
    meta = {
        "alpha": args.alpha,
        "method": args.method,
        "R": args.R if args.method == "bootstrap" else None,
        "seed": args.seed if args.method == "bootstrap" else None,
        "crossing_rate": band.crossing_rate,
        "failed_refits": band.failed_refits,
    }
    _write_json(out / "band.json", meta)
    return dict(config=meta, inputs=[args.model, args.train_y, *args.train_x, *args.x],
                outputs=["Y_pred.csv", "lower.csv", "upper.csv", "band.json"],
                master_seed=meta["seed"])


def cmd_benchmark(args) -> dict:
    config = _load_config(args)
    out = _out_dir(args.out)
    methods = args.methods.split(",") if args.methods else list(ALL_METHODS)
    models = args.models.split(",") if args.models else list(ALL_MODELS)
    reports = run_monte_carlo(config, methods, models, alpha=args.alpha, n_threads=args.threads)
    done = {r.replicate for r in reports}
    failed = [r for r in range(config.n_replicates) if r not in done]
    return dict(
        config={**config.to_dict(), "methods": methods, "models": models, "alpha": args.alpha},
        inputs=[args.config] if args.config else [], outputs=write_study_tables(reports, out),
        master_seed=config.master_seed, failed_replicates=failed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fflqr",
        description="Function-on-function linear quantile regression toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="config JSON path")
        p.add_argument("--seed", dest="master_seed", type=int, help="master seed")
        p.add_argument("--n-train", dest="n_train", type=int)
        p.add_argument("--n-test", dest="n_test", type=int)
        p.add_argument("--replicates", dest="n_replicates", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--error-dist", dest="error_dist", choices=["normal", "chisq1"])
        p.add_argument("--contamination", dest="contamination_rate", type=float)
        p.add_argument("--tau", type=float)

    p = sub.add_parser("simulate", help="generate one synthetic train/test split")
    add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate, value_error=ConfigError)

    p = sub.add_parser("fit", help="fit the quantile model to CSV data")
    p.add_argument("--y", required=True, help="response CSV")
    p.add_argument("--x", required=True, nargs="+", help="predictor CSVs in order")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--ky", type=int, help="response truncation")
    p.add_argument("--kx", type=int, help="predictor truncation")
    p.add_argument("--tune", action="store_true", help="pick K by exhaustive BIC")
    p.add_argument("--select", action="store_true",
                   help="forward predictor selection, then tune K")
    p.add_argument("--ky-max", dest="ky_max", type=int, default=5)
    p.add_argument("--kx-max", dest="kx_max", type=int, default=5)
    p.add_argument("--fixed-k", dest="fixed_k", type=int, default=2,
                   help="truncation used while selecting predictors")
    p.add_argument("--out", required=True)
    # Values the data cannot support (tau outside (0, 1), truncations above
    # the covariance rank) surface as ValueError from the fitting layers.
    p.set_defaults(func=cmd_fit, value_error=ConfigError)

    p = sub.add_parser("predict", help="predict curves from a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--x", required=True, nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict, value_error=DataError)

    p = sub.add_parser("interval", help="prediction bands for new curves")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, nargs="+", help="prediction predictor CSVs")
    p.add_argument("--train-y", dest="train_y", required=True,
                   help="training response CSV (bands refit the model)")
    p.add_argument("--train-x", dest="train_x", required=True, nargs="+",
                   help="training predictor CSVs")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--method", choices=["bootstrap", "direct"], default="bootstrap")
    p.add_argument("--R", type=int, default=100, help="bootstrap replicates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    # Curves that do not match the model or each other (predictor count,
    # grids) surface as ValueError from predict and the band builders.
    p.set_defaults(func=cmd_interval, value_error=DataError)

    p = sub.add_parser("benchmark", help="Monte Carlo method comparison")
    add_config_flags(p)
    p.add_argument("--methods", help="comma-separated subset of "
                   + ",".join(ALL_METHODS))
    p.add_argument("--models", help="comma-separated subset of "
                   + ",".join(ALL_MODELS))
    p.add_argument("--alpha", type=float,
                   help="when set, also evaluate prediction bands")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads across replicates (default: 1)")
    p.add_argument("--out", required=True)
    # A selected model's designs depend on the data; one wider than the
    # training sample surfaces as ValueError from the fitting layers.
    p.set_defaults(func=cmd_benchmark, value_error=ConfigError)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        try:
            record = args.func(args)
        except ValueError as exc:
            raise args.value_error(str(exc)) from exc
        _write_manifest(args, started, _now(), **record)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
