"""The three benchmark workloads: set-up, one timed round, output checks.

Every round of a run repeats the same operations on the same inputs, so a
run attempts whole rounds and its outputs must be identical from round to
round. Inputs come only from the run's seed. The program is called through
module attributes (``fflqr.cli.main``, ``fflqr.bands.bootstrap_band``) so
that the tracer's wrappers, when installed, see the calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

import fflqr.bands
import fflqr.cli
import fflqr.simulate
from fflqr.errors import FflqrError

import checks

METHODS = ("fflqr", "fpc-ls", "bspline-ls")
MODELS = ("full", "true", "selected")
TRUE_PREDICTORS = (2, 4, 5)


@dataclass
class Round:
    """Operations one round attempted, how many failed, and an output digest."""

    attempted: int
    failed: int
    digest: str
    notes: tuple = ()


def _digest_files(paths) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


class McStudy:
    """``fflqr benchmark``: chisq1 errors, all methods and models, no bands,
    ``--threads 1``. Set-up generates the study's datasets once outside it."""

    name = "mc-study"
    setup_repeats = 9

    def __init__(self, quick: bool):
        self.replicates = 1 if quick else 2
        self.config = {"n_replicates": self.replicates, "error_dist": "chisq1"}
        if quick:
            self.config.update(n_train=40, n_test=20, n_grid=30, k_y_max=2, k_x_max=2)

    def setup(self, work, seed):
        config = dict(self.config, master_seed=seed)
        path = work / "config.json"
        _write_json(path, config)
        sim = fflqr.simulate.SimConfig.from_dict(config)
        for ss in np.random.SeedSequence(seed).spawn(self.replicates):
            fflqr.simulate.generate_dataset(sim, ss)
        return {"config": path, "out": work / "study"}

    def run_round(self, state) -> Round:
        out = state["out"]
        rc = fflqr.cli.main([
            "benchmark", "--config", str(state["config"]),
            "--threads", "1", "--out", str(out),
        ])
        files = [out / "results.csv", out / "summary.csv", out / "long.csv"]
        if rc != 0:
            return Round(self.replicates, self.replicates, _digest_files(files), (f"exit {rc}",))
        present = self._present(out)
        return Round(self.replicates, self.replicates - len(present), _digest_files(files))

    @staticmethod
    def _present(out) -> set:
        with open(out / "results.csv", encoding="utf-8") as fh:
            next(fh)
            return {int(line.split(",")[1]) for line in fh if line.strip()}

    def check(self, state, last: Round) -> list:
        out = state["out"]
        if last.failed == self.replicates:
            return []
        return checks.check_mc_results(
            out / "results.csv", out / "summary.csv", sorted(self._present(out)),
            METHODS, MODELS,
        )


class Bands:
    """Bootstrap bands at tau 0.5 and 0.9, each at two alphas from one seed,
    and paired-quantile bands at three alphas, on one generated dataset."""

    name = "bands"
    setup_repeats = 9
    taus = (0.5, 0.9)
    boot_alphas = (0.05, 0.2)
    direct_alphas = (0.05, 0.1, 0.2)

    def __init__(self, quick: bool):
        self.R = 6 if quick else 25
        self.k = 2 if quick else 3
        self.config = {"error_dist": "chisq1"}
        if quick:
            self.config.update(n_train=40, n_test=10, n_grid=30)

    def setup(self, work, seed):
        sim = fflqr.simulate.SimConfig.from_dict(self.config)
        data = fflqr.simulate.generate_dataset(sim, np.random.SeedSequence(seed))
        return {
            "seed": seed,
            "Y": data.Y_train,
            "X": [data.X_train[i - 1] for i in TRUE_PREDICTORS],
            "X_test": [data.X_test[i - 1] for i in TRUE_PREDICTORS],
            "bands": {},
        }

    def run_round(self, state) -> Round:
        Y, X, X_test = state["Y"], state["X"], state["X_test"]
        bands = state["bands"] = {}
        attempted = failed = 0
        notes = []
        for tau in self.taus:
            for alpha in self.boot_alphas:
                attempted += 1 + self.R
                try:
                    bands[("boot", tau, alpha)] = fflqr.bands.bootstrap_band(
                        Y, X, X_test, tau, alpha, self.k, self.k,
                        R=self.R, seed=state["seed"],
                    )
                except FflqrError as exc:
                    failed += 1 + self.R
                    notes.append(f"bootstrap tau={tau} alpha={alpha}: {exc}")
        for alpha in self.direct_alphas:
            attempted += 1
            try:
                bands[("direct", alpha)] = fflqr.bands.direct_band(
                    Y, X, X_test, alpha, self.k, self.k
                )
            except FflqrError as exc:
                failed += 1
                notes.append(f"direct alpha={alpha}: {exc}")
        h = hashlib.blake2b(digest_size=16)
        for key in sorted(bands, key=str):
            h.update(repr(key).encode())
            h.update(bands[key].lower.tobytes())
            h.update(bands[key].upper.tobytes())
        return Round(attempted, failed, h.hexdigest(), tuple(notes))

    def check(self, state, last: Round) -> list:
        bands = state["bands"]
        shape = (state["X_test"][0].n, state["Y"].grid.size)
        problems = []
        for key, band in bands.items():
            problems += checks.check_band(band.lower, band.upper, shape, str(key))
            if key[0] == "direct" and not 0.0 <= band.crossing_rate <= 1.0:
                problems.append(f"{key}: crossing rate {band.crossing_rate} outside [0, 1]")
        for tau in self.taus:
            wide = bands.get(("boot", tau, min(self.boot_alphas)))
            narrow = bands.get(("boot", tau, max(self.boot_alphas)))
            if wide is not None and narrow is not None:
                problems += checks.check_nested(
                    (narrow.lower, narrow.upper), (wide.lower, wide.upper),
                    f"bootstrap tau={tau}",
                )
        return problems


class CliLargeN:
    """``fflqr simulate`` at a few thousand curves as set-up; the round is
    ``fflqr fit --tune --tau 0.9`` on three predictors, then ``fflqr predict``
    on the test curves."""

    name = "cli-large-n"
    setup_repeats = 3

    def __init__(self, quick: bool):
        self.config = {"error_dist": "chisq1"}
        self.config.update(
            dict(n_train=60, n_test=20, n_grid=30) if quick
            else dict(n_train=2000, n_test=1000)
        )

    def setup(self, work, seed):
        config = work / "config.json"
        _write_json(config, dict(self.config, master_seed=seed))
        data = work / "data"
        rc = fflqr.cli.main(["simulate", "--config", str(config), "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"fflqr simulate exited with {rc}")
        return {
            "y": data / "Y_train.csv",
            "x": [data / f"X{m}_train.csv" for m in TRUE_PREDICTORS],
            "x_test": [data / f"X{m}_test.csv" for m in TRUE_PREDICTORS],
            "fit": work / "fit",
            "pred": work / "pred",
        }

    def run_round(self, state) -> Round:
        fit, pred = state["fit"], state["pred"]
        rcs = state["exit_codes"] = [
            fflqr.cli.main([
                "fit", "--y", str(state["y"]), "--x", *map(str, state["x"]),
                "--tune", "--tau", "0.9", "--out", str(fit),
            ]),
            fflqr.cli.main([
                "predict", "--model", str(fit / "model.json"),
                "--x", *map(str, state["x_test"]), "--out", str(pred),
            ]),
        ]
        files = [fit / "model.json", fit / "report.json", fit / "bic_trace.csv", pred / "Y_pred.csv"]
        notes = tuple(f"command {i} exit {rc}" for i, rc in enumerate(rcs) if rc != 0)
        return Round(2, sum(rc != 0 for rc in rcs), _digest_files(files), notes)

    def check(self, state, last: Round) -> list:
        fit_rc, predict_rc = state["exit_codes"]
        problems = []
        if fit_rc == 0:
            problems += checks.check_cli_fit(state["fit"], state["y"], state["x"])
        if fit_rc == 0 and predict_rc == 0:
            problems += checks.check_cli_predict(
                state["fit"] / "model.json", state["x_test"], state["pred"] / "Y_pred.csv"
            )
        return problems


WORKLOADS = {w.name: w for w in (McStudy, Bands, CliLargeN)}
