#!/usr/bin/env python3
"""Reference figures for the benchmark README, printed as markdown tables.

    python3 perfbench/reference.py                          # BLAS threads as set
    OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py   # single-threaded BLAS

1. Times the layer calls of the ROADMAP baseline one at a time on the
   default data (``SimConfig`` defaults with chisq1 errors, seed 0).
2. Times a 4-replicate ``fflqr benchmark`` study (the mc-study round) with
   ``--threads 1`` and with the default thread count.
3. Alternates untraced and traced rounds of each workload on one seed and
   reports the tracing overhead: traced minus untraced median round time.

Unlike ``run.py`` this script leaves the BLAS thread count to the
environment, so both settings can be recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def timed(fn, min_reps=3, min_total=1.0):
    """Median seconds of ``fn()`` over at least ``min_reps`` calls and ``min_total`` s."""
    times = []
    while len(times) < min_reps or sum(times) < min_total:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def layer_table():
    import numpy as np

    from fflqr.bands import bootstrap_band
    from fflqr.fpca import fpc_decompose
    from fflqr.model import fit_fflqr, predict
    from fflqr.selection import forward_select, select_truncation
    from fflqr.simulate import SimConfig, generate_dataset

    config = SimConfig(error_dist="chisq1")
    data = generate_dataset(config, np.random.SeedSequence(0))
    Y = data.Y_train
    X = [data.X_train[i - 1] for i in config.significant]
    X_test = [data.X_test[i - 1] for i in config.significant]
    fit = fit_fflqr(Y, X, 0.5, 3, 3)
    calls = [
        ("generate_dataset", lambda: generate_dataset(config, np.random.SeedSequence(0))),
        ("fpc_decompose (K=5)", lambda: fpc_decompose(Y, 5)),
        ("fit_fflqr (3 predictors, K=(3,3))", lambda: fit_fflqr(Y, X, 0.5, 3, 3)),
        ("predict (300 test curves)", lambda: predict(fit, X_test)),
        ("select_truncation 5x5", lambda: select_truncation(Y, X, 0.5, 5, 5)),
        ("forward_select over M=5", lambda: forward_select(Y, data.X_train, 0.5)),
        ("bootstrap_band R=100", lambda: bootstrap_band(Y, X, X_test, 0.5, 0.05, 3, 3, R=100, seed=0)),
    ]
    print("| operation | median | calls timed |\n| --- | --- | --- |")
    for label, fn in calls:
        med, n = timed(fn)
        print(f"| `{label}` | {med * 1e3:.1f} ms | {n} |", flush=True)


def thread_table(work):
    from fflqr.cli import main

    config = work / "mc-config.json"
    config.write_text(json.dumps({"n_replicates": 4, "error_dist": "chisq1", "master_seed": 0}))
    print("\n| 4-replicate study | median | min | max | runs |\n| --- | --- | --- | --- | --- |")
    for label, extra in (("--threads 1", ["--threads", "1"]), ("default threads", [])):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            rc = main(["benchmark", "--config", str(config), *extra, "--out", str(work / "mc")])
            times.append(time.perf_counter() - t0)
            if rc != 0:
                raise SystemExit(f"fflqr benchmark exited with {rc}")
        print(
            f"| `{label}` | {statistics.median(times):.2f} s | {min(times):.2f} s "
            f"| {max(times):.2f} s | {len(times)} |", flush=True,
        )


def overhead_table(work, seed=1, pairs=4):
    """Alternate untraced and traced rounds of each workload in this process,
    so drift in machine speed falls on both sides alike."""
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    print("\n| workload | untraced round | traced round | overhead | pairs |\n| --- | --- | --- | --- | --- |")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(False)
        wdir = work / name
        wdir.mkdir()
        state = wl.setup(wdir, seed)
        times = {0: [], 1: []}
        for _ in range(pairs):
            for trace in (0, 1):
                tracer = Tracer() if trace else None
                if tracer:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    wl.run_round(state)
                    times[trace].append(time.perf_counter() - t0)
                finally:
                    if tracer:
                        tracer.uninstall()
        off, on = statistics.median(times[0]), statistics.median(times[1])
        print(
            f"| {name} | {off:.3f} s | {on:.3f} s | {on - off:+.3f} s ({(on - off) / off:+.1%}) "
            f"| {pairs} |", flush=True,
        )


def main():
    if not (ROOT / "src" / "fflqr" / "__init__.py").is_file():
        print(f"error: no fflqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    blas = {v: os.environ.get(v, "unset") for v in BLAS_ENV}
    print(f"BLAS threads: {blas}; cores: {os.cpu_count()}\n")
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    layer_table()
    thread_table(work)
    overhead_table(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
