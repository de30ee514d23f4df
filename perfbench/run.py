#!/usr/bin/env python3
"""Run one fflqr benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mc-study --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up runs several times and its median is ``setup_s``; then whole rounds
of the workload run until ``--seconds`` of round time have passed. Times
are reported at a reference machine speed (see ``clock.py``). With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` the layers are wrapped (see ``tracer.py``) and it holds the
per-layer metrics of one set-up plus one round, as medians over rounds.
Outputs are checked after the timed part in both modes. ``--quick`` shrinks
every input so a run with every check takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mc-study", "bands", "cli-large-n")

# One process on the machine, one thread in it: BLAS threads are pinned
# before numpy loads, and the Monte Carlo study runs with --threads 1.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Seconds between calibration kernel runs inside a timed call (clock.py).
SPEED_SAMPLE_S = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--quick", action="store_true", help="small inputs, for tests")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    """Median; a list of equal values gives that value back unchanged."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def run(args, spec) -> dict:
    import workloads
    from clock import RefClock
    from tracer import Tracer, phase_metrics, write_spans

    wl = workloads.WORKLOADS[args.workload](args.quick)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        # Timer signals would land inside traced spans, so only untraced
        # runs sample the machine speed during a call.
        clock = RefClock(period=0 if tracer else SPEED_SAMPLE_S)
        setup_raw, setup_ref = [], []
        for _ in range(wl.setup_repeats):
            setup_phase = tracer.new_phase() if tracer else None
            state, raw, ref = clock.measure(wl.setup, work, args.seed)
            setup_raw.append(raw)
            setup_ref.append(ref)

        rounds, round_raw, round_ref, phases = [], [], [], []
        while not rounds or sum(round_raw) < args.seconds:
            if tracer:
                phases.append(tracer.new_phase())
            r, raw, ref = clock.measure(wl.run_round, state)
            round_raw.append(raw)
            round_ref.append(ref)
            rounds.append(r)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if tracer:
        # Refits that bootstrap_band counts and drops are only visible here.
        failed += sum(ph.counts.get("bands.refits_failed", 0) for ph in phases)

    for note in sorted({n for r in rounds for n in r.notes}):
        print(f"failed: {note}", file=sys.stderr)
    problems = []
    if len({r.digest for r in rounds}) != 1:
        problems.append("outputs differ between rounds of identical inputs")
    problems += wl.check(state, rounds[-1])
    if tracer:
        problems += sampled_call_checks(tracer.samples)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
        f"measured round_s median={statistics.median(round_raw):.4f} "
        f"min={min(round_raw):.4f} max={max(round_raw):.4f} "
        f"setup_s median={statistics.median(setup_raw):.4f}; at reference speed "
        f"round_s={[round(t, 4) for t in round_ref]} setup_s={[round(t, 4) for t in setup_ref]}"
    )
    if tracer:
        names = [m["name"] for m in spec["per_layer"]]
        per_round = [phase_metrics([setup_phase, ph], names) for ph in phases]
        values = {n: _median([m[n] for m in per_round]) for n in names}
        write_spans([setup_phase, phases[-1]], work / "spans.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup_ref),
            "ref_wall_s": statistics.median(round_ref),
            "ref_ops_per_s": statistics.median(
                (r.attempted - r.failed) / t for r, t in zip(rounds, round_ref)
            ),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def sampled_call_checks(samples) -> list:
    """Checks on the calls the tracer kept whole."""
    import checks

    problems = []
    for i, (design, responses, tau, coefs) in enumerate(samples["qr_fit_multi"]):
        problems += checks.check_lp_fit(design, responses, tau, coefs, label=f"qr_fit_multi sample {i}")
    for i, (values, weights, basis, scores) in enumerate(samples["fpc_decompose"]):
        label = f"fpc_decompose sample {i}"
        problems += checks.check_fpca(basis.eigenfunctions, basis.eigenvalues, weights, label)
        problems += checks.check_fpc_scores(values, weights, basis.eigenfunctions, basis.mean, scores, label)
    for i, (k_y, k_x, trace) in enumerate(samples["select_truncation"]):
        entries = [(e.k_y, e.k_x, e.bic) for e in trace]
        problems += checks.check_bic_choice(
            (k_y, k_x), entries, [e.accepted for e in trace], f"select_truncation call {i}"
        )
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (ROOT / "src" / "fflqr" / "__init__.py").is_file():
        print(f"error: no fflqr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args, load_spec())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
