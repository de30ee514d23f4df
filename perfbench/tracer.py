"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces every public function of the fflqr layers with a
timing and counting wrapper at each module attribute that holds it, so a
call through ``fflqr.model.fpc_decompose`` is seen as well as one through
``fflqr.fpca.fpc_decompose``. Spans keep their parent span; a span's self
time is its duration minus the time covered by its child spans. Spans stay
in memory and are written out once, at the end of the run.

Layer-specific counters (bytes of CSV, LP solves, distinct inputs, bootstrap
refits) are taken by hooks at the same call boundaries. A few calls are
kept whole so the run can check their results afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "fdata", "fpca", "qreg", "model", "bspline",
    "selection", "bands", "simulate", "cli",
)

# Results of every SAMPLE_EVERY-th call of these functions are kept for the
# checks, at most SAMPLE_CAP of each per run.
SAMPLE_EVERY = {"qr_fit_multi": 17, "fpc_decompose": 41}
SAMPLE_CAP = 6

_BOOTSTRAP_FITS = ("fit_fflqr", "fit_fpc_ls", "fit_bspline_ls")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


class Span:
    __slots__ = (
        "id", "parent", "layer", "name", "via", "t0", "t1",
        "child_s", "error", "outer_layer", "outer_fn",
    )

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass
class Phase:
    """Spans and counters of one traced phase (a set-up or one round)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    fpca_inputs: set = field(default_factory=set)
    lp_inputs: set = field(default_factory=set)

    def add(self, key, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Wraps the fflqr layers and records spans into the current phase."""

    def __init__(self):
        # One stack of open spans: the benchmark runs everything in one thread.
        self._stack = []
        self._patched = []
        self._next_id = 0
        self._seen = {}
        self.phase = Phase()
        self.samples = {"qr_fit_multi": [], "fpc_decompose": [], "select_truncation": []}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {L: importlib.import_module(f"fflqr.{L}") for L in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if n.startswith("cmd_") or n == "main"
            ]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (layer, name, obj)
        for via, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    layer, name, fn = originals[id(obj)]
                    setattr(mod, attr, self._wrap(layer, name, via, fn))
                    self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def new_phase(self) -> Phase:
        self.phase = Phase()
        return self.phase

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer, name, via, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span()
            span.id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            span.parent = parent
            span.layer, span.name, span.via = layer, name, via
            span.child_s = 0.0
            span.error = None
            span.outer_layer = all(s.layer != layer for s in stack)
            span.outer_fn = all(s.name != name or s.layer != layer for s in stack)
            stack.append(span)
            result = None
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
                tracer.phase.spans.append(span)
                h0 = time.perf_counter()
                tracer._hook(span, args, kwargs, result)
                if parent is not None:
                    # Hook work is the tracer's, not the caller's self time.
                    parent.child_s += time.perf_counter() - h0

        return wrapper

    def _sample(self, name) -> bool:
        n = self._seen.get(name, 0)
        self._seen[name] = n + 1
        return n % SAMPLE_EVERY[name] == 0 and len(self.samples[name]) < SAMPLE_CAP

    def _hook(self, span, args, kwargs, result) -> None:
        """Counters taken at the call boundary; runs after the span closed."""
        ph = self.phase
        key = (span.layer, span.name)
        if key == ("fdata", "read_sample_csv") and span.error is None:
            ph.add("fdata.bytes_read", os.path.getsize(args[0]))
        elif key == ("fdata", "write_sample_csv") and span.error is None:
            path = args[1] if len(args) > 1 else kwargs["path"]
            ph.add("fdata.bytes_written", os.path.getsize(path))
        elif key == ("fpca", "fpc_decompose"):
            sample = args[0] if args else kwargs["sample"]
            ph.fpca_inputs.add(_digest(sample.values, sample.grid.points))
            if span.error is None and self._sample("fpc_decompose"):
                basis, scores = result
                self.samples["fpc_decompose"].append(
                    (sample.values.copy(), sample.grid.weights.copy(), basis, scores.copy())
                )
        elif key == ("qreg", "qr_fit_multi"):
            design = np.asarray(args[0], dtype=float)
            responses = np.asarray(args[1], dtype=float)
            tau = args[2] if len(args) > 2 else kwargs["tau"]
            n, k = responses.shape
            ph.add("qreg.lp_solves", k)
            ph.add("qreg.lp_rows", n * k)
            d = _digest(design, np.float64(tau))
            for j in range(k):
                ph.lp_inputs.add(d + _digest(responses[:, j]))
            if span.error is None and self._sample("qr_fit_multi"):
                self.samples["qr_fit_multi"].append(
                    (design.copy(), responses.copy(), float(tau),
                     np.array(getattr(result, "coefficients", result)))
                )
        elif span.layer == "selection" and span.name in ("select_truncation", "forward_select"):
            if span.error is None and span.outer_layer:
                trace = result[2] if span.name == "select_truncation" else result.bic_trace
                ph.add("selection.candidates", len(trace))
            if span.error is None and span.name == "select_truncation":
                self.samples["select_truncation"].append(result)
        elif (
            span.via == "bands"
            and span.name in _BOOTSTRAP_FITS
            and span.parent is not None
            and span.parent.name == "bootstrap_band"
        ):
            ph.add("bands.refits_ok" if span.error is None else "bands.refits_failed", 1)


def phase_metrics(phases, names) -> dict:
    """The named per-layer metrics over the union of the given phases."""
    spans = [s for ph in phases for s in ph.spans]
    counts = {}
    for ph in phases:
        for k, v in ph.counts.items():
            counts[k] = counts.get(k, 0) + v
    calls, tot, self_t = {}, {}, {}

    def add(d, k, v):
        d[k] = d.get(k, 0) + v

    for s in spans:
        add(calls, s.layer, 1)
        add(self_t, s.layer, s.self_s)
        if s.outer_layer:
            add(tot, s.layer, s.dur)
        fk = f"{s.layer}.{s.name}"
        add(calls, fk, 1)
        add(self_t, fk, s.self_s)
        if s.outer_fn:
            add(tot, fk, s.dur)

    m = {}
    for name in names:
        if name in counts:
            m[name] = counts[name]
        elif name.endswith(".calls"):
            m[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            m[name] = self_t.get(_fn_key(name[: -len(".self_s")]), 0.0)
        elif name.endswith(".s"):
            m[name] = tot.get(_fn_key(name[: -len(".s")]), 0.0)
    fpca_calls = calls.get("fpca.fpc_decompose", 0)
    fpca_inputs = set().union(*(ph.fpca_inputs for ph in phases))
    m["fpca.unique_share"] = len(fpca_inputs) / fpca_calls if fpca_calls else 1.0
    lp_inputs = set().union(*(ph.lp_inputs for ph in phases))
    solves = counts.get("qreg.lp_solves", 0)
    m["qreg.unique_share"] = len(lp_inputs) / solves if solves else 1.0
    for name in names:
        m.setdefault(name, 0)
    return {name: m[name] for name in names}


# CLI commands are reported under their command name, not the function name.
def _fn_key(key: str) -> str:
    layer, _, rest = key.partition(".")
    if layer == "cli" and rest:
        return f"cli.cmd_{rest}"
    return key


def write_spans(phases, path) -> None:
    """Write spans as JSON lines: id, parent, layer, function, caller module, times."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, ph in enumerate(phases):
            for s in sorted(ph.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "phase": i, "id": s.id,
                    "parent": None if s.parent is None else s.parent.id,
                    "layer": s.layer, "fn": s.name, "via": s.via,
                    "t0": s.t0, "t1": s.t1, "self_s": s.self_s, "error": s.error,
                }))
                fh.write("\n")
