"""Spans around the public functions of each ``offdiag`` layer, for traced runs.

``install(tracer)`` wraps each function named in LAYERS and rebinds the
name in every ``offdiag`` module namespace that holds it, so calls between
modules are seen as well as calls from the benchmark.  It wraps
``WeightMatrix.grid`` on the class, the suite's criteria in
``suite.CRITERIA``, and ``numpy.linalg.svd`` where a stability bracket calls
it.  It is only ever called in a traced run; end-to-end numbers come from
runs that never call it.  While ``Tracer.enabled`` is false the wrappers
call straight through and record nothing, so a traced run can alternate
traced and untraced passes.

Criterion C14 reruns the battery in quick mode; a criterion called inside
another criterion gets no span of its own, so those runs count toward C14.

Each span records its layer, start, end and parent span.  Spans are kept in
memory; ``self_times`` turns them into per-layer self time, which is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = {
    "lattice": ("load_matrix", "generate", "decay_profile", "multiply"),
    "weights": ("cross_norm", "theta_fit"),
    "norms": ("beurling_norm", "sjostrand_norm", "schur_norm", "jaffard_value",
              "product_inequality_check", "brandenburg_radii", "square_growth_check",
              "norm_report"),
    "muckenhoupt": ("aq_bound", "maximal", "weighted_norm"),
    "stability": ("stability_bracket", "boundedness_check", "commutator_diagnostic",
                  "cross_stability_verdicts"),
    "spectral": ("hermitian_extremes", "operator_norm_l2"),
    "inversion": ("spectral_bracket", "wiener_invert", "left_inverse",
                  "inverse_closedness_experiment"),
    "symbols": ("symbol_min_modulus", "toeplitz_matrix", "reciprocal_coeffs"),
    "cli": ("write_json_artifact",),
}

# Self time for every wrapped function except norm_report, whose work is all
# in the norm families it calls, plus the class method, the criteria and SVD.
_SELF = [f"{m}.{f}" for m, names in LAYERS.items() for f in names if f != "norm_report"]
_SELF += ["weights.grid", "stability.svd"] + [f"suite.C{k:02d}" for k in range(1, 15)]

# Every per-layer metric a traced run reports, with its unit, per timed pass.
PER_LAYER = {f"{layer}.self_s": "s" for layer in _SELF}
PER_LAYER.update({f"{layer}.calls": "count" for layer in (
    "lattice.decay_profile", "muckenhoupt.aq_bound", "muckenhoupt.maximal",
    "muckenhoupt.weighted_norm", "stability.svd")})
PER_LAYER.update({
    "weights.cross_norm.terms": "count",
    "norms.norm_report.rss_growth_mib": "MiB",
    "muckenhoupt.aq_bound.cubes": "count",
    "inversion.terms_used": "count",
    "inversion.topup_terms": "count",
    "symbols.reciprocal_coeffs.grid": "count",
    "trace.overhead_s": "s",
})


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """In-memory span and counter store for one single-threaded process."""

    def __init__(self):
        self.enabled = True
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, layer: str, fn, args, kwargs):
        span = Span(layer, time.perf_counter(), 0.0, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.counts[f"{layer}.calls"] += 1

    def inside(self, prefix: str) -> bool:
        """Whether an open span's layer starts with prefix."""
        return any(self.spans[i].layer.startswith(prefix) for i in self._open)


def self_times(spans) -> dict[str, float]:
    """Per-layer sum of span duration minus the union of its children's spans."""
    children = defaultdict(list)
    for k, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(k)
    out: dict[str, float] = defaultdict(float)
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[k], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.layer] += (s.end - s.start) - covered
    return dict(out)


def _rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _aq_cubes(win, rep) -> float:
    """Cubes the A_q scan visits: sum over N <= n_cap of (side - N + 1)^d."""
    return float(sum((win.side - n + 1) ** win.d for n in range(1, rep.n_cap + 1)))


def _topup(tol: float, rep) -> float:
    """Engine steps taken after the residual first met tol."""
    hist = rep.residual_history
    met = [k for k, r in enumerate(hist) if r <= tol]
    return float(len(hist) - 1 - met[0]) if met else 0.0


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _wrap(tracer: Tracer, layer: str, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        rss0 = _rss_mib() if layer == "norms.norm_report" else None
        out = tracer.call(layer, fn, args, kwargs)
        c = tracer.counts
        if rss0 is not None:
            c["norms.norm_report.rss_growth_mib"] += _rss_mib() - rss0
        elif layer == "weights.cross_norm":
            c["weights.cross_norm.terms"] += out.terms
        elif layer == "muckenhoupt.aq_bound":
            c["muckenhoupt.aq_bound.cubes"] += _aq_cubes(_arg(sig, args, kwargs, "w").window, out)
        elif layer == "inversion.wiener_invert":
            c["inversion.terms_used"] += out[1].terms_used
            c["inversion.topup_terms"] += _topup(_arg(sig, args, kwargs, "tol"), out[1])
        elif layer == "symbols.reciprocal_coeffs":
            c["symbols.reciprocal_coeffs.grid"] += out[1].grid
        return out

    return traced


def _criterion(tracer: Tracer, cid: str, fn):
    traced = _wrap(tracer, f"suite.{cid}", fn)

    @functools.wraps(fn)
    def outermost(*args, **kwargs):
        if tracer.inside("suite.C"):
            return fn(*args, **kwargs)
        return traced(*args, **kwargs)

    return outermost


def install(tracer: Tracer) -> None:
    """Route the layer functions of the imported ``offdiag`` modules through tracer."""
    import numpy as np

    layers = {name: importlib.import_module(f"offdiag.{name}") for name in LAYERS}
    suite = importlib.import_module("offdiag.suite")
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "offdiag" or name.startswith("offdiag."))]
    for modname, names in LAYERS.items():
        for name in names:
            original = getattr(layers[modname], name)
            traced = _wrap(tracer, f"{modname}.{name}", original)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)

    wm = layers["weights"].WeightMatrix
    wm.grid = _wrap(tracer, "weights.grid", wm.grid)
    suite.CRITERIA[:] = [(cid, _criterion(tracer, cid, fn)) for cid, fn in suite.CRITERIA]

    svd = np.linalg.svd

    @functools.wraps(svd)
    def bracket_svd(*args, **kwargs):
        if tracer.inside("stability.stability_bracket"):
            return tracer.call("stability.svd", svd, args, kwargs)
        return svd(*args, **kwargs)

    np.linalg.svd = bracket_svd


def per_pass(tracer: Tracer, passes: int) -> dict[str, float]:
    """Every PER_LAYER metric except the overhead, averaged over traced passes."""
    selfs = self_times(tracer.spans)
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0) / passes
        elif name != "trace.overhead_s":
            out[name] = tracer.counts.get(name, 0.0) / passes
    return out
