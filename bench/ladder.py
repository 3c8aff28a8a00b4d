"""Layer ladder: single offdiag layers timed on growing windows, with scaling fits.

    python3 bench/ladder.py [--out ladder.json]

Optional, and outside the per-change check: it takes minutes.  Each row
times one layer on one window (d, R) with n = (2R+1)^d indices, as the
median of REPEATS calls (one call when the first takes over five seconds),
on fresh windows so no cached index table carries over.  The scaling
exponent of a layer is the least-squares slope of log time against log n
over the rungs of one dimension.  Rows at the sizes of the ROADMAP baseline
table print that figure beside the measured one.  The Neumann engine is
skipped above ENGINE_MAX_N, where one call takes minutes.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import envstamp  # noqa: E402
from offdiag import inversion, muckenhoupt, norms, stability  # noqa: E402
from offdiag.lattice import (LatticeSequence, LocalizedMatrix, Window,  # noqa: E402
                             decay_profile, generate)
from offdiag.muckenhoupt import WeightSequence  # noqa: E402

# (d, R) rungs; d=2 R=20 is where the ROADMAP baseline was taken
SIZES = ((1, 64), (1, 256), (1, 512), (2, 8), (2, 16), (2, 20), (2, 24))
REPEATS = 3
ENGINE_MAX_N = 1100
# ROADMAP baseline, single runs on a 2-core machine: (layer, d, R) -> seconds
BASELINE = {
    ("wiener_invert", 1, 256): 3.09, ("wiener_invert", 1, 512): 22.6,
    ("spectral_bracket", 1, 256): 0.07, ("spectral_bracket", 1, 512): 0.55,
    ("spectral_bracket", 2, 20): 1.86,
    ("stability_bracket", 1, 256): 0.19, ("stability_bracket", 1, 512): 1.29,
    ("stability_bracket", 2, 20): 3.57,
    ("generate+dist", 1, 256): 0.01, ("generate+dist", 1, 512): 0.06,
    ("generate+dist", 2, 20): 0.82,
}


def toeplitz(win: Window) -> LocalizedMatrix:
    coeffs = {0: 2.0, 1: 1.0} if win.d == 1 else {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 0.5}
    return generate("toeplitz_from_coeffs", win, coeffs=coeffs)


def layers(d: int, radius: int):
    """(layer name, zero-argument call) pairs for one rung; each call uses a fresh window."""
    t = toeplitz(Window(d, radius))
    band = generate("banded_random", Window(d, radius), seed=0, bandwidth=2).data
    seq = np.random.default_rng(0).standard_normal(t.window.size)

    def fresh(data):
        return LocalizedMatrix(Window(d, radius), data, copy=False)

    def gen_dist():
        win = Window(d, radius)
        toeplitz(win)
        return win.dist, win._dist_groups

    yield "generate+dist", gen_dist
    yield "decay_profile", lambda: decay_profile(fresh(band))
    yield "norm_report", lambda: norms.norm_report(fresh(band), 1.0)
    yield "spectral_bracket", lambda: inversion.spectral_bracket(t)
    if t.window.size <= ENGINE_MAX_N:
        yield "wiener_invert", lambda: inversion.wiener_invert(t)
    yield "stability_bracket", lambda: stability.stability_bracket(
        t, 2.0, WeightSequence.trivial(t.window))
    yield "aq_bound", lambda: muckenhoupt.aq_bound(
        WeightSequence.power(t.window, 0.5), 2.0, t.window.side)
    yield "maximal", lambda: muckenhoupt.maximal(LatticeSequence(t.window, seq))


def time_call(fn) -> list[float]:
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
        if times[0] > 5.0:
            break
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    rows = []
    for d, radius in SIZES:
        n = (2 * radius + 1) ** d
        for name, fn in layers(d, radius):
            times = time_call(fn)
            row = {"layer": name, "d": d, "R": radius, "n": n,
                   "median_s": statistics.median(times), "runs": len(times),
                   "baseline_s": BASELINE.get((name, d, radius))}
            rows.append(row)
            base = f"  (ROADMAP {row['baseline_s']} s)" if row["baseline_s"] else ""
            print(f"{name:<18} d={d} R={radius:<4} n={n:<5} {row['median_s']:9.4f} s "
                  f"over {len(times)}{base}", flush=True)

    fits = {}
    for name in dict.fromkeys(r["layer"] for r in rows):
        for d in (1, 2):
            pts = [(r["n"], r["median_s"]) for r in rows
                   if r["layer"] == name and r["d"] == d and r["median_s"] > 0]
            if len(pts) >= 2:
                x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
                fits[f"{name} d={d}"] = float(np.polyfit(x, y, 1)[0])
    print("scaling exponents (time ~ n^k):")
    for key, k in fits.items():
        print(f"  {key:<24} k = {k:.2f}")
    if args.out:
        args.out.write_text(json.dumps({"env": envstamp.stamp(), "rows": rows,
                                        "exponents": fits}, indent=1) + "\n")


if __name__ == "__main__":
    main()
