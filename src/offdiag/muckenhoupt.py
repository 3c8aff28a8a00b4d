"""Discrete Muckenhoupt weights, the cube-scan A_q bound, and the maximal
operator on a window.

The scan restricts cubes a + [0, N-1]^d to those fully inside the window, so
the scanned value is a true lower bound of the infinite-lattice bound and
converges upward as the window grows for the built-in forms.  For q > 1 the
scanned quantity is

    (avg_cube w) * (avg_cube w^{-1/(q-1)})^{q-1},

the constant that the cube characterization inequality (and Hoelder) makes
optimal; for q = 1 it is (avg_cube w) / (min_cube w).  The cube sums and
minima of side N are assembled from those of side N - 1 by 3^d array slices,
O(3^d side^d) work per N, and the scan only adds, or takes minima of,
positive terms: no partial sums are subtracted, so each cube value keeps
full relative accuracy however widely w spreads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSequence, Window

__all__ = [
    "WeightSequence",
    "AqReport",
    "aq_bound",
    "maximal",
    "weighted_norm",
    "CharacterizationReport",
    "aq_characterization_check",
    "WeakTypeReport",
    "maximal_weak_type_check",
]


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Positive sequence w(i) on a window (trivial | power(alpha) | table)."""

    window: Window
    values: np.ndarray
    form: str
    params: dict

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.window.size,):
            raise ValueError("values shape does not match window")
        if np.any(vals <= 0.0):
            raise ValueError("weight sequence must be strictly positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def trivial(cls, window: Window) -> "WeightSequence":
        return cls(window, np.ones(window.size), "trivial", {})

    @classmethod
    def power(cls, window: Window, alpha: float) -> "WeightSequence":
        sup = np.abs(window.indices).max(axis=1)
        return cls(window, (1.0 + sup) ** alpha, "power", {"alpha": float(alpha)})

    @classmethod
    def table(cls, window: Window, values) -> "WeightSequence":
        return cls(window, np.asarray(values, dtype=np.float64), "table", {})

    def descriptor(self) -> str:
        if self.form == "power":
            return f"power({self.params['alpha']:g})"
        if self.form == "table":
            return f"table(R={self.window.radius})"
        return "trivial"

    def restrict(self, window: Window) -> "WeightSequence":
        if window.d != self.window.d or window.radius > self.window.radius:
            raise ValueError(f"restriction window {window} is not a sub-window of {self.window}")
        if self.form == "trivial":
            return WeightSequence.trivial(window)
        if self.form == "power":
            return WeightSequence.power(window, self.params["alpha"])
        return WeightSequence.table(window, self.values[self.window.flat(window.indices)])

    def extended_values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate w at arbitrary lattice points (closed forms extend off-window)."""
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.window.d)
        if self.form == "trivial":
            return np.ones(pts.shape[0])
        if self.form == "power":
            return (1.0 + np.abs(pts).max(axis=1)) ** self.params["alpha"]
        return self.values[self.window.flat(pts)]  # refuses points off the table


@dataclass(frozen=True)
class AqReport:
    q: float
    bound: float
    argmax_anchor: tuple
    argmax_n: int
    n_cap: int


def _cube_scan(arr_nd: np.ndarray, n_cap: int, op):
    """Yield op-reductions of arr_nd over every cube a + [0, N-1]^d inside it,
    for N = 1..n_cap (op is np.add or np.minimum).

    box[A] holds the reduction over boxes of side N along the axes in the
    subset A and side 1 along the rest.  Side N splits each axis in A into
    side N-1 and its last point, so box_N[A](x) is the op of the 2^|A|
    disjoint pieces box_{N-1}[A - T](x + (N-1) e_T), T ⊆ A: 3^d slices per
    N in total, each entry reduced from non-negative terms only.
    """
    d, side = arr_nd.ndim, arr_nd.shape[0]
    box = [arr_nd] * (1 << d)
    yield arr_nd
    for n in range(2, n_cap + 1):
        head, last = slice(0, side - n + 1), slice(n - 1, side)
        for a in reversed(range(1, 1 << d)):  # strict subsets of a still hold side n-1
            pieces = [box[a & ~t][tuple(last if t >> ax & 1 else head if a >> ax & 1
                                        else slice(None) for ax in range(d))]
                      for t in range(1 << d) if not t & ~a]
            box[a] = functools.reduce(op, pieces)
        yield box[-1]


def aq_bound(w: WeightSequence, q: float, n_cap: int) -> AqReport:
    """Exhaustive scan of all cubes fully inside the window, N = 1..n_cap."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if not math.isfinite(q):
        raise ValueError("q = infinity is not supported")
    win = w.window
    n_cap = int(n_cap)
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    n_cap = min(n_cap, win.side)
    d, side = win.d, win.side
    w_nd = w.values.reshape((side,) * d)
    if q > 1:
        other = _cube_scan(w_nd ** (-1.0 / (q - 1.0)), n_cap, np.add)  # sums of w^{-1/(q-1)}
    else:
        other = _cube_scan(w_nd, n_cap, np.minimum)  # minima of w
    best = -math.inf
    best_anchor, best_n = None, 1
    for n, (sum_w, other_n) in enumerate(zip(_cube_scan(w_nd, n_cap, np.add), other), start=1):
        vol = float(n**d)
        avg_w = sum_w / vol
        if q > 1:
            lhs = avg_w * (other_n / vol) ** (q - 1.0)
        else:
            lhs = avg_w / other_n
        pos = int(np.argmax(lhs))
        if float(lhs.flat[pos]) > best:
            best = float(lhs.flat[pos])
            anchor = np.unravel_index(pos, lhs.shape)
            best_anchor = tuple(int(a) - win.radius for a in anchor)
            best_n = n
    return AqReport(q, best, best_anchor, best_n, n_cap)


def maximal(c: LatticeSequence) -> LatticeSequence:
    """Discrete maximal function Mc(i) = sup_N (2N+1)^{-d} sum_{|k-i|<=N} |c(k)|.

    Entries outside the window are zero and averages only shrink once the
    cube swallows the whole support, so the sup over N = 0..2R is exact.
    Each box sum is d successive differences of the integral image, one
    per axis, taken at the window-clipped cube ends.
    """
    win = c.window
    d, side = win.d, win.side
    mag = np.abs(c.data).reshape((side,) * d)
    cum = mag
    for ax in range(d):
        cum = np.cumsum(cum, axis=ax)
    cum = np.pad(cum, [(1, 0)] * d)  # cum[x] sums mag over the box [0, x)
    pos = np.arange(side)
    out = mag.copy()  # N = 0 term
    for n in range(1, 2 * win.radius + 1):
        upper, lower = np.minimum(pos + n + 1, side), np.maximum(pos - n, 0)
        total = cum
        for ax in range(d):
            total = np.take(total, upper, axis=ax) - np.take(total, lower, axis=ax)
        np.maximum(out, total / float((2 * n + 1) ** d), out=out)
    return LatticeSequence(win, out.reshape(-1).astype(np.complex128), copy=False)


def weighted_norm(c: LatticeSequence, q: float, w: WeightSequence) -> float:
    """(sum |c(i)|^q w(i))^{1/q} in lexicographic summation order."""
    if q < 1 or not math.isfinite(q):
        raise ValueError("q must lie in [1, infinity)")
    if c.window != w.window:
        raise ValueError("sequence and weight windows differ")
    return float(np.sum(np.abs(c.data) ** q * w.values) ** (1.0 / q))


@dataclass(frozen=True)
class CharacterizationReport:
    worst_margin: float
    trials: int
    bound_used: float

    @property
    def all_nonnegative(self) -> bool:
        return self.worst_margin >= 0.0


def aq_characterization_check(w: WeightSequence, q: float, trials: int,
                              seed: int = 0) -> CharacterizationReport:
    """Monte Carlo check of the cube characterization

    (avg |c|)^q (avg w) <= A_q(w) avg(|c|^q w)   on cubes inside the window,
    using the scanned bound (cubes drawn with N <= the scan's N_cap).
    """
    win = w.window
    report = aq_bound(w, q, win.side)
    rng = np.random.default_rng(seed)
    d, side, r = win.d, win.side, win.radius
    w_nd = w.values.reshape((side,) * d)
    worst = math.inf
    for _ in range(int(trials)):
        n = int(rng.integers(1, report.n_cap + 1))
        anchor = rng.integers(0, side - n + 1, d)
        sl = tuple(slice(int(a), int(a) + n) for a in anchor)
        c = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
        mag = np.abs(c)
        vol = float(n**d)
        lhs = (mag.sum() / vol) ** q * (w_nd[sl].sum() / vol)
        rhs = report.bound * float((mag**q * w_nd[sl]).sum()) / vol
        worst = min(worst, rhs - lhs)
    return CharacterizationReport(float(worst), int(trials), report.bound)


@dataclass(frozen=True)
class WeakTypeReport:
    weak_constant: float
    strong_ratio: float
    trials: int
    q: float
    seed: int


def maximal_weak_type_check(w: WeightSequence, q: float, trials: int, seed: int = 0) -> WeakTypeReport:
    """Empirical weak-type constant sup alpha^q w{Mc >= alpha} / ||c||^q and,
    for q > 1, the strong-type ratio ||Mc|| / ||c||.  Estimates, not
    certificates; the report carries the sampling provenance."""
    win = w.window
    rng = np.random.default_rng(seed)
    weak = 0.0
    strong = 0.0
    for t in range(int(trials)):
        if t % 2 == 0:
            data = rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size)
        else:
            data = np.zeros(win.size, dtype=np.complex128)
            spikes = rng.integers(0, win.size, max(1, win.size // 16))
            data[spikes] = rng.standard_normal(spikes.size) * 4.0
        c = LatticeSequence(win, data, copy=False)
        norm_c = weighted_norm(c, q, w)
        if norm_c == 0.0:
            continue
        mc = np.abs(maximal(c).data)
        levels = np.quantile(mc[mc > 0], np.linspace(0.05, 0.95, 13))
        for alpha in levels:
            if alpha <= 0:
                continue
            mass = float(w.values[mc >= alpha].sum())
            weak = max(weak, alpha**q * mass / norm_c**q)
        if q > 1:
            mc_seq = LatticeSequence(win, mc.astype(np.complex128), copy=False)
            strong = max(strong, weighted_norm(mc_seq, q, w) / norm_c)
    return WeakTypeReport(weak, strong, int(trials), q, seed)
