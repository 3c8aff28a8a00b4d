"""Discrete Muckenhoupt weights, the cube-scan A_q bound, and the maximal
operator on a window.

A weight sequence holds finite positive values; a closed form also stores
its RadialForm in |i|_inf, the one evaluator of it on and off the window.

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
from .weights import RadialForm

__all__ = [
    "WeightSequence",
    "AqReport",
    "aq_bound",
    "maximal",
    "weighted_norm",
    "CharacterizationReport",
    "aq_characterization_check",
]


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Sequence w(i) on a window: trivial, power(alpha), or a table (radial None)."""

    window: Window
    values: np.ndarray
    descriptor: str
    radial: RadialForm | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.window.size,):
            raise ValueError("values shape does not match window")
        if not np.all((vals > 0.0) & (vals < math.inf)):
            raise ValueError("weight sequence must be finite and strictly positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _closed(cls, window: Window, descriptor: str, radial: RadialForm) -> "WeightSequence":
        with np.errstate(over="ignore"):  # an overflow is refused as a non-finite value
            values = radial.value(np.abs(window.indices).max(axis=1))
        return cls(window, values, descriptor, radial)

    @classmethod
    def trivial(cls, window: Window) -> "WeightSequence":
        return cls._closed(window, "trivial", RadialForm())

    @classmethod
    def power(cls, window: Window, alpha: float) -> "WeightSequence":
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"power weight needs a finite alpha, got {alpha}")
        return cls._closed(window, f"power({alpha:g})", RadialForm(alpha=alpha))

    @classmethod
    def table(cls, window: Window, values) -> "WeightSequence":
        return cls(window, values, f"table(R={window.radius})")

    def restrict(self, window: Window) -> "WeightSequence":
        if window.d != self.window.d or window.radius > self.window.radius:
            raise ValueError(f"restriction window {window} is not a sub-window of {self.window}")
        if self.radial is None:
            return WeightSequence.table(window, self.values[self.window.flat(window.indices)])
        return WeightSequence._closed(window, self.descriptor, self.radial)

    def extended_values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate w at arbitrary lattice points (closed forms extend off-window)."""
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.window.d)
        if self.radial is None:
            return self.values[self.window.flat(pts)]  # refuses points off the table
        return self.radial.value(np.abs(pts).max(axis=1))


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
    """Exhaustive scan of all cubes fully inside the window, N = 1..n_cap; a
    scan whose value overflows is refused with ValueError."""
    if not q >= 1:  # nan too
        raise ValueError(f"q must be >= 1, got {q}")
    if math.isinf(q):
        raise ValueError("q = infinity is not supported")
    win = w.window
    n_cap = int(n_cap)
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    n_cap = min(n_cap, win.side)
    d, side = win.d, win.side
    w_nd = w.values.reshape((side,) * d)
    # every term is positive, so the total of w, or of w^{-1/(q-1)}, bounds each cube sum
    with np.errstate(over="ignore"):  # refused below
        dual = w_nd ** (-1.0 / (q - 1.0)) if q > 1 else w_nd
        finite = math.isfinite(w_nd.sum()) and math.isfinite(dual.sum())
    if not (finite and dual.min() > 0.0):
        raise ValueError(f"the A_q scan of the {w.descriptor} weight at q={q:g} overflows "
                         "(a sum of w or w^(-1/(q-1)) is inf, or w^(-1/(q-1)) underflows to 0)")
    # sums of w^{-1/(q-1)} for q > 1, minima of w for q = 1
    other = _cube_scan(dual, n_cap, np.add if q > 1 else np.minimum)
    best = -math.inf
    best_anchor, best_n = None, 1
    for n, (sum_w, other_n) in enumerate(zip(_cube_scan(w_nd, n_cap, np.add), other), start=1):
        vol = float(n**d)
        avg_w = sum_w / vol
        with np.errstate(over="ignore"):  # refused below
            lhs = avg_w * (other_n / vol) ** (q - 1.0) if q > 1 else avg_w / other_n
        pos = int(np.argmax(lhs))
        if float(lhs.flat[pos]) > best:
            best = float(lhs.flat[pos])
            anchor = np.unravel_index(pos, lhs.shape)
            best_anchor = tuple(int(a) - win.radius for a in anchor)
            best_n = n
    if not math.isfinite(best):
        raise ValueError(f"the A_q scan of the {w.descriptor} weight at q={q:g} overflows "
                         "(a cube's product of averages is inf)")
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
    mag = np.abs(c.data)
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = float(np.sum(mag**q * w.values) ** (1.0 / q))
    if not math.isfinite(value) and np.isfinite(mag).all():
        raise ValueError(f"the weighted l^{q:g} sum of a finite sequence overflows under the "
                         f"{w.descriptor} weight")
    return value


@dataclass(frozen=True)
class CharacterizationReport:
    worst_margin: float
    trials: int
    bound_used: float


def aq_characterization_check(w: WeightSequence, q: float, trials: int,
                              seed: int = 0) -> CharacterizationReport:
    """Monte Carlo check of the cube characterization

    (avg |c|)^q (avg w) <= A_q(w) avg(|c|^q w)   on cubes inside the window,
    using the scanned bound (cubes drawn with N <= the scan's N_cap).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
