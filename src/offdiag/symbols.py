"""Toeplitz matrices and their symbols.

A finitely supported coefficient sequence a(n) generates the Toeplitz matrix
(a(i-j)) and the symbol a_hat(xi) = sum a(n) exp(-i n xi).  Nonvanishing of
the symbol is certified on a uniform grid with the Lipschitz slack
(pi/G) sum |n|_1 |a(n)|, valid in every dimension; reciprocals come from
adaptive grid doubling with aliasing control on the outer quarter of
coefficients, and the stability criterion pairs the certified minimum
modulus with bracket scaling over a radius ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (LocalizedMatrix, Window, generate, integer_coords, integral, is_number,
                      json_number, json_object, ring_lp, ring_suprema, sharing)
from .muckenhoupt import WeightSequence
from .stability import stability_bracket

__all__ = [
    "SymbolCoeffs",
    "VanishingSymbolError",
    "astar_norm",
    "MinModulusReport",
    "symbol_min_modulus",
    "ReciprocalReport",
    "reciprocal_coeffs",
    "convolve",
    "toeplitz_matrix",
    "ToeplitzStabilityReport",
    "toeplitz_stability_criterion",
    "parse_coeffs",
    "symbol_to_dict",
    "symbol_from_dict",
]


class VanishingSymbolError(ArithmeticError):
    """Reciprocal of a symbol whose nonvanishing cannot be certified."""


def _as_key(n, d: int) -> tuple:
    """n as a d-tuple of ints (a scalar at d = 1); refuses a non-integer coordinate."""
    idx = integer_coords(n)
    if idx.ndim == 0 and d != 1:
        raise ValueError(f"scalar index {n} for d={d}")
    if idx.shape not in ((), (d,)):
        raise ValueError(f"index {n!r} does not match d={d}")
    return tuple(int(x) for x in idx.reshape(d))


@dataclass(frozen=True, eq=False)
class SymbolCoeffs:
    """Finitely supported coefficients n in Z^d -> complex, given as a dict or
    as (index, value) pairs and kept as a dict of d-tuples to nonzero values.
    A non-finite value, or two entries naming one index (0 and (0,), say),
    raise ValueError: the symbol side's one refusal of a repeated index."""

    d: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        pairs = self.coeffs.items() if isinstance(self.coeffs, dict) else self.coeffs
        for n, v in pairs:
            v = complex(v)
            if not np.isfinite(v):
                raise ValueError(f"symbol coefficient {v} at {n!r} is not finite")
            key = _as_key(n, self.d)
            if key in clean:
                raise ValueError(f"two coefficient rows at index {key}")
            clean[key] = v
        object.__setattr__(self, "coeffs", {n: v for n, v in clean.items() if v != 0})

    @property
    def support_radius(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(x) for x in n) for n in self.coeffs)

    def value(self, n) -> complex:
        return self.coeffs.get(_as_key(n, self.d), 0.0 + 0.0j)


def symbol_to_dict(a: SymbolCoeffs) -> dict:
    entries = []
    for n, v in sorted(a.coeffs.items()):
        entries.append([*map(int, n), float(v.real), float(v.imag)])
    return {"d": a.d, "coeffs": entries}


def symbol_from_dict(payload: dict) -> SymbolCoeffs:
    json_object(payload, "a symbol file")
    d = json_number(payload, "d", int)
    rows = payload["coeffs"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and all(is_number(x) for row in rows for x in row)):
        raise ValueError("coefficient rows must be lists of numbers")
    pairs = []
    for row in rows:
        if len(row) != d + 2:
            raise ValueError(f"coefficient row of length {len(row)} for d={d}")
        if not all(integral(x) for x in row[:d]):
            raise ValueError(f"coefficient row {row} must start with an integer index")
        pairs.append((tuple(int(x) for x in row[:d]), complex(row[d], row[d + 1])))
    return SymbolCoeffs(d, pairs)


def parse_coeffs(text: str, d: int = 1) -> SymbolCoeffs:
    """Parse "2@0,1@1" or "1@0;-0.5@1,1" style coefficient lists.

    Each item is value@index; complex values use Python syntax (e.g. 1+2j);
    for d > 1 the index is comma-separated inside the item, items split on ';'.
    Two items at the same index raise ValueError, as two file rows do.
    """
    items = text.split(";") if d > 1 else text.split(",")
    pairs = []
    for item in items:
        item = item.strip()
        if not item:
            continue
        val_s, _, idx_s = item.partition("@")
        if not idx_s:
            raise ValueError(f"coefficient item {item!r} is missing '@index'")
        idx = tuple(int(x) for x in idx_s.split(",")) if d > 1 else int(idx_s)
        pairs.append((idx, complex(val_s)))
    return SymbolCoeffs(d, pairs)


def astar_norm(a: SymbolCoeffs) -> float:
    """sum_{k>=0} sup_{|n|>=k} |a(n)| for d = 1.

    For d > 1 the corresponding quantity is the unweighted ring norm of the
    generated Toeplitz matrix, computed from the coefficients directly
    (every difference is realized on the infinite lattice):
    sum_m ring(m, d) sup_{|n|_inf >= m} |a(n)|.  The tail suprema are
    ``ring_suprema`` of the (2r+1)^d array |a(n)|, r the support radius.
    """
    if not a.coeffs:
        return 0.0
    r = a.support_radius
    mag = np.zeros((2 * r + 1,) * a.d)
    for n, v in a.coeffs.items():
        mag[tuple(x + r for x in n)] = abs(v)
    tail_sup = ring_suprema(mag)
    if a.d == 1:
        return float(np.sum(tail_sup))
    return ring_lp(tail_sup, a.d)


@dataclass(frozen=True)
class MinModulusReport:
    min_modulus: float
    argmin_xi: tuple
    slack: float
    certified: bool
    grid: int

    @property
    def certified_min(self) -> float:
        return self.min_modulus - self.slack


def _fold(a: SymbolCoeffs, g: int) -> np.ndarray:
    folded = np.zeros((g,) * a.d, dtype=np.complex128)
    for n, v in a.coeffs.items():
        folded[tuple(x % g for x in n)] += v
    return folded


def symbol_min_modulus(a: SymbolCoeffs, grid_size: int | None = None) -> MinModulusReport:
    """Grid minimum of |a_hat| on [0, 2pi)^d plus a Lipschitz slack.

    Every point of the torus lies within pi/G of a grid point in each
    coordinate, and |a_hat(xi) - a_hat(xi')| <= sum_n |n|_1 |a(n)| |xi - xi'|_inf,
    so the slack (pi/G) sum_n |n|_1 |a(n)| bounds the off-grid variation in
    every dimension and min - slack > 0 certifies nonvanishing on the torus.
    """
    diam = 2 * a.support_radius + 1
    g_min = max(8, 4 * diam)
    g = g_min if grid_size is None else int(grid_size)
    if g < g_min:
        raise ValueError(f"grid size {g} below 4x support diameter ({g_min})")
    values = np.fft.fftn(_fold(a, g))
    mods = np.abs(values)
    flat = int(np.argmin(mods))
    pos = np.unravel_index(flat, mods.shape)
    xi = tuple(2.0 * math.pi * float(p) / g for p in pos)
    lip = sum(sum(abs(x) for x in n) * abs(v) for n, v in a.coeffs.items())
    slack = lip * math.pi / g
    mn = float(mods.flat[flat])
    return MinModulusReport(mn, xi, slack, mn - slack > 0.0, g)


@dataclass(frozen=True)
class ReciprocalReport:
    grid: int
    outer_quarter_mass: float
    astar_norm: float
    min_modulus: float


def reciprocal_coeffs(a: SymbolCoeffs, tol: float = 1e-10):
    """Coefficients of 1 / a_hat by adaptive grid doubling (d = 1).

    Doubles the grid until nonvanishing is certified, then until the
    outermost quarter of the unfolded coefficients carries l^1 mass <= tol
    (aliasing control); neither loop doubles past the grid cap 2^20.
    Raises VanishingSymbolError when nonvanishing is not certified, when the
    coefficients of 1 / a_hat are not finite (a_hat zero or so small that
    1 / a_hat overflows), or when the mass at the largest grid tried is above tol.
    """
    g_max = 1 << 20  # grid cap
    if a.d != 1:
        raise ValueError("reciprocal coefficients are defined for d = 1 symbols")
    if not 0 < tol < math.inf:  # nan too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mm = symbol_min_modulus(a)
    while not mm.certified and 2 * mm.grid <= g_max:
        mm = symbol_min_modulus(a, 2 * mm.grid)
    if not mm.certified:
        raise VanishingSymbolError(f"symbol minimum modulus {mm.min_modulus:.3e} "
                                   "not certified positive")
    g = max(mm.grid, 32)
    while True:
        with np.errstate(all="ignore"):  # a zero or tiny a_hat is refused below
            b_folded = np.fft.ifft(1.0 / np.fft.fft(_fold(a, g)))
        if not np.all(np.isfinite(b_folded)):
            raise VanishingSymbolError(f"coefficients of 1/a_hat are not finite at grid {g}")
        ns = np.where(np.arange(g) <= g // 2, np.arange(g), np.arange(g) - g)
        mass = float(np.abs(b_folded[np.abs(ns) > g // 4]).sum())  # the outer quarter
        if mass <= tol or 2 * g > g_max:
            break
        g *= 2
    if not mass <= tol:  # nan too
        raise VanishingSymbolError(f"aliasing mass {mass:.3e} above tol at grid {g}, "
                                   f"the largest within the cap {g_max}")
    nz = np.flatnonzero(b_folded)
    b = SymbolCoeffs(1, zip(ns[nz].tolist(), b_folded[nz].tolist()))
    return b, ReciprocalReport(g, mass, astar_norm(b), mm.min_modulus)


def convolve(a: SymbolCoeffs, b: SymbolCoeffs) -> SymbolCoeffs:
    """Coefficient convolution (the symbol product)."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for n, va in a.coeffs.items():
        for m, vb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(n, m))
            out[key] = out.get(key, 0.0) + va * vb
    return SymbolCoeffs(a.d, out)


def toeplitz_matrix(a: SymbolCoeffs, window: Window) -> LocalizedMatrix:
    if window.d != a.d:
        raise ValueError("window dimension does not match symbol")
    return generate("toeplitz_from_coeffs", window, coeffs=a.coeffs)


@dataclass(frozen=True, eq=False)
class ToeplitzStabilityReport:
    verdict: str  # stable | degrading | inconclusive
    min_modulus: MinModulusReport
    brackets: tuple


def toeplitz_stability_criterion(a: SymbolCoeffs, q: float, w: WeightSequence | None = None,
                                 radii=(16, 32, 64, 128), trials: int = 200,
                                 seed: int = 0) -> ToeplitzStabilityReport:
    """Stability verdict from the symbol: stable iff the certified minimum
    modulus is positive; a grid zero means a vanishing symbol (degrading),
    and an uncertified positive grid minimum is inconclusive.  That top-level
    verdict reads min|a_hat| alone, so it ignores q and w: it is the
    trivial-weight verdict.  The (q, w) verdicts are the per-radius brackets'.
    Bracket scaling over the radius ladder is attached as empirical
    corroboration, under the weight w (trivial when None) restricted to each
    radius; a w
    that does not reach the largest radius is refused before any bracket runs.
    The rungs share their sigma pairs: the half-radius sigma_min of rung R is
    the sigma_min of a rung R/2 with the same band, so a doubling ladder of k
    rungs makes k + 1 decompositions, not 2k; likewise rung R's half-window A_q scan
    is rung R/2's full scan.  Each bracket equals its own
    ``stability_bracket`` call.
    """
    mm = symbol_min_modulus(a)
    if mm.certified:
        verdict = "stable"
    elif mm.min_modulus == 0.0:
        verdict = "degrading"
    else:
        verdict = "inconclusive"
    if w is None:
        w = WeightSequence.trivial(Window(a.d, int(max(radii, default=0))))
    ws = [w.restrict(Window(a.d, int(r))) for r in radii]
    with sharing("sigma", a), sharing("constants"):
        brackets = tuple(stability_bracket(toeplitz_matrix(a, w_r.window), q, w_r,
                                           trials=trials, seed=seed) for w_r in ws)
    return ToeplitzStabilityReport(verdict, mm, brackets)
