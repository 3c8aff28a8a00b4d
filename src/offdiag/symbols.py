"""Toeplitz matrices and their symbols.

A finitely supported coefficient sequence a(n) generates the Toeplitz matrix
(a(i-j)) and the symbol a_hat(xi) = sum a(n) exp(-i n xi).  Nonvanishing of
the symbol is certified on a uniform grid with a Lipschitz slack from
||n a(n)||_1, reciprocals come from adaptive grid doubling with aliasing
control on the outer quarter of coefficients, and the stability criterion
pairs the certified minimum modulus with bracket scaling over a radius
ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LocalizedMatrix, Window, generate, ring_lp
from .muckenhoupt import WeightSequence
from .stability import StabilityReport, ordered_map, stability_bracket

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
    if isinstance(n, (int, np.integer)):
        if d != 1:
            raise ValueError(f"scalar index {n} for d={d}")
        return (int(n),)
    key = tuple(int(x) for x in n)
    if len(key) != d:
        raise ValueError(f"index {n!r} does not match d={d}")
    return key


@dataclass(frozen=True, eq=False)
class SymbolCoeffs:
    """Finitely supported coefficients n in Z^d -> complex."""

    d: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for n, v in self.coeffs.items():
            v = complex(v)
            if v != 0:
                clean[_as_key(n, self.d)] = v
        object.__setattr__(self, "coeffs", clean)

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
    d = int(payload["d"])
    coeffs = {}
    for row in payload["coeffs"]:
        if len(row) != d + 2:
            raise ValueError(f"coefficient row of length {len(row)} for d={d}")
        coeffs[tuple(int(x) for x in row[:d])] = complex(row[d], row[d + 1])
    return SymbolCoeffs(d, coeffs)


def parse_coeffs(text: str, d: int = 1) -> SymbolCoeffs:
    """Parse "2@0,1@1" or "1@0;-0.5@1,1" style coefficient lists.

    Each item is value@index; complex values use Python syntax (e.g. 1+2j);
    for d > 1 the index is comma-separated inside the item, items split on ';'.
    """
    items = text.split(";") if d > 1 else text.split(",")
    coeffs = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        val_s, _, idx_s = item.partition("@")
        if not idx_s:
            raise ValueError(f"coefficient item {item!r} is missing '@index'")
        idx = tuple(int(x) for x in idx_s.split(",")) if d > 1 else int(idx_s)
        coeffs[idx] = complex(val_s)
    return SymbolCoeffs(d, coeffs)


def astar_norm(a: SymbolCoeffs) -> float:
    """sum_{k>=0} sup_{|n|>=k} |a(n)| for d = 1.

    For d > 1 the corresponding quantity is the unweighted ring norm of the
    generated Toeplitz matrix, computed from the coefficients directly
    (every difference is realized on the infinite lattice):
    sum_m ring(m, d) sup_{|n|_inf >= m} |a(n)|.
    """
    if not a.coeffs:
        return 0.0
    m_max = a.support_radius
    per_dist = np.zeros(m_max + 1)
    for n, v in a.coeffs.items():
        m = max(abs(x) for x in n)
        per_dist[m] = max(per_dist[m], abs(v))
    tail_sup = np.maximum.accumulate(per_dist[::-1])[::-1]
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

    The slack ||n a(n)||_1 (2pi/G) dominates the off-grid variation for
    d <= 2, so min - slack > 0 certifies nonvanishing on the whole torus.
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
    lip = sum(max(abs(x) for x in n) * abs(v) for n, v in a.coeffs.items())
    slack = lip * 2.0 * math.pi / g
    mn = float(mods.flat[flat])
    return MinModulusReport(mn, xi, slack, mn - slack > 0.0, g)


@dataclass(frozen=True)
class ReciprocalReport:
    grid: int
    outer_quarter_mass: float
    astar_norm: float
    min_modulus: float


def reciprocal_coeffs(a: SymbolCoeffs, tol: float = 1e-10, g_max: int = 1 << 20):
    """Coefficients of 1 / a_hat by adaptive grid doubling (d = 1).

    Doubles the grid until the outermost quarter of the unfolded
    coefficients carries l^1 mass <= tol (aliasing control).  Refuses
    symbols whose nonvanishing cannot be certified.
    """
    if a.d != 1:
        raise ValueError("reciprocal coefficients are defined for d = 1 symbols")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mm = symbol_min_modulus(a)
    if not mm.certified:
        g = mm.grid
        while not mm.certified and g <= g_max:
            g *= 2
            mm = symbol_min_modulus(a, g)
        if not mm.certified:
            raise VanishingSymbolError(
                f"symbol minimum modulus {mm.min_modulus:.3e} not certified positive"
            )
    g = max(mm.grid, 32)
    while True:
        values = np.fft.fft(_fold(a, g))
        if np.any(values == 0):
            raise VanishingSymbolError("symbol vanishes on the sampling grid")
        b_folded = np.fft.ifft(1.0 / values)
        ns = np.where(np.arange(g) <= g // 2, np.arange(g), np.arange(g) - g)
        outer = np.abs(ns) > g // 4
        mass = float(np.abs(b_folded[outer]).sum())
        if mass <= tol or g >= g_max:
            break
        g *= 2
    if mass > tol:
        raise VanishingSymbolError(
            f"aliasing mass {mass:.3e} above tol at the grid cap {g_max}"
        )
    coeffs = {}
    for m in range(g):
        v = b_folded[m]
        if abs(v) > 0.0:
            coeffs[int(ns[m])] = complex(v)
    b = SymbolCoeffs(1, coeffs)
    report = ReciprocalReport(g, mass, astar_norm(b), mm.min_modulus)
    return b, report


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


def toeplitz_stability_criterion(a: SymbolCoeffs, q: float, weight_factory=None,
                                 radii=(16, 32, 64, 128), grid_size: int | None = None,
                                 trials: int = 200, seed: int = 0,
                                 threads: int = 1) -> ToeplitzStabilityReport:
    """Stability verdict from the symbol: stable iff the certified minimum
    modulus is positive; a grid zero means a vanishing symbol (degrading),
    and an uncertified positive grid minimum is inconclusive.  Bracket
    scaling over the radius ladder is attached as empirical corroboration;
    radii are independent and may run on a pool (order-preserving).
    """
    mm = symbol_min_modulus(a, grid_size)
    if mm.certified:
        verdict = "stable"
    elif mm.min_modulus == 0.0:
        verdict = "degrading"
    else:
        verdict = "inconclusive"
    if weight_factory is None:
        weight_factory = WeightSequence.trivial

    def one(r) -> StabilityReport:
        win = Window(a.d, int(r))
        mat = toeplitz_matrix(a, win)
        return stability_bracket(mat, q, weight_factory(win), trials=trials, seed=seed)

    return ToeplitzStabilityReport(verdict, mm, tuple(ordered_map(one, radii, threads)))
