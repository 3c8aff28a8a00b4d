"""Weighted matrix norms with off-diagonal decay and their explicit-constant
inequalities.

Three norm families on a weighted matrix |a(i,j)| u(i,j):

* ring norm: l^p over k in Z^d of the ring suprema sup_{|i-j| >= |k|} (the
  strongest, summation ordered by ascending ring radius),
* diagonal norm: l^p over k of the per-diagonal suprema sup_{i-j=k},
* row/column norm: max of sup_i and sup_j of the per-row / per-column l^p.

They collapse to a single entrywise supremum at p = infinity.  On finitely
supported matrices every inequality below is exact, so the product checks
assert true margins, not asymptotics.

The ring and diagonal norms read the diagonal suprema of
``lattice.weighted_pass``, and the sup and the row/column norm at
p = infinity their max, which is exact.  Only the row/column norm at finite
p reads the whole weighted magnitude, ``lattice.weighted_magnitude``.
``norm_report`` opens a ``lattice.sharing("passes")`` block, so its four
norms weight the matrix once.  A weighted magnitude that overflows is
refused with ValueError, and so is a finite one whose p-th power sum
overflows; the power sums are formed as they always were, so every finite
norm keeps its bits.  ``brandenburg_radii`` refuses an overflowing root
itself, with ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (LocalizedMatrix, decay_profile, matvec, multiply, ring_lp, shared,
                      sharing, weighted_magnitude, weighted_pass)
from .spectral import operator_norm_l2
from .weights import ThetaFit, cross_norm

__all__ = [
    "NormReport",
    "beurling_norm",
    "sjostrand_norm",
    "schur_norm",
    "jaffard_value",
    "norm_report",
    "ProductInequalityReport",
    "product_inequality_check",
    "BrandenburgReport",
    "brandenburg_radii",
    "SquareGrowthReport",
    "square_growth_check",
]


def _check_exponent(p: float) -> None:
    """The norms are defined for 1 <= p <= infinity; anything else (NaN too) is refused."""
    if not p >= 1:
        raise ValueError(f"p must lie in [1, infinity], got {p}")


def _refuse_overflow(value: float, mag: np.ndarray, p: float, weight) -> float:
    """value, unless its p-th power sum overflowed on the finite magnitude mag."""
    if not math.isfinite(value) and np.isfinite(mag).all():
        wid = "trivial" if weight is None else weight.descriptor
        raise ValueError(f"the p-th power sum of the weighted magnitude |a| u "
                         f"overflows at p={p} under the {wid} weight")
    return value


def beurling_norm(a: LocalizedMatrix, p: float, weight=None) -> float:
    """l^p over k in Z^d of h(|k|), h = ring suprema of |a| u.

    Rings beyond 2R are empty, so the sum over the infinite lattice is exact:
    h(0)^p + sum_{m>=1} ((2m+1)^d - (2m-1)^d) h(m)^p, then the p-th root.
    """
    _check_exponent(p)
    h = decay_profile(a, weight)
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = ring_lp(h, a.window.d, p)
    return _refuse_overflow(value, h, p, weight)


def sjostrand_norm(a: LocalizedMatrix, p: float, weight=None) -> float:
    """l^p over k in Z^d of the diagonal suprema sup_{i-j=k} |a(i,j)| u(i,j)."""
    _check_exponent(p)
    diag = weighted_pass(a, weight).ravel()
    if math.isinf(p):
        return float(diag.max(initial=0.0))
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = float(np.sum(diag**p) ** (1.0 / p))
    return _refuse_overflow(value, diag, p, weight)


def schur_norm(a: LocalizedMatrix, p: float, weight=None) -> float:
    """max over rows/columns of the weighted l^p of a single row / column."""
    _check_exponent(p)
    if math.isinf(p):  # the sup, the largest diagonal supremum
        return float(weighted_pass(a, weight).max(initial=0.0))
    mag = weighted_magnitude(a, weight)
    with np.errstate(over="ignore"):  # an overflow is refused below
        powers = mag**p
        rows = np.sum(powers, axis=1) ** (1.0 / p)
        cols = np.sum(powers, axis=0) ** (1.0 / p)
    value = float(max(rows.max(initial=0.0), cols.max(initial=0.0)))
    return _refuse_overflow(value, mag, p, weight)


def jaffard_value(a: LocalizedMatrix, weight=None) -> float:
    """The common p = infinity collapse: sup |a(i,j)| u(i,j), the largest
    diagonal supremum."""
    return float(weighted_pass(a, weight).max(initial=0.0))


@dataclass(frozen=True)
class NormReport:
    beurling: float
    sjostrand: float
    schur: float
    jaffard: float
    p: float
    weight_id: str


def norm_report(a: LocalizedMatrix, p: float, weight=None) -> NormReport:
    """The four families at p, equal to the four separate calls, on one weighted pass."""
    wid = "trivial" if weight is None else weight.descriptor
    with sharing("passes"):
        beurling = beurling_norm(a, p, weight)  # its decay profile makes the pass
        return NormReport(
            beurling=beurling,
            sjostrand=sjostrand_norm(a, p, weight),
            schur=schur_norm(a, p, weight),
            jaffard=jaffard_value(a, weight),
            p=p,
            weight_id=wid,
        )


@dataclass(frozen=True)
class ProductInequalityReport:
    lhs: float
    rhs_split: float
    rhs_algebra: float
    margin_split: float
    margin_algebra: float
    split_constant: float
    algebra_constant: float
    cp: float


def _cp(u, v, p: float) -> float:
    """C_p(v, u), summed once per (u, v, p, d) in a ``sharing("constants")`` block."""
    return shared("constants", (u.radial, v.radial, p, u.d),
                  lambda: cross_norm(u, v, p)).value


def product_inequality_check(a: LocalizedMatrix, b: LocalizedMatrix, p: float,
                             u, v) -> ProductInequalityReport:
    """Check both product bounds for the u/companion-v pair.

    * split form: ||AB||_{p,u} <= 2^{2/p} 5^{(d-1)/p}
      (||A||_{p,u} ||B||_{1,v} + ||A||_{1,v} ||B||_{p,u});
    * algebra form with the cross-norm upper bound standing in for the
      infimal companion bound: ||AB||_{p,u} <= 2^{1+2/p} 5^{(d-1)/p}
      C_p(v,u) ||A||_{p,u} ||B||_{p,u}.  Substituting C_p >= M_p only
      enlarges the right-hand side, so nonnegative margins remain required.
    """
    d = a.window.d
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    cp = _cp(u, v, p)
    lhs = beurling_norm(multiply(a, b), p, u)
    a_pu = beurling_norm(a, p, u)
    b_pu = beurling_norm(b, p, u)
    a_1v = beurling_norm(a, 1.0, v)
    b_1v = beurling_norm(b, 1.0, v)
    c_split = 2.0 ** (2.0 * inv_p) * 5.0 ** ((d - 1) * inv_p)
    c_alg = 2.0 ** (1.0 + 2.0 * inv_p) * 5.0 ** ((d - 1) * inv_p) * cp
    rhs_split = c_split * (a_pu * b_1v + a_1v * b_pu)
    rhs_alg = c_alg * a_pu * b_pu
    return ProductInequalityReport(lhs, rhs_split, rhs_alg, rhs_split - lhs,
                                   rhs_alg - lhs, c_split, c_alg, cp)


@dataclass(frozen=True, eq=False)
class BrandenburgReport:
    roots: np.ndarray  # roots[n-1] = ||A^n||^{1/n}, n = 1..n_max
    opnorm_l2: float
    radius_estimate: float
    gap: float
    n_max: int


def brandenburg_radii(a: LocalizedMatrix, p: float, weight=None, n_max: int = 16,
                      seed: int = 0) -> BrandenburgReport:
    """Root sequence ||A^n||^{1/n} next to an l^2 growth estimate.

    The l^2 spectral-radius estimate is deflation-free modulus tracking:
    the n_max-step growth factor (||A^{n_max} x|| / ||x||)^{1/n_max},
    maximized over seeded probes (``lattice.matvec``) — the l^2 Gelfand root at
    the same horizon as the algebra-norm roots it is compared against.  A root
    or a growth factor that overflows raises ArithmeticError.
    """
    _check_exponent(p)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    roots = np.empty(n_max, dtype=np.float64)
    growth = []
    rng = np.random.default_rng(seed)
    size = a.window.size
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are refused below
        power = a
        for n in range(1, n_max + 1):
            if n > 1:
                power = multiply(power, a)
            # beurling_norm, unrefused: an overflowing root is this call's to refuse
            roots[n - 1] = ring_lp(decay_profile(power, weight), a.window.d, p) ** (1.0 / n)
        for _ in range(3):  # seeded probes
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            x0 = np.linalg.norm(x)
            for _ in range(n_max):
                x = matvec(a.data, x)
            growth.append(np.linalg.norm(x) / x0)
    if not (np.all(np.isfinite(roots)) and np.all(np.isfinite(growth))):
        raise ArithmeticError(f"||A^n|| overflows within n_max = {n_max} powers")
    est = max((float(g ** (1.0 / n_max)) for g in growth if g > 0), default=0.0)
    opnorm = operator_norm_l2(a.data)
    return BrandenburgReport(roots, opnorm, est, float(roots[-1] - est), n_max)


@dataclass(frozen=True)
class SquareGrowthReport:
    lhs: float
    rhs: float
    margin: float
    norm_pu: float
    norm_l2: float


def square_growth_check(a: LocalizedMatrix, p: float, u, fit: ThetaFit) -> SquareGrowthReport:
    """Check ||A^2||_{p,u} <= 2^{2+2/p} 5^{(d-1)/p} D ||A||_{p,u}^{1+theta} ||A||_2^{1-theta}
    with the certified (D, theta) pair, at t = ||A||_{p,u} / ||A||_2.  A t
    outside the fit's certified range [min t_grid, max t_grid] is refused."""
    if not fit.satisfied:
        raise ValueError("theta certificate not satisfied; no growth bound available")
    d = a.window.d
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    n_pu = beurling_norm(a, p, u)
    n_l2 = operator_norm_l2(a.data)
    lo, hi = float(fit.t_grid.min()), float(fit.t_grid.max())
    t = n_pu / n_l2 if n_l2 > 0.0 else math.inf
    if not lo <= t <= hi:
        raise ValueError(f"t = ||A||_{{p,u}} / ||A||_2 = {t!r} lies outside the theta "
                         f"certificate's range [{lo!r}, {hi!r}]")
    lhs = beurling_norm(multiply(a, a), p, u)
    const = 2.0 ** (2.0 + 2.0 * inv_p) * 5.0 ** ((d - 1) * inv_p) * fit.D
    rhs = const * n_pu ** (1.0 + fit.theta) * n_l2 ** (1.0 - fit.theta)
    return SquareGrowthReport(lhs, rhs, rhs - lhs, n_pu, n_l2)
