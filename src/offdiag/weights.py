"""Two-index weights u(i, j), companion weights, and series certificates.

Every built-in closed form is a RadialForm psi(n) of n = |i - j|_inf, which a
WeightMatrix stores with its descriptor when it is built (a table stores
None), so evaluation, companions and series read that form alone.  The
cross-norm C_p(v, u) and the scale-indexed quantity B_N(p) reduce to
ring-weighted series over Z^d with exact ring cardinalities
(2m+1)^d - (2m-1)^d, whose terms are exact tail suprema of v/u.  Partial
sums are extended adaptively and closed with integral-comparison tail
bounds; reported values are certified upper bounds.  Every closed form is
nondecreasing, so A_N = v(N) (2N+1)^d.
scipy serves only the incomplete-gamma tail of subexponential series, so it
is imported there, on first use, and not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Window, diagonal_suprema, radial_matrix, ring_counts, ring_lp, ring_suprema

__all__ = [
    "WeightMatrix",
    "WeightValidationError",
    "RadialForm",
    "SeriesValue",
    "SubmultReport",
    "ThetaFit",
    "default_companion",
    "cross_norm",
    "check_submultiplicative",
    "theta_fit",
    "mpu_upper_bound",
]

_SERIES_REL_EPS = 1e-18
_SERIES_MIN_TERMS = 512
_SERIES_MAX_TERMS = 200_000


class WeightValidationError(ValueError):
    """Weight matrix violating u >= 1 or symmetry."""


@dataclass(frozen=True)
class RadialForm:
    """psi(n) = scale * (1 + n)^alpha * exp(tau * n^delta) for n >= 0."""

    scale: float = 1.0
    alpha: float = 0.0
    tau: float = 0.0
    delta: float = 0.5

    def value(self, n):
        n = np.asarray(n, dtype=np.float64)
        out = self.scale * (1.0 + n) ** self.alpha
        if self.tau != 0.0:
            out = out * np.exp(self.tau * n**self.delta)
        return out

    def ratio(self, other: "RadialForm") -> "RadialForm | None":
        """self / other, or None when the exponential scales are incompatible."""
        if self.tau != 0.0 and other.tau != 0.0 and self.delta != other.delta:
            return None
        delta = self.delta if self.tau != 0.0 else other.delta
        return RadialForm(
            scale=self.scale / other.scale,
            alpha=self.alpha - other.alpha,
            tau=self.tau - other.tau,
            delta=delta,
        )

    @property
    def nonincreasing(self) -> bool:
        # tau < 0 with alpha > 0 (and the mirror case) is unimodal, not monotone
        return self.tau <= 0.0 and self.alpha <= 0.0

    def limit(self) -> float:
        if self.tau < 0.0 or (self.tau == 0.0 and self.alpha < 0.0):
            return 0.0
        if self.tau == 0.0 and self.alpha == 0.0:
            return self.scale
        return math.inf

    def tail_sup(self, m):
        """sup_{n >= m} psi(n); vectorized over integer m.

        Exact for every form.  In the mixed case tau < 0 < alpha (with
        0 < delta <= 1), d log psi / dn has the sign of the concave
        g(n) = alpha n^{1-delta} + tau delta (1 + n), which is negative for
        large n, so psi rises on at most one interval (r1, r2) and the sup
        is psi(m) or psi at an integer beside r2, found by bisection past
        the maximiser of g.
        """
        m = np.asarray(m, dtype=np.float64)
        if self.limit() == math.inf:
            return np.full(m.shape, math.inf)
        out = self.value(m)
        if self.nonincreasing:
            return out
        alpha, tau, delta = self.alpha, self.tau, self.delta
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"tail_sup of a mixed form needs delta in (0, 1], got {delta}")

        def g(n):
            return alpha * n ** (1.0 - delta) + tau * delta * (1.0 + n)

        lo = (alpha * (1.0 - delta) / (-tau * delta)) ** (1.0 / delta)
        if g(lo) <= 0.0:
            return out  # psi never rises
        hi = 2.0 * lo + 1.0
        while g(hi) > 0.0:
            hi *= 2.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # r2 in [lo, hi], to the last bit
            lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
        for k in (math.floor(lo), math.floor(lo) + 1):
            out = np.where(m <= k, np.maximum(out, self.value(k)), out)
        return out


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Weight u(i, j) >= 1: a RadialForm in |i - j|_inf, or a table (radial None).

    Each constructor checks its own parameters, which must be finite.
    """

    d: int
    descriptor: str
    radial: RadialForm | None = None
    table_window: Window | None = None
    table_values: np.ndarray | None = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def trivial(cls, d: int) -> "WeightMatrix":
        return cls(d, "trivial", RadialForm())

    @classmethod
    def polynomial(cls, alpha: float, d: int) -> "WeightMatrix":
        alpha = float(alpha)
        if not 0.0 <= alpha < math.inf:
            raise WeightValidationError("polynomial weight needs a finite alpha >= 0")
        return cls(d, f"polynomial({alpha:g})", RadialForm(alpha=alpha))

    @classmethod
    def subexponential(cls, delta: float, tau: float, d: int) -> "WeightMatrix":
        delta, tau = float(delta), float(tau)
        if not 0.0 < delta < 1.0:
            raise WeightValidationError("subexponential weight needs delta in (0,1)")
        if not 0.0 < tau <= 1.0:
            raise WeightValidationError("subexponential weight needs tau in (0,1]")
        return cls(d, f"subexponential({delta:g},{tau:g})", RadialForm(tau=tau, delta=delta))

    @classmethod
    def constant(cls, c: float, d: int) -> "WeightMatrix":
        c = float(c)
        if not 1.0 <= c < math.inf:
            raise WeightValidationError("constant weight needs a finite c >= 1")
        return cls(d, f"constant({c:g})", RadialForm(scale=c))

    @classmethod
    def table(cls, window: Window, values) -> "WeightMatrix":
        vals = np.array(values, dtype=np.float64)
        if vals.shape != (window.size, window.size):
            raise WeightValidationError("table shape does not match window")
        if not np.all((vals >= 1.0) & (vals < math.inf)):
            raise WeightValidationError("table weight entries must be finite and >= 1")
        if not np.array_equal(vals, vals.T):
            raise WeightValidationError("table weight must be symmetric")
        vals.setflags(write=False)
        return cls(window.d, f"table(R={window.radius})", None, window, vals)

    # -- evaluation ---------------------------------------------------------
    def grid(self, window: Window) -> np.ndarray:
        if window.d != self.d:
            raise ValueError(f"weight dimension {self.d} does not match window d={window.d}")
        if self.radial is None:
            if window != self.table_window:
                raise ValueError("table weight defined on a different window")
            return self.table_values
        with np.errstate(over="ignore"):  # an overflow is refused below
            psi = self.radial.value(np.arange(window.side))
        if not math.isfinite(psi[-1]):  # every closed form is nondecreasing
            raise WeightValidationError(
                f"{self.descriptor} weight overflows on a radius-{window.radius} window")
        return radial_matrix(psi, window)

    def eval(self, i, j) -> float:
        if self.radial is None:
            w = self.table_window
            return float(self.table_values[w.flat(i), w.flat(j)])
        i = np.atleast_1d(np.asarray(i, dtype=np.int64))
        j = np.atleast_1d(np.asarray(j, dtype=np.int64))
        return float(self.radial.value(np.max(np.abs(i - j))))


def default_companion(u: WeightMatrix, p: float) -> WeightMatrix:
    """Built-in companion candidates; certified numerically downstream.

    (1+n)^alpha -> constant(2^alpha), from
    (1+|i-j|)^alpha <= 2^alpha ((1+|i-k|)^alpha + (1+|k-j|)^alpha);
    exp(tau n^delta) -> subexponential(delta, tau/2); a constant or trivial
    form pairs with the trivial companion.
    """
    r = u.radial
    if r is None:
        raise ValueError("table weights need an explicit companion")
    if r.tau != 0.0:
        return WeightMatrix.subexponential(r.delta, r.tau / 2.0, u.d)
    if r.alpha != 0.0:
        if r.alpha >= 1024.0:  # 2^alpha past the largest double
            raise WeightValidationError(
                f"the companion constant 2^alpha of {u.descriptor} overflows")
        return WeightMatrix.constant(2.0**r.alpha, u.d)
    return WeightMatrix.trivial(u.d)


# ---------------------------------------------------------------------------
# Ring series over Z^d with integral-comparison tails.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesValue:
    """Certified value = (partial + tail_bound)^(1/p'), inf when divergent."""

    value: float
    partial: float
    tail_bound: float
    terms: int
    diverged: bool


def _poly_tail(scale_pp: float, expo: float, d: int, m_end: int) -> float:
    """Upper bound for sum_{m > m_end} ring(m,d) * (1+m)^expo * scale_pp."""
    s = -expo - d
    if s <= 0:
        return math.inf
    return 2 * d * 3 ** (d - 1) * scale_pp * (1.0 + m_end) ** (-s) / s


def _exp_tail(scale_pp: float, beta: float, lam2: float, delta: float, d: int, m_end: int) -> float:
    """Upper bound for 2d 3^(d-1) scale_pp sum_{m > m_end} (1+m)^beta e^{-lam2 m^delta}.

    Splits e^{-lam2 x^delta} into two factors at lam = lam2/2, freezes the
    polynomial envelope times one factor at its tail sup, and integrates the
    other exactly via the upper incomplete gamma function.
    """
    from scipy.special import gammaincc, gamma as gamma_fn

    lam = lam2 / 2.0
    envelope = RadialForm(scale=1.0, alpha=beta, tau=-lam, delta=delta)
    k_sup = float(envelope.tail_sup(np.array([m_end]))[0])
    a = 1.0 / delta
    integral = (1.0 / delta) * lam ** (-a) * gamma_fn(a) * float(gammaincc(a, lam * m_end**delta))
    return 2 * d * 3 ** (d - 1) * scale_pp * k_sup * (integral + math.exp(-lam2 * m_end**delta))


def _tail_bound(ratio: RadialForm, p_prime: float, d: int, m_end: int) -> float:
    """Upper bound for sum_{m > m_end} ring(m,d) * ratio(m)^p' for a ratio with limit 0."""
    scale_pp = ratio.scale**p_prime
    if ratio.tau < 0.0:
        return _exp_tail(scale_pp, d - 1 + ratio.alpha * p_prime,
                         -ratio.tau * p_prime, ratio.delta, d, m_end)
    if ratio.alpha < 0.0:
        return _poly_tail(scale_pp, ratio.alpha * p_prime, d, m_end)
    return 0.0  # ratio constant zero


def ring_power_series(ratio: RadialForm, p_prime: float, d: int, m_start: int) -> SeriesValue:
    """|| (r(|k|))_{|k| >= m_start} ||_{p'} with r(m) = sup_{n>=m} ratio(n).

    p_prime = inf returns the plain tail supremum (the p = 1 case).
    """
    if math.isinf(p_prime):
        v = float(ratio.tail_sup(np.array([m_start]))[0])
        return SeriesValue(v, v, 0.0, 1, not math.isfinite(v))
    if ratio.limit() > 0.0:
        return SeriesValue(math.inf, math.inf, math.inf, 0, True)

    m_end = max(m_start + _SERIES_MIN_TERMS, _SERIES_MIN_TERMS)
    partial = 0.0
    m_lo = m_start
    terms = 0
    while True:
        ms = np.arange(m_lo, m_end + 1, dtype=np.float64)
        rings = ring_counts(d, m_end, m_lo)
        r = ratio.tail_sup(ms)
        chunk = rings * r**p_prime
        partial += float(np.sum(chunk))
        terms += ms.size
        last = float(chunk[-1]) if chunk.size else 0.0
        if last <= _SERIES_REL_EPS * max(partial, 1e-300) or m_end >= _SERIES_MAX_TERMS:
            break
        m_lo, m_end = m_end + 1, min(2 * m_end, _SERIES_MAX_TERMS)

    tail = _tail_bound(ratio, p_prime, d, m_end)
    if not math.isfinite(tail):
        return SeriesValue(math.inf, partial, math.inf, terms, True)
    return SeriesValue((partial + tail) ** (1.0 / p_prime), partial, tail, terms, False)


def _p_prime(p: float) -> float:
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p / (p - 1.0)


def cross_norm(u: WeightMatrix, v: WeightMatrix, p: float, window: Window | None = None) -> SeriesValue:
    """C_p(v, u): l^{p/(p-1)} norm over k in Z^d of the ring suprema of v/u.

    Closed-form pairs use the infinite ring series with a certified tail;
    table weights fall back to the window-restricted sum.
    """
    ur, vr = u.radial, v.radial
    if ur is not None and vr is not None:
        ratio = vr.ratio(ur)
        if ratio is not None:
            return ring_power_series(ratio, _p_prime(p), u.d, 0)
    if window is None:
        window = u.table_window or v.table_window
    if window is None:
        raise ValueError("table-form cross norm needs a window")
    r = ring_suprema(diagonal_suprema(v.grid(window) / u.grid(window), window))
    val = ring_lp(r, window.d, _p_prime(p))
    return SeriesValue(val, val, 0.0, r.size, False)


# ---------------------------------------------------------------------------
# Submultiplicativity check and the theta certificate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmultReport:
    worst_margin: float
    cp: float
    triples_checked: int
    exhaustive: bool
    cp_partial: float
    cp_tail_bound: float

    @property
    def holds(self) -> bool:
        return bool(self.worst_margin >= 0.0)


def check_submultiplicative(u: WeightMatrix, v: WeightMatrix, p: float, window: Window,
                            sample_budget: int = 4_000_000, seed: int = 0) -> SubmultReport:
    """Verify u(i,j) <= u(i,k) v(k,j) + v(i,k) u(k,j) and compute C_p(v, u).

    All triples are checked when |window|^3 fits the budget, otherwise a
    seeded uniform sample of sample_budget triples.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    ug = u.grid(window)
    vg = v.grid(window)
    n = window.size
    if n**3 <= sample_budget:
        # margin[i,j,k] = u(i,k) v(k,j) + v(i,k) u(k,j) - u(i,j), chunked over i
        worst = math.inf
        for i0 in range(0, n, max(1, sample_budget // (n * n))):
            i1 = min(n, i0 + max(1, sample_budget // (n * n)))
            t1 = ug[i0:i1, None, :] * vg.T[None, :, :]
            t2 = vg[i0:i1, None, :] * ug.T[None, :, :]
            margin = t1 + t2 - ug[i0:i1, :, None]
            worst = min(worst, float(margin.min()))
        checked = n**3
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, sample_budget)
        jj = rng.integers(0, n, sample_budget)
        kk = rng.integers(0, n, sample_budget)
        margin = ug[ii, kk] * vg[kk, jj] + vg[ii, kk] * ug[kk, jj] - ug[ii, jj]
        worst = float(margin.min())
        checked = sample_budget
        exhaustive = False
    cp = cross_norm(u, v, p, window)
    return SubmultReport(worst, cp.value, checked, exhaustive, cp.partial, cp.tail_bound)


@dataclass(frozen=True, eq=False)
class ThetaFit:
    """Certified pair (D, theta) with min_N(A_N + B_N t) <= D t^theta on the grid."""

    D: float
    theta: float
    n_grid: np.ndarray
    t_grid: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    min_values: np.ndarray
    margins: np.ndarray
    satisfied: bool
    diverged: bool
    b_tail_bound: float

    def certificate_holds(self) -> bool:
        return bool(np.all(self.margins >= 0.0))


def theta_fit(u: WeightMatrix, v: WeightMatrix, p: float, d: int,
              n_max: int = 2048, t_grid=None) -> ThetaFit:
    """Fit the growth certificate from the scale-indexed series A_N, B_N(p).

    B_N is the tail l^{p/(p-1)} norm of the ring suprema of v/u from
    |k| >= N/2; the exponent theta is the log-log slope over the top decade
    of the t-grid and D is inflated so the inequality holds at every grid t.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if t_grid is None:
        t_grid = np.geomspace(1.0, 1e6, 61)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    distinct = np.unique(t_grid).size
    if distinct < 2:
        raise ValueError(f"t_grid needs 2 distinct points to fit a slope, got {distinct}")
    if np.any(t_grid < 1.0):
        raise ValueError("t_grid must lie in [1, inf)")
    ur, vr = u.radial, v.radial
    if ur is None or vr is None:
        raise ValueError("theta_fit needs closed-form weights")
    ratio = vr.ratio(ur)
    if ratio is None:
        raise ValueError("incompatible exponential scales in v/u")

    n_grid = np.arange(1, n_max + 1)
    # A_N = sum_{|k| <= N} sup_{|k| <= n <= N} v(n) = v(N) (2N+1)^d: every closed
    # form WeightMatrix accepts (c >= 1, alpha >= 0, tau > 0) is nondecreasing
    with np.errstate(over="ignore"):  # an overflow is refused below
        a_vals = vr.value(n_grid) * (2.0 * n_grid + 1.0) ** d
    if not np.all(np.isfinite(a_vals)):
        raise ValueError(f"A_N = v(N) (2N+1)^d of the {v.descriptor} companion overflows "
                         f"within n_max = {n_max}")

    pp = _p_prime(p)
    b_vals = np.empty(n_max, dtype=np.float64)
    tail_bound = 0.0
    if math.isinf(pp):
        starts = (n_grid + 1) // 2
        b_vals[:] = ratio.tail_sup(starts)
        diverged = not math.isfinite(float(ratio.tail_sup(np.array([0]))[0]))
    else:
        m_big = max(2 * n_max, 4096)
        rings = ring_counts(d, m_big)
        r = ratio.tail_sup(np.arange(0, m_big + 1, dtype=np.float64))
        diverged = ratio.limit() > 0.0 or not np.all(np.isfinite(r))
        if not diverged:
            terms = rings * r**pp
            suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
            tail_bound = _tail_bound(ratio, pp, d, m_big)
            diverged = not math.isfinite(tail_bound)
            if not diverged:
                starts = (n_grid + 1) // 2
                b_vals[:] = (suffix[starts] + tail_bound) ** (1.0 / pp)
    if diverged:
        nanarr = np.full(t_grid.shape, math.nan)
        return ThetaFit(math.inf, math.nan, n_grid, t_grid, a_vals,
                        np.full(n_max, math.inf), nanarr, nanarr,
                        satisfied=False, diverged=True, b_tail_bound=math.inf)

    min_vals = np.min(a_vals[:, None] + b_vals[:, None] * t_grid[None, :], axis=0)
    top = t_grid >= t_grid[-1] / 10.0
    if np.count_nonzero(top) < 2:
        top = slice(-2, None)
    slope = float(np.polyfit(np.log(t_grid[top]), np.log(min_vals[top]), 1)[0])
    satisfied = 0.02 < slope < 0.98
    theta = slope
    big_d = float(np.max(min_vals / t_grid**theta))
    margins = big_d * t_grid**theta - min_vals
    return ThetaFit(big_d, theta, n_grid, t_grid, a_vals, b_vals, min_vals,
                    margins, satisfied=satisfied, diverged=False,
                    b_tail_bound=tail_bound)


def mpu_upper_bound(u: WeightMatrix, p: float, candidates, window: Window,
                    sample_budget: int = 4_000_000, seed: int = 0) -> float:
    """min over companion candidates of C_p(v, u) — an upper bound for the
    infimal cross-norm, which is not computable."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate list")
    best = math.inf
    for v in candidates:
        rep = check_submultiplicative(u, v, p, window, sample_budget, seed)
        if not rep.holds:
            raise ValueError(f"candidate {v.descriptor} fails the companion inequality")
        best = min(best, rep.cp)
    return best
