"""Two-index weights u(i, j), companion weights, and series certificates.

All built-in closed forms are radial functions of n = |i - j|_inf, so the
cross-norm C_p(v, u) and the scale-indexed quantities A_N, B_N(p) reduce to
ring-weighted series over Z^d with exact ring cardinalities
(2m+1)^d - (2m-1)^d.  Partial sums are extended adaptively and closed with
integral-comparison tail bounds; reported values are certified upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gamma as gamma_fn

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

    @property
    def nondecreasing(self) -> bool:
        return self.tau >= 0.0 and self.alpha >= 0.0

    def limit(self) -> float:
        if self.tau < 0.0 or (self.tau == 0.0 and self.alpha < 0.0):
            return 0.0
        if self.tau == 0.0 and self.alpha == 0.0:
            return self.scale
        return math.inf

    def tail_sup(self, m):
        """sup_{n >= m} psi(n); vectorized over integer m.

        Exact for monotone forms.  The mixed case tau < 0 < alpha is scanned
        on a dense-then-geometric grid past the stationary point, which is
        ample for the diagnostics that can reach it.
        """
        m = np.asarray(m, dtype=np.float64)
        if self.limit() == math.inf:
            return np.full(m.shape, math.inf)
        if self.nonincreasing:
            return self.value(m)
        # tau < 0, alpha > 0: bounded, eventually decreasing
        hi = int(np.max(m)) + 4096
        grid = np.unique(np.concatenate([
            np.arange(0, min(hi, 8192) + 1),
            np.geomspace(1, max(hi, 2), num=256).astype(np.int64),
        ]))
        vals = self.value(grid)
        suffix = np.maximum.accumulate(vals[::-1])[::-1]
        pos = np.searchsorted(grid, m)
        return suffix[np.minimum(pos, suffix.size - 1)]


_FORMS = ("trivial", "polynomial", "subexponential", "constant", "table")


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Weight u(i, j) >= 1; closed forms are radial in |i - j|_inf."""

    form: str
    d: int
    params: dict = field(default_factory=dict)
    table_window: Window | None = None
    table_values: np.ndarray | None = None

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown weight form {self.form!r}")
        p = self.params
        if self.form == "polynomial" and not p.get("alpha", 0.0) >= 0.0:
            raise WeightValidationError("polynomial weight needs alpha >= 0")
        if self.form == "constant" and not p.get("c", 1.0) >= 1.0:
            raise WeightValidationError("constant weight needs c >= 1")
        if self.form == "subexponential":
            if not (0.0 < p.get("delta", 0.0) < 1.0):
                raise WeightValidationError("subexponential weight needs delta in (0,1)")
            if not (0.0 < p.get("tau", 1.0) <= 1.0):
                raise WeightValidationError("subexponential weight needs tau in (0,1]")
        if self.form == "table":
            vals = np.asarray(self.table_values, dtype=np.float64)
            n = self.table_window.size
            if vals.shape != (n, n):
                raise WeightValidationError("table shape does not match window")
            if np.any(vals < 1.0):
                raise WeightValidationError("table weight entries must be >= 1")
            if not np.array_equal(vals, vals.T):
                raise WeightValidationError("table weight must be symmetric")
            vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, "table_values", vals)

    # -- constructors -------------------------------------------------------
    @classmethod
    def trivial(cls, d: int) -> "WeightMatrix":
        return cls("trivial", d)

    @classmethod
    def polynomial(cls, alpha: float, d: int) -> "WeightMatrix":
        return cls("polynomial", d, {"alpha": float(alpha)})

    @classmethod
    def subexponential(cls, delta: float, tau: float, d: int) -> "WeightMatrix":
        return cls("subexponential", d, {"delta": float(delta), "tau": float(tau)})

    @classmethod
    def constant(cls, c: float, d: int) -> "WeightMatrix":
        return cls("constant", d, {"c": float(c)})

    @classmethod
    def table(cls, window: Window, values) -> "WeightMatrix":
        return cls("table", window.d, {}, table_window=window,
                   table_values=np.asarray(values, dtype=np.float64))

    # -- evaluation ---------------------------------------------------------
    def radial(self) -> RadialForm | None:
        if self.form == "trivial":
            return RadialForm()
        if self.form == "constant":
            return RadialForm(scale=self.params["c"])
        if self.form == "polynomial":
            return RadialForm(alpha=self.params["alpha"])
        if self.form == "subexponential":
            return RadialForm(tau=self.params["tau"], delta=self.params["delta"])
        return None

    def grid(self, window: Window) -> np.ndarray:
        if window.d != self.d:
            raise ValueError(f"weight dimension {self.d} does not match window d={window.d}")
        if self.form == "table":
            if window != self.table_window:
                raise ValueError("table weight defined on a different window")
            return self.table_values
        return radial_matrix(self.radial().value(np.arange(window.side)), window)

    def eval(self, i, j) -> float:
        if self.form == "table":
            w = self.table_window
            return float(self.table_values[w.flat(i), w.flat(j)])
        i = np.atleast_1d(np.asarray(i, dtype=np.int64))
        j = np.atleast_1d(np.asarray(j, dtype=np.int64))
        return float(self.radial().value(np.max(np.abs(i - j))))

    def descriptor(self) -> str:
        if self.form == "trivial":
            return "trivial"
        if self.form == "constant":
            return f"constant({self.params['c']:g})"
        if self.form == "polynomial":
            return f"polynomial({self.params['alpha']:g})"
        if self.form == "subexponential":
            return f"subexponential({self.params['delta']:g},{self.params['tau']:g})"
        return f"table(R={self.table_window.radius})"


def default_companion(u: WeightMatrix, p: float) -> WeightMatrix:
    """Built-in companion candidates; certified numerically downstream.

    polynomial(alpha) -> constant(2^alpha), from
    (1+|i-j|)^alpha <= 2^alpha ((1+|i-k|)^alpha + (1+|k-j|)^alpha);
    subexponential(delta, tau) -> subexponential(delta, tau/2); trivial and
    constant forms pair with the trivial companion.
    """
    if u.form == "trivial":
        return WeightMatrix.trivial(u.d)
    if u.form == "constant":
        return WeightMatrix.trivial(u.d)
    if u.form == "polynomial":
        return WeightMatrix.constant(2.0 ** u.params["alpha"], u.d)
    if u.form == "subexponential":
        return WeightMatrix.subexponential(u.params["delta"], u.params["tau"] / 2.0, u.d)
    raise ValueError("table weights need an explicit companion")


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
    ur, vr = u.radial(), v.radial()
    if ur is not None and vr is not None:
        ratio = vr.ratio(ur)
        if ratio is not None:
            return ring_power_series(ratio, _p_prime(p), u.d, 0)
    if window is None:
        window = u.table_window if u.form == "table" else v.table_window
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


def _a_series(v_rad: RadialForm, d: int, n_max: int) -> np.ndarray:
    """A_N = sum_{|k| <= N} sup_{|k| <= n <= N} v(n) for N = 1..n_max."""
    v_vals = v_rad.value(np.arange(n_max + 1))
    rings = ring_counts(d, n_max)
    out = np.empty(n_max, dtype=np.float64)
    if v_rad.nondecreasing:
        cubes = (2.0 * np.arange(1, n_max + 1) + 1.0) ** d
        out[:] = v_vals[1:] * cubes
    else:
        for n in range(1, n_max + 1):
            sup = np.maximum.accumulate(v_vals[n::-1])[::-1]
            out[n - 1] = float(np.sum(rings[: n + 1] * sup))
    return out


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
    if np.any(t_grid < 1.0):
        raise ValueError("t_grid must lie in [1, inf)")
    ur, vr = u.radial(), v.radial()
    if ur is None or vr is None:
        raise ValueError("theta_fit needs closed-form weights")
    ratio = vr.ratio(ur)
    if ratio is None:
        raise ValueError("incompatible exponential scales in v/u")

    n_grid = np.arange(1, n_max + 1)
    a_vals = _a_series(vr, d, n_max)

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
            raise ValueError(f"candidate {v.descriptor()} fails the companion inequality")
        best = min(best, rep.cp)
    return best
