"""Stability of window operators on weighted sequence spaces.

Certification strategy: on a finite window the q = 2 case is decidable by
dense SVD after conjugating by diag(w^{1/2}) and restricting probes to an
interior band (suppressing carve-out boundary artifacts).  A q != 2 verdict
is the q = 2 verdict of the trivial weight; its raw sampled bracket is
reported alongside and labeled as such.  The theory transfers that verdict
to (q, w) only when w is an A_q weight, so the transfer is gated on the A_q
scan: when the scan at radius R exceeds twice the scan at R/2, the verdict
is "inconclusive" (2I + S and I - S under w_k = 16^k at q = 4, which the
transfer would call stable and degrading).  "degrading" is the operational
negation at desk scale: the certified lower bound losing a factor >= 2 when
the window radius doubles; the gate is a desk-scale test in the same sense,
not a proof that w lies outside A_q.  A real operand (one stored as
float64) is conjugated and decomposed in real arithmetic: the singular values
of the complex path to roundoff, by a cheaper LAPACK SVD.

A bracket decomposes its window and the half-radius window.  The Toeplitz
ladder and ``cross_stability_verdicts`` share sigma pairs in a ``sharing("sigma",
owner)`` block of their symbol or matrix: one SVD per (window, band, weights),
and A_q scans in a ``sharing("constants")`` block.
A sigma pair copies only the interior columns of its window's matrix and
conjugates that copy in place; at weight 1 with the interior columns in one
run (every d = 1 window, band 0 at any d) it hands LAPACK a view, as scaling by
1 is exact.  A q = 2 bracket holds the operand and LAPACK's copy (and the
interior copy otherwise), besides the decay profile's |a|; each is one real
n x n array (or less) for a real operand and two for a complex one.  Complex
probes meet a real operand through ``lattice.matvec``, in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeSequence, LocalizedMatrix, Window, decay_profile,
                      matvec, restrict, ring_lp, shared, sharing)
from .muckenhoupt import WeightSequence, aq_bound, weighted_norm
from .norms import _cp, beurling_norm
from .spectral import singular_extremes
from .weights import WeightMatrix, default_companion

__all__ = [
    "PartitionOperator",
    "StabilityReport",
    "BoundednessReport",
    "boundedness_check",
    "stability_bracket",
    "CrossStabilityResult",
    "cross_stability_verdicts",
    "CommutatorReport",
    "commutator_diagnostic",
]


def _bandwidth(h: np.ndarray) -> int:
    """Largest ring m whose decay-profile value h(m) exceeds 1e-12."""
    above = np.flatnonzero(h > 1e-12)
    return int(above[-1]) if above.size else 0


def _tent(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(2.0 - x, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PartitionOperator:
    """Diagonal multiplier by the tent h((j - n) / N), h(x)=min(max(2-|x|,0),1)."""

    n_scale: int
    center: tuple
    window: Window

    def __post_init__(self):
        if self.n_scale < 1:
            raise ValueError("scale N must be >= 1")
        center = tuple(int(x) for x in np.atleast_1d(self.center))
        if len(center) != self.window.d:
            raise ValueError("center does not match window dimension")
        if any(c % self.n_scale for c in center):
            raise ValueError("center must lie in N Z^d")
        if any(abs(c) > self.window.radius for c in center):
            raise ValueError("center outside window")
        if 2 * self.n_scale > self.window.side:
            raise ValueError("scale N too large for window")
        object.__setattr__(self, "center", center)

    def values(self) -> np.ndarray:
        ix = self.window.indices
        x = np.abs(ix - np.asarray(self.center)).max(axis=1) / float(self.n_scale)
        return _tent(x)

    def alpha(self, w: WeightSequence) -> float:
        """Normalizer: sum of w over |i - center|_inf < 2N (off-window values
        come from the closed-form extension of w)."""
        n, d = self.n_scale, self.window.d
        rng = np.arange(-2 * n + 1, 2 * n)
        grids = np.meshgrid(*([rng] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1) + np.asarray(self.center)
        return float(np.sum(w.extended_values(pts)))


@dataclass(frozen=True)
class BoundednessReport:
    worst_margin: float
    constant: float
    trials: int
    aq_bound_used: float
    cp_used: float


def _aq(w: WeightSequence, q: float, n_cap: int) -> float:
    """The scanned A_q(w), made once per key in a ``sharing("constants")`` block."""
    return shared("constants", (w.window, q, n_cap, w.values.tobytes()),
                  lambda: aq_bound(w, q, n_cap)).bound


def boundedness_check(a: LocalizedMatrix, q: float, w: WeightSequence, p: float,
                      u: WeightMatrix, trials: int = 100, seed: int = 0,
                      v: WeightMatrix | None = None) -> BoundednessReport:
    """Check ||Ac||_{q,w} <= 2^{2d} 3^{d/q} A_q(w)^{1/q} C_p(v,u) ||A||_{p,u} ||c||_{q,w}
    on random c, with the scanned A_q bound and the computable cross-norm
    standing in for the infimal companion bound."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    win = a.window
    if v is None:
        v = default_companion(u, p)
    aq = _aq(w, q, win.side)
    cp = _cp(u, v, p)
    const = (2.0 ** (2 * win.d) * 3.0 ** (win.d / q) * aq ** (1.0 / q)
             * cp * beurling_norm(a, p, u))
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(int(trials)):
        data = rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size)
        c = LatticeSequence(win, data, copy=False)
        lhs = weighted_norm(LatticeSequence(win, matvec(a.data, data), copy=False), q, w)
        rhs = const * weighted_norm(c, q, w)
        worst = min(worst, rhs - lhs)
    return BoundednessReport(float(worst), const, int(trials), aq, cp)


@dataclass(frozen=True)
class StabilityReport:
    q: float
    weight_id: str
    lower: float
    upper: float
    verdict: str  # stable | degrading | inconclusive
    method: str  # svd | sampled
    probe_band: int
    cert_lower_full: float
    cert_lower_half: float


def _interior_mask(window: Window, band: int) -> np.ndarray:
    sup = np.abs(window.indices).max(axis=1)
    return sup <= window.radius - band


def _sigma_pair(a: LocalizedMatrix, w: WeightSequence, band: int, window: Window):
    """(sigma_min, sigma_max) of diag(w^{1/2}) A diag(w^{-1/2}), both restricted
    to window, on its interior probes; keyed by (window, band, weight values)."""
    if window != a.window:
        w = w.restrict(window)
    return shared("sigma", (window, band, w.values.tobytes()),
                  lambda: _svd_pair(a, w, band, window))


def _svd_pair(a: LocalizedMatrix, w: WeightSequence, band: int, window: Window):
    mask = _interior_mask(window, band)
    if not mask.any():
        raise ValueError(f"empty interior (band {band} >= radius {window.radius})")
    data = a.data if window == a.window else restrict(a, window).data
    cols = np.flatnonzero(mask)
    if cols[-1] - cols[0] + 1 == cols.size and (w.values == 1.0).all():
        conj = data[:, cols[0] : cols[-1] + 1]  # scaling by 1 is exact: a view, no copy
    else:
        sq = np.sqrt(w.values)
        conj = data[:, mask]  # the interior columns, the one copy
        conj *= sq[:, None]
        conj /= sq[None, mask]
    return singular_extremes(conj)


def _verdict(lo_full: float, lo_half: float | None, scale: float) -> str:
    if lo_half is None:
        return "inconclusive"
    tiny = 1e-13 * max(scale, 1.0)
    if lo_full <= tiny and lo_half <= tiny:
        return "degrading"
    if lo_full <= 0.5 * lo_half:
        return "degrading"
    if lo_full > tiny:
        return "stable"
    return "inconclusive"


def stability_bracket(a: LocalizedMatrix, q: float, w: WeightSequence,
                      band: int | None = None, trials: int = 200, seed: int = 0) -> StabilityReport:
    """Bracket [lower, upper] for ||Ac|| / ||c|| over interior probes.

    q = 2: exact extremal singular values of the w-conjugated matrix
    (method "svd"; the certified path).  q != 2: lower is the minimum over
    sampled interior probes — an upper bound on the true infimum, labeled
    "sampled" — and upper is the boundedness constant; the verdict is the
    q = 2 verdict of the trivial weight, which carries over to (q, w) only
    for w in A_q.  It turns "inconclusive" when the A_q scan at the radius
    exceeds twice the scan at half the radius: a desk-scale sign that w
    lies outside A_q, not a proof.  The default band, the verdict's scale and
    the q != 2 ring norm come from one decay profile; a negative band is
    refused.
    """
    if w.window != a.window:
        raise ValueError(f"weight window {w.window} differs from the matrix window {a.window}")
    if q < 1 or not math.isfinite(q):
        raise ValueError("q must lie in [1, infinity)")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    win = a.window
    h = decay_profile(a)
    if band is None:
        band = min(2 * _bandwidth(h), max(win.radius - 1, 0))
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    if band >= win.radius and win.radius > 0:
        raise ValueError(f"empty interior (band {band} >= radius {win.radius})")

    if q == 2:
        lower, upper = _sigma_pair(a, w, band, win)
        cert_w, lo_full = w, lower
        method = "svd"
    else:
        mask = _interior_mask(win, band)
        rng = np.random.default_rng(seed)
        lower = math.inf
        for _ in range(int(trials)):
            data = np.zeros(win.size, dtype=np.complex128)
            data[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
            c = LatticeSequence(win, data, copy=False)
            denom = weighted_norm(c, q, w)
            if denom == 0.0:
                continue
            lhs = weighted_norm(LatticeSequence(win, matvec(a.data, data), copy=False), q, w)
            lower = min(lower, lhs / denom)
        aq = _aq(w, q, win.side)
        upper = (2.0 ** (2 * win.d) * 3.0 ** (win.d / q) * aq ** (1.0 / q)
                 * ring_lp(h, win.d))
        cert_w = WeightSequence.trivial(win)
        lo_full = _sigma_pair(a, cert_w, band, win)[0]
        method = "sampled"
    half = Window(win.d, win.radius // 2)
    lo_half = _sigma_pair(a, cert_w, band, half)[0] if half.radius > band else None
    verdict = _verdict(lo_full, lo_half, float(h[0]))
    if q != 2 and verdict != "inconclusive" and aq > 2.0 * _aq(w.restrict(half), q, half.side):
        verdict = "inconclusive"
    report = StabilityReport(q, w.descriptor, float(lower), float(upper), verdict,
                             method, band, lo_full, lo_half if lo_half is not None else math.nan)
    if report.lower > report.upper + 1e-12 * max(report.upper, 1.0):
        raise ArithmeticError("bracket inverted; numerical failure")
    return report


@dataclass(frozen=True)
class CrossStabilityResult:
    reports: tuple
    consistent: bool


def cross_stability_verdicts(a: LocalizedMatrix, pairs, trials: int = 200,
                             seed: int = 0) -> CrossStabilityResult:
    """Run stability brackets over (q, WeightSequence) pairs, the k-th with
    seed + k; the consistency flag records whether all verdicts coincide
    (the transfer prediction).  Every q != 2 pair and every trivial-weight
    q = 2 pair certify on the same trivial-weight operands, which the call
    decomposes once, and the A_q scans are shared too; each report equals
    its own ``stability_bracket`` call.  An empty pair list is refused."""
    with sharing("sigma", a), sharing("constants"):
        reports = [stability_bracket(a, q, w, trials=trials, seed=seed + k)
                   for k, (q, w) in enumerate(pairs)]
    if not reports:
        raise ValueError("no (q, weight) pairs given")
    verdicts = {r.verdict for r in reports}
    return CrossStabilityResult(tuple(reports), len(verdicts) == 1)


@dataclass(frozen=True)
class CommutatorReport:
    case: str  # near | far
    lhs: float
    rhs: float
    margin: float
    probe_norm: float
    separation: int
    aq_bound_used: float


def commutator_diagnostic(a: LocalizedMatrix, n_scale: int, n, n_prime, q: float,
                          w: WeightSequence, c: LatticeSequence) -> CommutatorReport:
    """Exact norm of (Psi_n A - A Psi_n) Psi_{n'} c against the two-case bound.

    Near case (|n - n'| <= 8N):
        [2^{2d+2d/q} N^{-1/2} A_q^{1/q} ||A||_ring
         + 2^{3d+2d/q+1} A_q^{1/q} sum_{|k| >= sqrt(N)/2} h(|k|)] ||c||_{q,w};
    far case: 2^{2d} N^d A_q^{1/q} h(ceil(|n-n'|/2)) (alpha_n / alpha_{n'})^{1/q} ||c||_{q,w}.
    """
    win = a.window
    if c.window != win:
        raise ValueError("probe window mismatch")
    psi_n = PartitionOperator(n_scale, n, win)
    psi_np = PartitionOperator(n_scale, n_prime, win)
    d = win.d
    sep = int(np.abs(np.asarray(psi_n.center) - np.asarray(psi_np.center)).max())

    pn = psi_n.values()
    probe = psi_np.values() * c.data
    commutated = pn * matvec(a.data, probe) - matvec(a.data, pn * probe)
    lhs = weighted_norm(LatticeSequence(win, commutated, copy=False), q, w)
    probe_norm = weighted_norm(c, q, w)

    aq = _aq(w, q, win.side)
    h = decay_profile(a)

    if sep <= 8 * n_scale:
        case = "near"
        m0 = math.ceil(math.sqrt(n_scale) / 2.0)
        tail = ring_lp(h, d, m_min=m0)
        ring_norm = ring_lp(h, d)
        rhs = (2.0 ** (2 * d + 2 * d / q) * n_scale ** (-0.5) * aq ** (1.0 / q) * ring_norm
               + 2.0 ** (3 * d + 2 * d / q + 1) * aq ** (1.0 / q) * tail) * probe_norm
    else:
        case = "far"
        m_half = math.ceil(sep / 2.0)
        h_far = float(h[m_half]) if m_half < h.size else 0.0
        ratio = psi_n.alpha(w) / psi_np.alpha(w)
        rhs = (2.0 ** (2 * d) * float(n_scale) ** d * aq ** (1.0 / q) * h_far
               * ratio ** (1.0 / q)) * probe_norm
    return CommutatorReport(case, float(lhs), float(rhs), float(rhs - lhs),
                            float(probe_norm), sep, aq)
