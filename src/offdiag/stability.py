"""Stability of window operators on weighted sequence spaces.

Certification strategy: on a finite window the q = 2 case is decidable by
dense SVD after conjugating by diag(w^{1/2}) and restricting probes to an
interior band (suppressing carve-out boundary artifacts).  Verdicts for
q != 2 ride on the q = 2 certificate, mirroring the transfer of stability
across exponents and weights in the underlying theory; their raw sampled
brackets are reported alongside and labeled as such.  "degrading" is the
operational negation at desk scale: the certified lower bound losing a
factor >= 2 when the window radius doubles.  A real operand (by the rule of
``spectral.real_or_complex``) is conjugated and decomposed in real arithmetic:
the singular values of the complex path to roundoff, by a cheaper LAPACK SVD.

A bracket decomposes its window and the half-radius window.  Within one call
of the Toeplitz ladder or of ``cross_stability_verdicts`` each (window, band,
weight values) is decomposed once and its sigma pair reused by later brackets.
A sigma pair copies only the interior columns of its window's matrix and
conjugates that copy in place, so a q = 2 bracket holds the operand, one
interior copy and LAPACK's own copy of it, besides the decay profile's |a|.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .lattice import (LatticeSequence, LocalizedMatrix, Window, decay_profile,
                      restrict, ring_lp)
from .muckenhoupt import WeightSequence, aq_bound, weighted_norm
from .norms import beurling_norm
from .spectral import real_or_complex
from .weights import WeightMatrix, cross_norm

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
    "effective_bandwidth",
]


def effective_bandwidth(a: LocalizedMatrix) -> int:
    """Largest |i-j|_inf carrying an entry above 1e-12."""
    return _bandwidth(decay_profile(a).values)


def _bandwidth(h: np.ndarray) -> int:
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


def boundedness_check(a: LocalizedMatrix, q: float, w: WeightSequence, p: float,
                      u: WeightMatrix, trials: int = 100, seed: int = 0,
                      v: WeightMatrix | None = None, cp: float | None = None) -> BoundednessReport:
    """Check ||Ac||_{q,w} <= 2^{2d} 3^{d/q} A_q(w)^{1/q} C_p(v,u) ||A||_{p,u} ||c||_{q,w}
    on random c, with the scanned A_q bound and the computable cross-norm
    standing in for the infimal companion bound.  A given ``cp`` must be
    exactly ``cross_norm(u, v, p, a.window).value``, which depends on the weights only."""
    from .weights import default_companion

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    win = a.window
    if v is None:
        v = default_companion(u, p)
    aq = aq_bound(w, q, win.side).bound
    cp = cross_norm(u, v, p, win).value if cp is None else cp
    const = (2.0 ** (2 * win.d) * 3.0 ** (win.d / q) * aq ** (1.0 / q)
             * cp * beurling_norm(a, p, u))
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(int(trials)):
        data = rng.standard_normal(win.size) + 1j * rng.standard_normal(win.size)
        c = LatticeSequence(win, data, copy=False)
        lhs = weighted_norm(LatticeSequence(win, a.data @ data, copy=False), q, w)
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


# sigma pairs by (window, band, weight values) while a _shared_sigma_pairs()
# block runs, None otherwise; stability_bracket keeps its signature and the
# ladder and cross verdicts still call it by name
_SIGMA_PAIRS: ContextVar[dict | None] = ContextVar("sigma_pairs", default=None)


@contextmanager
def _shared_sigma_pairs():
    """Brackets inside the block share their sigma pairs, dropped on exit.

    Sound only while every bracket inside decomposes windows of one operator:
    one matrix, or one symbol's Toeplitz matrices, since the Toeplitz matrix
    on a window restricted to a smaller window is the smaller window's.
    """
    token = _SIGMA_PAIRS.set({})
    try:
        yield
    finally:
        _SIGMA_PAIRS.reset(token)


def _sigma_pair(a: LocalizedMatrix, w: WeightSequence, band: int, window: Window):
    """(sigma_min, sigma_max) of diag(w^{1/2}) A diag(w^{-1/2}), both restricted
    to window, on its interior probes."""
    if window != a.window:
        w = w.restrict(window)
    seen = _SIGMA_PAIRS.get()
    key = (window, band, w.values.tobytes())
    if seen is not None and key in seen:
        return seen[key]
    mask = _interior_mask(window, band)
    if not mask.any():
        raise ValueError(f"empty interior (band {band} >= radius {window.radius})")
    data = a.data if window == a.window else restrict(a, window).data
    sq = np.sqrt(w.values)
    conj = real_or_complex(data)[:, mask]  # the interior columns, the one copy
    conj *= sq[:, None]
    conj /= sq[None, mask]
    s = np.linalg.svd(conj, compute_uv=False)
    pair = (float(s[-1]), float(s[0]))
    if seen is not None:
        seen[key] = pair
    return pair


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
    "sampled" — and upper is the boundedness constant; the verdict is
    transferred from the q = 2 certificate of the trivial weight.  The
    default band, the verdict's scale and the q != 2 ring norm come from one
    decay profile.
    """
    if w.window != a.window:
        raise ValueError(f"weight window {w.window} differs from the matrix window {a.window}")
    if q < 1 or not math.isfinite(q):
        raise ValueError("q must lie in [1, infinity)")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    win = a.window
    h = decay_profile(a).values
    if band is None:
        band = min(2 * _bandwidth(h), max(win.radius - 1, 0))
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
            lhs = weighted_norm(LatticeSequence(win, a.data @ data, copy=False), q, w)
            lower = min(lower, lhs / denom)
        aq = aq_bound(w, q, win.side).bound
        upper = (2.0 ** (2 * win.d) * 3.0 ** (win.d / q) * aq ** (1.0 / q)
                 * ring_lp(h, win.d))
        cert_w = WeightSequence.trivial(win)
        lo_full = _sigma_pair(a, cert_w, band, win)[0]
        method = "sampled"
    half = Window(win.d, win.radius // 2)
    lo_half = _sigma_pair(a, cert_w, band, half)[0] if half.radius > band else None
    verdict = _verdict(lo_full, lo_half, float(h[0]))
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
    decomposes once; each report equals its own ``stability_bracket`` call."""
    with _shared_sigma_pairs():
        reports = [stability_bracket(a, q, w, trials=trials, seed=seed + k)
                   for k, (q, w) in enumerate(pairs)]
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
                          w: WeightSequence, c: LatticeSequence,
                          aq: float | None = None) -> CommutatorReport:
    """Exact norm of (Psi_n A - A Psi_n) Psi_{n'} c against the two-case bound.

    Near case (|n - n'| <= 8N):
        [2^{2d+2d/q} N^{-1/2} A_q^{1/q} ||A||_ring
         + 2^{3d+2d/q+1} A_q^{1/q} sum_{|k| >= sqrt(N)/2} h(|k|)] ||c||_{q,w};
    far case: 2^{2d} N^d A_q^{1/q} h(ceil(|n-n'|/2)) (alpha_n / alpha_{n'})^{1/q} ||c||_{q,w}.
    A given ``aq`` must be exactly ``aq_bound(w, q, a.window.side).bound``.
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
    commutated = pn * (a.data @ probe) - a.data @ (pn * probe)
    lhs = weighted_norm(LatticeSequence(win, commutated, copy=False), q, w)
    probe_norm = weighted_norm(c, q, w)

    aq = aq_bound(w, q, win.side).bound if aq is None else aq
    h = decay_profile(a).values

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
