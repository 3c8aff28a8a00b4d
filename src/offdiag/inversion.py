"""Constructive inversion by the preconditioned Neumann series.

With the spectral bracket C1 I <= A*A <= C2 I (the extreme eigenvalues of
A*A, from one dense eigensolve) the matrix B := I - (2/(C1+C2)) A*A
contracts on l^2 with factor r0 = (C2-C1)/(C2+C1) < 1, and

    A^{-1} = (2/(C1+C2)) (sum_{n>=0} B^n) A*.

It is summed by squaring (the hyperpower form of Schulz): from
X = (2/(C1+C2)) A*, each step X <- X (2I - AX) doubles the terms held, as
I - XA = B^K after K terms.  Both max|XA - I| and max|AX - I| are measured
on X at every step, and convergence requires both to meet tol.  The decay
profile and ring norm of the computed inverse are reported as the
inverse-closedness witness: for well-behaved families they stay bounded as
the window grows.  Dense LU solves are oracle-only (tests), never the
production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import DecayProfile, LocalizedMatrix, Window, decay_profile
from .norms import beurling_norm
from .spectral import hermitian_extremes

__all__ = [
    "SingularMatrixError",
    "SpectralBracket",
    "spectral_bracket",
    "InversionReport",
    "wiener_invert",
    "left_inverse",
    "InverseClosednessRow",
    "inverse_closedness_experiment",
    "neumann_term_envelope",
]


class SingularMatrixError(ArithmeticError):
    """Spectral bracket collapsed: C1 = 0 (no inverse at this window)."""


@dataclass(frozen=True)
class SpectralBracket:
    c1: float
    c2: float
    r0: float


def spectral_bracket(a: LocalizedMatrix) -> SpectralBracket:
    """C1, C2 with C1 I <= A*A <= C2 I, the ends of A*A's spectrum; C1 >= 0."""
    if a.nnz == 0:
        raise ValueError("spectral bracket of the zero matrix")
    gram = a.data.conj().T @ a.data
    lo, hi = hermitian_extremes(gram)
    c1 = max(lo, 0.0)
    c2 = max(hi, 0.0)
    r0 = (c2 - c1) / (c2 + c1) if c2 > 0 else 1.0
    return SpectralBracket(c1, c2, r0)


@dataclass(frozen=True, eq=False)
class InversionReport:
    c1: float
    c2: float
    r0: float
    terms_used: int
    residual: float
    residual_history: np.ndarray
    inverse_profile: DecayProfile
    inverse_ring_norm: float
    converged: bool
    two_sided_residual: float


_FLUSH = 1e-300  # keep supports finite in spirit: flushed once, on the returned inverse


def wiener_invert(a: LocalizedMatrix, tol: float = 1e-10, k_max: int = 500):
    """Invert by the preconditioned Neumann series, summed by squaring.

    Returns (A_inv, report).  Each pass measures both residuals of the
    current X and then doubles the terms held, while fewer than k_max are
    held.  Raises SingularMatrixError when the bracket collapses (C1 <= 0
    beyond roundoff of C2); a non-converged series is returned flagged, not
    raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    bracket = spectral_bracket(a)
    c1, c2 = bracket.c1, bracket.c2
    if c1 <= 1e-14 * c2:
        raise SingularMatrixError(f"bracket collapsed: C1={c1:.3e}, C2={c2:.3e}")
    data = a.data if a.data.imag.any() else a.data.real
    eye = np.eye(a.window.size)
    x = (2.0 / (c1 + c2)) * data.conj().T  # B^0 only: I - XA = B
    terms, history = 1, []
    while True:
        ax = data @ x
        two_sided = float(np.abs(ax - eye).max())
        history.append(float(np.abs(x @ data - eye).max()))
        if (history[-1] <= tol and two_sided <= tol) or terms >= k_max:
            break
        x = x @ (2.0 * eye - ax)  # I - XA becomes (I - XA)^2: twice the terms
        terms *= 2

    x[np.abs(x) < _FLUSH] = 0.0
    a_inv = LocalizedMatrix(a.window, x, copy=False)
    return a_inv, InversionReport(
        # terms_used counts series terms B^0..B^{terms-1} that X holds
        c1=c1, c2=c2, r0=bracket.r0, terms_used=terms, residual=history[-1],
        residual_history=np.asarray(history), inverse_profile=decay_profile(a_inv),
        inverse_ring_norm=beurling_norm(a_inv, 1.0, None),
        converged=history[-1] <= tol and two_sided <= tol, two_sided_residual=two_sided)


def left_inverse(a: LocalizedMatrix, tol: float = 1e-10, k_max: int = 4000):
    """Left inverse (A*A)^{-1} A* = A^{-1}, since every window operand is square;
    the engine runs on A, not on A*A, whose condition number is squared."""
    return wiener_invert(a, tol=tol, k_max=k_max)


@dataclass(frozen=True)
class InverseClosednessRow:
    radius: int
    inverse_norm: float
    residual: float
    r0: float
    terms_used: int
    envelope_log10: float | None = None


def inverse_closedness_experiment(make_matrix, radii, p: float = 1.0, weight=None,
                                  d: int = 1, tol: float = 1e-10, k_max: int = 2000,
                                  growth_cert=None):
    """Invert a generator family at growing radii and tabulate ||A^{-1}||_{p,u}.

    Bounded inverse norms along the radius ladder are the desk-scale witness
    of inverse-closedness.  ``make_matrix(window)`` produces the family
    member at each radius.  With ``growth_cert = (theta_fit, mpu_bound)``
    each row also carries the proof-side bound (log10) on the last Neumann
    term used -- a conservative envelope for context, not a prediction.
    """
    rows = []
    for r in radii:
        win = Window(d, int(r))
        a = make_matrix(win)
        a_inv, rep = wiener_invert(a, tol=tol, k_max=k_max)
        env_val = None
        if growth_cert is not None and rep.terms_used >= 1 and 0.0 < rep.r0 < 1.0:
            fit, mpu = growth_cert
            gram = a.data.conj().T @ a.data
            b_mat = LocalizedMatrix(win, np.eye(win.size) - (2.0 / (rep.c1 + rep.c2)) * gram,
                                    copy=False)
            env = neumann_term_envelope(rep.terms_used, rep.r0,
                                        beurling_norm(b_mat, p, weight),
                                        fit.D, fit.theta, mpu, p, win.d)
            env_val = float(env[-1])
        rows.append(InverseClosednessRow(
            radius=int(r),
            inverse_norm=beurling_norm(a_inv, p, weight),
            residual=rep.residual,
            r0=rep.r0,
            terms_used=rep.terms_used,
            envelope_log10=env_val,
        ))
    return rows


def neumann_term_envelope(n_terms: int, r0: float, b_ring_norm: float, big_d: float,
                          theta: float, mpu: float, p: float, d: int) -> np.ndarray:
    """log10 of the proof-side growth bound on ||B^n|| in the decay algebra:

        C^{log2 n} (C r0^{-1} ||B||)^{n^{log2(1+theta)}} r0^n,
        C = max(2^{2+2/p} 5^{(d-1)/p} D, 2^{1+2/p} 5^{(d-1)/p} M_p(u)).

    Returned in log10 because early terms can be astronomically large; with
    M_p(u) replaced by its computable upper bound the envelope is
    conservative (reported as an envelope, not a tight prediction).
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError("envelope needs a contraction factor r0 in (0, 1)")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    c = max(2.0 ** (2 + 2 * inv_p) * 5.0 ** ((d - 1) * inv_p) * big_d,
            2.0 ** (1 + 2 * inv_p) * 5.0 ** ((d - 1) * inv_p) * mpu)
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    log_c = math.log10(c)
    log_inner = math.log10(c * b_ring_norm / r0)
    return (np.log2(ns) * log_c + ns ** math.log2(1.0 + theta) * log_inner
            + ns * math.log10(r0))
