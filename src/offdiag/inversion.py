"""Constructive inversion by the preconditioned Neumann series.

With the spectral bracket C1 I <= A*A <= C2 I (the extreme eigenvalues of
A*A, from one dense eigensolve) the matrix B := I - (2/(C1+C2)) A*A
contracts on l^2 with factor r0 = (C2-C1)/(C2+C1) < 1, and

    A^{-1} = (2/(C1+C2)) (sum_{n>=0} B^n) A*.

The running partial sum S_K = sum_{n<=K} B^n leaves the exact residual
S_K (2/(C1+C2)) A*A - I = -B^{K+1}, which the iteration tracks entrywise.
The decay profile and ring norm of the computed inverse are reported as the
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


_FLUSH = 1e-300  # keep supports finite in spirit during series accumulation


def wiener_invert(a: LocalizedMatrix, tol: float = 1e-10, k_max: int = 500,
                  bracket: SpectralBracket | None = None):
    """Invert by the preconditioned Neumann series.

    Returns (A_inv, report).  Raises SingularMatrixError when the bracket
    collapses (C1 <= 0 beyond roundoff of C2); a non-converged series within
    k_max is returned flagged, not raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if bracket is None:
        bracket = spectral_bracket(a)
    c1, c2 = bracket.c1, bracket.c2
    if c1 <= 1e-14 * c2:
        raise SingularMatrixError(f"bracket collapsed: C1={c1:.3e}, C2={c2:.3e}")
    mu = 2.0 / (c1 + c2)
    gram = a.data.conj().T @ a.data
    b = np.eye(a.window.size) - mu * gram

    eye = np.eye(a.window.size)
    s = np.eye(a.window.size, dtype=np.complex128)
    residual_mat = -b  # S_0 (mu G) - I = -B
    history = [float(np.abs(residual_mat).max())]
    k = 0

    def step():
        nonlocal s, residual_mat, k
        s = eye + b @ s
        residual_mat = b @ residual_mat  # stays equal to -B^{k+1}
        np.copyto(residual_mat, np.where(np.abs(residual_mat) < _FLUSH, 0.0, residual_mat))
        history.append(float(np.abs(residual_mat).max()))
        k += 1

    while history[-1] > tol and k < k_max:
        step()

    def assemble():
        inv = mu * (s @ a.data.conj().T)
        np.copyto(inv, np.where(np.abs(inv) < _FLUSH, 0.0, inv))
        return inv, float(np.abs(a.data @ inv - eye).max())

    # the iterated residual is A_inv A - I exactly; the flipped product can
    # lag by a conditioning factor, so top up until both sides meet tol
    inv_data, two_sided = assemble()
    while history[-1] <= tol < two_sided and k < k_max:
        step()
        inv_data, two_sided = assemble()

    a_inv = LocalizedMatrix(a.window, inv_data, copy=False)
    residual = history[-1]
    profile = decay_profile(a_inv)
    report = InversionReport(
        # terms_used counts series terms B^0..B^k held in the partial sum
        c1=c1, c2=c2, r0=bracket.r0, terms_used=k + 1, residual=residual,
        residual_history=np.asarray(history), inverse_profile=profile,
        inverse_ring_norm=beurling_norm(a_inv, 1.0, None),
        converged=residual <= tol and two_sided <= tol,
        two_sided_residual=two_sided,
    )
    return a_inv, report


def left_inverse(a: LocalizedMatrix, tol: float = 1e-10, k_max: int = 4000):
    """Left inverse B = (A*A)^{-1} A* via the Neumann engine on A*A.

    B A = (A*A)^{-1} A*A, so the returned report's residual is exactly the
    max-entry of B A - I.  The engine runs on A*A, whose own Gram squares the
    condition number, hence the larger default term cap.
    """
    gram = LocalizedMatrix(a.window, a.data.conj().T @ a.data, copy=False)
    gram_inv, report = wiener_invert(gram, tol=tol, k_max=k_max)
    b = LocalizedMatrix(a.window, gram_inv.data @ a.data.conj().T, copy=False)
    return b, report


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
