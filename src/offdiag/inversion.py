"""Constructive inversion by the preconditioned Neumann series.

With the spectral bracket C1 I <= A*A <= C2 I (the extreme eigenvalues of
A*A, from one dense eigensolve) the matrix B := I - (2/(C1+C2)) A*A
contracts on l^2 with factor r0 = (C2-C1)/(C2+C1) < 1, and

    A^{-1} = (2/(C1+C2)) (sum_{n>=0} B^n) A*.

It is summed by squaring (the hyperpower form of Schulz): from
X = (2/(C1+C2)) A*, each step X <- (2I - XA) X doubles the terms held, as
I - XA = B^K after K terms.  Each step measures max|XA - I| on the XA it
reuses, and max|AX - I| once that meets tol; both must meet tol.  Real
operands run in real arithmetic throughout.  The decay profile and ring
norm of the computed inverse are reported as the inverse-closedness
witness: for well-behaved families they stay bounded as the window grows,
which ``inverse_closedness_experiment`` tabulates along a radius ladder.
Dense LU solves are oracle-only (tests), never the production path.

The engine keeps no identity matrix: I is subtracted on the diagonal of each
fresh product in place.  With a real operand it holds at most 5 real n x n
arrays (the operand's copy, X, XA - I, and AX - I with its magnitude), and
only X while the inverse is flushed and profiled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import DecayProfile, LocalizedMatrix, Window, decay_profile, ring_lp
from .norms import beurling_norm
from .spectral import hermitian_extremes, real_or_complex

__all__ = [
    "SingularMatrixError",
    "SpectralBracket",
    "spectral_bracket",
    "InversionReport",
    "wiener_invert",
    "left_inverse",
    "InverseClosednessRow",
    "inverse_closedness_experiment",
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
    data = real_or_complex(a.data)
    lo, hi = hermitian_extremes(data.conj().T @ data)
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


def _minus_identity(m: np.ndarray) -> np.ndarray:
    """m - I in place on a fresh C-ordered square product: the bits of ``m - eye``."""
    m.reshape(-1)[:: m.shape[0] + 1] -= 1.0
    return m


def wiener_invert(a: LocalizedMatrix, tol: float = 1e-10, k_max: int = 500):
    """Invert by the preconditioned Neumann series, summed by squaring.

    Returns (A_inv, report).  Each pass measures max|XA - I| (and max|AX - I|
    once that meets tol) and doubles the terms held while fewer than k_max
    are held.  Raises SingularMatrixError when the bracket collapses (C1 <= 0
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
    data = np.ascontiguousarray(real_or_complex(a.data))  # BLAS wants unit stride
    x = np.multiply(2.0 / (c1 + c2), data.conj().T, order="C")  # B^0 only: I - XA = B
    terms, history = 1, []
    while True:
        err = _minus_identity(x @ data)
        history.append(float(np.abs(err).max()))
        if history[-1] <= tol or terms >= k_max:  # AX only when XA meets tol
            two_sided = float(np.abs(_minus_identity(data @ x)).max())
            if two_sided <= tol or terms >= k_max:
                break
        x -= err @ x  # (2I - XA) X: I - XA becomes (I - XA)^2, twice the terms
        terms *= 2

    del data, err  # only X is live while it is flushed and profiled
    x[np.abs(x) < _FLUSH] = 0.0
    a_inv = LocalizedMatrix(a.window, x, copy=False)
    profile = decay_profile(a_inv)
    return a_inv, InversionReport(
        # terms_used counts series terms B^0..B^{terms-1} that X holds
        c1=c1, c2=c2, r0=bracket.r0, terms_used=terms, residual=history[-1],
        residual_history=np.asarray(history), inverse_profile=profile,
        inverse_ring_norm=ring_lp(profile.values, a.window.d),  # = beurling_norm(a_inv, 1)
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


def inverse_closedness_experiment(make_matrix, radii, p: float = 1.0, weight=None,
                                  d: int = 1, tol: float = 1e-10, k_max: int = 2000):
    """Invert a generator family at growing radii and tabulate ||A^{-1}||_{p,u}.

    Bounded inverse norms along the radius ladder are the desk-scale witness
    of inverse-closedness.  ``make_matrix(window)`` produces the family
    member at each radius.
    """
    rows = []
    for r in radii:
        a_inv, rep = wiener_invert(make_matrix(Window(d, int(r))), tol=tol, k_max=k_max)
        rows.append(InverseClosednessRow(
            radius=int(r),
            inverse_norm=beurling_norm(a_inv, p, weight),
            residual=rep.residual,
            r0=rep.r0,
            terms_used=rep.terms_used,
        ))
    return rows
