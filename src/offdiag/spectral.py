"""Shared spectral helpers: dense LAPACK paths, and a Sturm count for one sparse shape.

Every window is a dense matrix of desk-scale size, so the Hermitian ends come
from ``eigvalsh`` and the singular ends from one values-only SVD, both to
roundoff and in the dtype they are given: a real matrix (as ``LocalizedMatrix``
stores every matrix whose imaginary parts are all zero) takes the real path.
The one exception is a matrix with two adjacent nonzero diagonals, whose
singular ends ``two_diagonal_extremes`` bisects on its tridiagonal Gram in
O(m) memory and without BLAS; it returns None where it cannot resolve
sigma_min, and the caller then takes the SVD.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_extremes", "singular_extremes", "two_diagonal_extremes",
           "operator_norm_l2"]

_SHIFTS, _ROUNDS = 128, 8  # per end and round; 129^8 > 2^56
# pivots per shift held at a time: 130 KiB of scratch, where all m x 256 at R = 512
# (2 MiB) raised the stability benchmark's peak RSS by 1 MiB
_BLOCK = 64


def hermitian_extremes(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(m)
    return float(eigs[0]), float(eigs[-1])


def singular_extremes(m: np.ndarray) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a matrix."""
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


def two_diagonal_extremes(top: np.ndarray, bot: np.ndarray) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) of the (m + 1) x m matrix B whose column j holds
    top[j] on row j and bot[j] on row j + 1, or None where sigma_min is not
    resolved.

    Method.  The moduli are scaled by the power of two 2^-e that puts the
    largest in [1/2, 1), which keeps every square finite and is exact but
    below 2^-1022, where it moves an entry by less than 2^-1074.  The
    Gram B*B is tridiagonal, with alpha_j = |top_j|^2 + |bot_j|^2 and
    beta_j = conj(bot_j) top_{j+1}, and a Sturm count needs only
    beta_j^2 = |bot_j|^2 |top_{j+1}|^2.  By Sylvester's inertia the number
    of negative pivots d_i = (alpha_i - c) - beta_{i-1}^2 / d_{i-1} of
    B*B - c is the number of eigenvalues below c (Kahan 1966; Demmel,
    Applied Numerical Linear Algebra, section 5.3.4).  In IEEE arithmetic a
    zero pivot makes the next pivot infinite and the one after it finite
    again, and a pivot counts as negative by its sign bit, so the count is
    that of c moved off the zero; a zero beta^2 decouples the Gram and
    restarts the recurrence at d_i = alpha_i - c.  No quotient is 0/0 or
    inf/inf, so nothing warns.  lambda_min lies in [0, min alpha] and
    lambda_max in [max alpha, max alpha + 2 max beta]; both brackets, padded
    by 2^-20 of the larger bound, are bisected together by counts at 128
    evenly spaced shifts each, 8 rounds, vectorized over the 256 shifts.

    Accuracy (eps = 2^-52, first order in eps).  Dividing each computed
    pivot by the rounding factors of its subtraction and of fl(alpha_i - c)
    shows that the computed count is the exact count of a Gram with the same
    diagonal whose beta_j^2 carry a relative error of at most 2 eps.  Forming
    alpha (two squares of moduli, one sum) adds at most 3 eps relative and
    beta^2 (two squares, one product) at most 5.5 eps, so every count is
    exact for B*B + E with |E_jj| <= 3 eps alpha_j and
    |E_{j,j+1}| <= 3.75 eps |beta_j|.  As alpha_j <= lambda_max and
    |beta_j| <= sqrt(alpha_j alpha_{j+1}) <= lambda_max, the row sums give
    ||E|| <= 10.5 eps lambda_max, and by Weyl's inequality each eigenvalue of
    B*B + E lies within that of the true one.  Each bracket starts at most
    3 lambda_max (1 + 2^-19) wide and ends 129^8 > 2^56 times narrower,
    within 0.2 eps lambda_max, so both midpoints are within 10.6 eps
    lambda_max of lambda_min and lambda_max; 16 eps lambda_max bounds that
    with room for the higher-order terms.  Hence sigma_max has a
    relative error of at most 8 eps, and sigma_min = sqrt(lambda_min) one of
    at most 8 eps lambda_max / lambda_min.  Unless lambda_min exceeds its
    error bound 2^25 times (lambda_min > 2^-23 lambda_max, a condition
    number below about 2900), which keeps that error below 2^-26, the result
    is None; so is it for a non-finite or all-zero input.

    Scratch: 65 x 256 float64 pivots and O(m) vectors.
    """
    t, b = np.abs(top), np.abs(bot)
    big = float(np.maximum(t.max(), b.max()))  # NaN propagates
    if not 0.0 < big < np.inf:
        return None
    e = np.frexp(big)[1]
    t2, b2 = np.ldexp(t, -e) ** 2, np.ldexp(b, -e) ** 2
    alpha, beta2 = t2 + b2, b2[:-1] * t2[1:]
    upper = alpha.max() + 2.0 * np.sqrt(beta2.max(initial=0.0))
    pad = 2.0**-20 * upper
    lo = np.array([-pad, alpha.max() - pad])
    hi = np.array([alpha.min() + pad, upper + pad])
    # a shift lies above lambda_min once one eigenvalue is below it, above lambda_max once all are
    want = np.array([[1], [alpha.size]])
    frac = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    ends, below, above = [0, 1], np.zeros((2, 1), bool), np.ones((2, 1), bool)
    for _ in range(_ROUNDS):
        shifts = lo[:, None] + (hi - lo)[:, None] * frac
        counts = _sturm_counts(alpha, beta2, shifts.ravel()).reshape(2, _SHIFTS)
        grid = np.hstack([lo[:, None], shifts, hi[:, None]])
        j = np.hstack([below, counts >= want, above]).argmax(axis=1)  # the first shift above
        lo, hi = grid[ends, j - 1], grid[ends, j]
    lam_min, lam_max = (lo + hi) / 2.0
    if not lam_min > 2.0**-23 * lam_max:
        return None
    return float(np.ldexp(np.sqrt(lam_min), e)), float(np.ldexp(np.sqrt(lam_max), e))


def _sturm_counts(alpha: np.ndarray, beta2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """For each shift c, the number of negative pivots of the tridiagonal
    T - c with diagonal alpha and squared off-diagonal beta2, _BLOCK pivots
    of each shift at a time."""
    count = np.zeros(shifts.size, dtype=np.intp)
    buf, quot = np.empty((_BLOCK + 1, shifts.size)), np.empty(shifts.size)
    # row 0 of buf holds the pivot before the block; b2[i] couples pivots i - 1
    # and i, and b2[0] = 0 starts the recurrence
    b2 = [0.0] + beta2.tolist()
    with np.errstate(divide="ignore", over="ignore"):  # a zero or tiny pivot: an infinite quotient
        for i0 in range(0, alpha.size, _BLOCK):
            k = min(_BLOCK, alpha.size - i0)
            d = buf[: k + 1]
            np.subtract(alpha[i0 : i0 + k, None], shifts, out=d[1:])
            rows = list(d)
            for prev, cur, b in zip(rows, rows[1:], b2[i0 : i0 + k]):
                if b:
                    np.divide(b, prev, out=quot)
                    cur -= quot
            count += np.count_nonzero(np.signbit(d[1:]), axis=0)
            buf[0] = d[-1]
    return count


def operator_norm_l2(data: np.ndarray) -> float:
    """Spectral norm: the largest singular value."""
    return singular_extremes(data)[1]
