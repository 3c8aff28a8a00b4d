"""Shared spectral helpers, one dense LAPACK path per quantity.

Every window is a dense matrix of desk-scale size, so the Hermitian ends come
from ``eigvalsh`` and the singular ends from one values-only SVD, both to
roundoff and in the dtype they are given: a real matrix (as ``LocalizedMatrix``
stores every matrix whose imaginary parts are all zero) takes the real path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_extremes", "singular_extremes", "operator_norm_l2"]


def hermitian_extremes(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(m)
    return float(eigs[0]), float(eigs[-1])


def singular_extremes(m: np.ndarray) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a matrix."""
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


def operator_norm_l2(data: np.ndarray) -> float:
    """Spectral norm: the largest singular value."""
    return singular_extremes(data)[1]
