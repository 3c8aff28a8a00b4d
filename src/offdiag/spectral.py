"""Shared spectral helpers, one dense LAPACK path per quantity.

Every window is a dense matrix of desk-scale size, so the Hermitian ends come
from ``eigvalsh`` and the spectral norm from the largest singular value.  Both
are computed to roundoff, which is what the Neumann engine's bracket needs,
in the dtype they are given: a real matrix (as ``LocalizedMatrix`` stores
every matrix whose imaginary parts are all zero) takes the real LAPACK path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_extremes", "operator_norm_l2"]


def hermitian_extremes(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(m)
    return float(eigs[0]), float(eigs[-1])


def operator_norm_l2(data: np.ndarray) -> float:
    """Spectral norm: the largest singular value."""
    return float(np.linalg.norm(data, 2))
