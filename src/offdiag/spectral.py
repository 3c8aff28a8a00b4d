"""Shared spectral helpers, one dense LAPACK path per quantity.

Every window is a dense matrix of desk-scale size, so the Hermitian ends come
from ``eigvalsh`` and the spectral norm from the largest singular value.  Both
are computed to roundoff, which is what the Neumann engine's bracket needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermitian_extremes", "operator_norm_l2", "real_or_complex"]


def real_or_complex(data: np.ndarray) -> np.ndarray:
    """data's real view (no copy, complex stride) when every imaginary part is 0, else data."""
    return data if data.imag.any() else data.real


def hermitian_extremes(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(m)
    return float(eigs[0]), float(eigs[-1])


def operator_norm_l2(data: np.ndarray) -> float:
    """Spectral norm: the largest singular value."""
    return float(np.linalg.norm(data, 2))
