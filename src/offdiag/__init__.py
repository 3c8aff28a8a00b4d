"""offdiag: a numerical laboratory for matrix algebras with off-diagonal decay.

Finitely supported matrices over windows of Z^d, weighted decay norms and
their explicit-constant inequalities, discrete Muckenhoupt weights and the
maximal operator, stability brackets on weighted sequence spaces, and a
constructive preconditioned-Neumann inversion engine whose decay profile
witnesses inverse-closedness at desk scale.
"""

from .lattice import (LatticeSequence, LocalizedMatrix, Window, adjoint, add, decay_profile,
                      generate, multiply, restrict, scale)
from .muckenhoupt import WeightSequence, aq_bound, maximal, weighted_norm
from .norms import beurling_norm, norm_report, schur_norm, sjostrand_norm
from .weights import WeightMatrix, default_companion, theta_fit

__all__ = [
    "Window", "LocalizedMatrix", "LatticeSequence",
    "decay_profile", "adjoint", "add", "scale", "multiply", "restrict", "generate",
    "WeightMatrix", "default_companion", "theta_fit",
    "beurling_norm", "sjostrand_norm", "schur_norm", "norm_report",
    "WeightSequence", "aq_bound", "maximal", "weighted_norm",
]

__version__ = "0.1.0"
