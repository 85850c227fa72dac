"""wallforge: an exact-arithmetic homological algebra workbench.

Everything is computed over the rationals, so every certificate the package
emits is an exact matrix identity, never a floating-point estimate.
"""

from wallforge.arith import (
    BchConstants,
    PExponent,
    RadiusParams,
    bch_constants,
    p_valuation,
    radius_params,
)
from wallforge.linalg import RationalMatrix, rank_kernel_image, solve_in_subspace

__all__ = [
    "BchConstants",
    "PExponent",
    "RadiusParams",
    "RationalMatrix",
    "bch_constants",
    "p_valuation",
    "radius_params",
    "rank_kernel_image",
    "solve_in_subspace",
]
