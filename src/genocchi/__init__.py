"""Exact integer sequences, generalized Stirling triangles, and the
triangular connection matrices between even- and odd-index Fibonacci and
Lucas polynomial bases, together with a mechanically verified identity
catalog.  Every value is an exact rational; nothing is ever rounded.
"""

from .numbers import (
    bernoulli,
    bernoulli_b,
    genocchi,
    genocchi_signed,
    median_genocchi,
    tangent,
)
from .polyalg import Poly, basis_matrix, fib_poly, lucas_poly
from .reports import IdentityReport, UnknownIdentityError
from .stirling import (
    PRESETS,
    WeightSpec,
    preset,
    shift_weight,
    stirling1,
    stirling2,
)
from .trimat import SingularMatrixError, TriMatrix

__all__ = [
    "IdentityReport",
    "PRESETS",
    "Poly",
    "SingularMatrixError",
    "TriMatrix",
    "UnknownIdentityError",
    "WeightSpec",
    "basis_matrix",
    "bernoulli",
    "bernoulli_b",
    "fib_poly",
    "genocchi",
    "genocchi_signed",
    "lucas_poly",
    "median_genocchi",
    "preset",
    "shift_weight",
    "stirling1",
    "stirling2",
    "tangent",
]
