"""Field-abstracted numerics: exact rationals or floats with a global tolerance.

Everything downstream (state spaces, relation LPs, monotones) runs on top of
a :class:`Context` that fixes the scalar field.  The float context compares
with an absolute tolerance ``eps``; the exact context uses ``fractions.Fraction``
and compares exactly, which makes it usable as a correctness oracle for the
float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]


@dataclass(frozen=True)
class Context:
    """Scalar field plus comparison tolerance.

    backend: "float" (IEEE doubles, tolerance ``eps``) or "exact"
    (arbitrary-precision rationals, exact comparisons).
    """

    backend: str = "float"
    eps: float = 1e-9

    @property
    def exact(self) -> bool:
        return self.backend == "exact"

    def scalar(self, x) -> Scalar:
        if self.exact:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, str):
                return Fraction(x)
            if isinstance(x, float):
                return Fraction(x).limit_denominator(10**12)
            return Fraction(x)
        return float(x)

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    # comparisons -----------------------------------------------------------
    def is_zero(self, a) -> bool:
        return a == 0 if self.exact else abs(a) <= self.eps

    def eq(self, a, b) -> bool:
        return a == b if self.exact else abs(a - b) <= self.eps

    def le(self, a, b) -> bool:
        return a <= b if self.exact else a <= b + self.eps

    def ge(self, a, b) -> bool:
        return a >= b if self.exact else a >= b - self.eps

    def lt(self, a, b) -> bool:
        """Strictly less, by more than the tolerance in float mode."""
        return a < b if self.exact else a < b - self.eps

    def gt(self, a, b) -> bool:
        return a > b if self.exact else a > b + self.eps

    def pos(self, a) -> bool:
        return self.gt(a, self.zero())

    def ceil(self, a) -> int:
        """Smallest integer >= a - eps (float) / >= a (exact)."""
        if self.exact:
            return -((-a.numerator) // a.denominator) if isinstance(a, Fraction) else math.ceil(a)
        return math.ceil(a - self.eps)


FLOAT = Context("float", 1e-9)
EXACT = Context("exact", 0.0)
DEFAULT = FLOAT


from .linalg import (  # noqa: E402
    count_orthogonal_rows,
    dot,
    is_row_stochastic,
    mat_mul,
    null_space_vector,
    rank,
    solve_unique,
)
from .lp import LPProblem, LPResult, UnboundedObjective, lp_solve  # noqa: E402

__all__ = [
    "Context",
    "DEFAULT",
    "EXACT",
    "FLOAT",
    "LPProblem",
    "LPResult",
    "Scalar",
    "UnboundedObjective",
    "count_orthogonal_rows",
    "dot",
    "is_row_stochastic",
    "lp_solve",
    "mat_mul",
    "null_space_vector",
    "rank",
    "solve_unique",
]
