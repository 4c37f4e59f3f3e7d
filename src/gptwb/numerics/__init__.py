"""Field-abstracted numerics: exact rationals or floats with a global tolerance.

Everything downstream (state spaces, relation LPs, monotones) runs on top of
a :class:`Context` that fixes the scalar field.  Every comparison is one
expression in the context's tolerance ``eps``.  The float context uses IEEE
doubles with an absolute ``eps >= MIN_FLOAT_EPS``; the exact context is the
same code with ``fractions.Fraction`` scalars and ``eps`` the integer 0, so
it compares exactly and serves as the correctness oracle for the float path.
``Context.scalar`` is the one way an outside number (int, float, Fraction or
a string such as ``"0.25"`` or ``"1/3"``) enters the field; on the exact
backend it never rounds, so a float stands for its exact binary value.
Functions that take a context default it to ``DEFAULT`` (floats).

One accumulation rule: every sum of scalars is ``dot``, ``mat_mul`` or
``total``, which add left to right, so no float result depends on the
interpreter (CPython 3.12 made the builtin ``sum`` of floats compensated);
the builtin ``sum`` only counts integers and joins tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

Scalar = Union[int, float, Fraction]

# below it, the rounding of derived floats (irreducibles, joints) can exceed eps
MIN_FLOAT_EPS = 1e-12
BACKENDS = ("float", "exact")


class Validated:
    """Mixin for a NamedTuple record whose ``__new__`` checks its fields.
    A NamedTuple's own ``_make`` builds with ``tuple.__new__``, skipping the
    check, and ``_replace`` goes through ``_make``; this ``_make`` calls the
    constructor.  Pickling and copying call ``__new__``, so they check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ContextFields(NamedTuple):
    backend: str
    eps: float


class Context(Validated, _ContextFields):
    """Scalar field plus comparison tolerance.

    backend: "float" (IEEE doubles, tolerance ``eps`` finite and at least
    ``MIN_FLOAT_EPS``) or "exact" (arbitrary-precision rationals, ``eps`` the
    integer 0: a float zero would turn ``Fraction + eps`` into a float).
    """

    __slots__ = ()

    def __new__(cls, backend: str = "float", eps: float = 1e-9):
        self = tuple.__new__(cls, (backend, eps))
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; use 'float' or 'exact'")
        if self.exact and not (self.eps == 0 and isinstance(self.eps, int)):
            raise ValueError("the exact backend compares exactly; eps must be the integer 0")
        if not (self.exact or (math.isfinite(self.eps) and self.eps >= MIN_FLOAT_EPS)):
            raise ValueError(f"the float tolerance must be finite and >= {MIN_FLOAT_EPS}, "
                             f"not {self.eps}")
        return self

    @property
    def exact(self) -> bool:
        return self.backend == "exact"

    def scalar(self, x) -> Scalar:
        """The one way an outside number enters the field, without rounding
        on the exact backend: a float becomes its exact binary value, a
        string ("0.25", "1/3") its rational value; a Fraction comes back
        as it is."""
        if self.exact:
            return x if isinstance(x, Fraction) else Fraction(x)
        try:
            return float(x)
        except ValueError:  # a fraction string
            return float(Fraction(x))

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    # comparisons: the first test settles the common case without arithmetic
    def is_zero(self, a) -> bool:
        return not a or abs(a) <= self.eps

    def eq(self, a, b) -> bool:
        return a == b or abs(a - b) <= self.eps

    def le(self, a, b) -> bool:
        return a <= b or a <= b + self.eps

    def ge(self, a, b) -> bool:
        return a >= b or a >= b - self.eps

    def gt(self, a, b) -> bool:
        return a > b and a > b + self.eps

    def pos(self, a) -> bool:
        return self.gt(a, self.zero())

    def ceil(self, a) -> int:
        """Smallest integer >= a - eps."""
        return math.ceil(a - self.eps)


FLOAT = Context("float", 1e-9)
EXACT = Context("exact", 0)
DEFAULT = FLOAT


from .linalg import (  # noqa: E402
    Echelon,
    dot,
    independent_subsets,
    is_row_stochastic,
    mat_mul,
    orthogonal_rows,
    rank,
    total,
)
from .lp import LPProblem, LPResult, UnboundedObjective, lp_solve  # noqa: E402

__all__ = [
    "BACKENDS",
    "Context",
    "DEFAULT",
    "EXACT",
    "Echelon",
    "FLOAT",
    "LPProblem",
    "LPResult",
    "MIN_FLOAT_EPS",
    "Scalar",
    "UnboundedObjective",
    "Validated",
    "dot",
    "independent_subsets",
    "is_row_stochastic",
    "lp_solve",
    "mat_mul",
    "orthogonal_rows",
    "rank",
    "total",
]
