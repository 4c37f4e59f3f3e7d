"""Dense linear algebra over the context's scalar field.

Matrices are sequences of row sequences.  All functions are pure; desk-scale
sizes only (tens of rows/columns), so plain Gaussian elimination is enough;
``Echelon``, grown one vector at a time, is its one engine.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Optional, Sequence

from . import DEFAULT, Context  # defined before this module loads


def dot(a: Sequence, b: Sequence):
    """a[0] * b[0] + a[1] * b[1] + ..., added left to right."""
    return reduce(add, map(mul, a, b))


def total(xs, start=0):
    """start + xs[0] + xs[1] + ..., added left to right (see ``numerics``)."""
    return reduce(add, xs, start)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def rank(matrix: Sequence[Sequence], ctx: Context = DEFAULT) -> int:
    """Dimension of the row space: the rows are reduced into one ``Echelon``
    in turn, a dependent row is skipped, and a full form ends the walk."""
    ech = Echelon(len(matrix[0]) if matrix else 0, ctx)
    for row in matrix:
        if len(ech.rows) == ech.dim:
            break
        ech = ech.extend([ctx.scalar(v) for v in row]) or ech
    return len(ech.rows)


class Echelon:
    """Reduced row echelon form of linearly independent vectors, grown one
    vector at a time by ``extend``; a form is never changed once built, so
    the forms of several extensions can share their prefix's rows.

    Row i is a combination of the vectors with entry 1 in column
    ``pivots[i]`` and 0 in every other pivot column.  With ``slots`` > 0 each
    row also carries that combination's coefficients in ``slots`` trailing
    entries, one per vector in the order added.  ``residual`` is ``target``,
    padded with ``slots`` zeros, reduced against the rows: its first ``dim``
    entries vanish exactly when the target lies in their span, and its
    trailing entries are then minus the target's coefficients.
    """

    __slots__ = ("ctx", "dim", "slots", "rows", "pivots", "residual")

    def __init__(self, dim: int, ctx: Context = DEFAULT, slots: int = 0,
                 target: Optional[Sequence] = None):
        self.ctx, self.dim, self.slots = ctx, dim, slots
        self.rows: tuple = ()
        self.pivots: tuple = ()
        self.residual = None if target is None else list(target) + [ctx.zero()] * slots

    @classmethod
    def of(cls, vectors: Sequence[Sequence], dim: int, ctx: Context = DEFAULT, slots: int = 0,
           target: Optional[Sequence] = None) -> Optional["Echelon"]:
        """The form of all the vectors, in order, or None if they are dependent."""
        ech = cls(dim, ctx, slots, target)
        for v in vectors:
            ech = ech.extend(v)
            if ech is None:
                return None
        return ech

    def extend(self, vector: Sequence) -> Optional["Echelon"]:
        """The form of the vectors and one more, or None when the new vector
        lies in the span of the others (within the tolerance)."""
        ctx, dim = self.ctx, self.dim
        w = list(vector)
        if self.slots:
            w += [ctx.zero()] * self.slots
            w[dim + len(self.rows)] = ctx.one()
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                w = _sub_multiple(w, w[p], row)
        mags = list(map(abs, w[:dim]))
        p = mags.index(max(mags))  # the first largest entry
        piv = w[p]
        if ctx.is_zero(piv):
            return None
        w = [a / piv if a else a for a in w]  # w[p] is exactly 1, so row - row[p] * w is 0 at p
        out = object.__new__(Echelon)
        out.ctx, out.dim, out.slots = ctx, dim, self.slots
        out.rows = tuple(_sub_multiple(row, row[p], w) if row[p] else row
                         for row in self.rows) + (w,)
        out.pivots = self.pivots + (p,)
        res = self.residual
        out.residual = _sub_multiple(res, res[p], w) if res is not None and res[p] else res
        return out

    def spans_target(self) -> bool:
        return self.residual is not None and all(self.ctx.is_zero(x) for x in self.residual[:self.dim])

    def coefficients(self) -> Optional[tuple]:
        """The target's coefficients over the vectors, in the order added,
        when it lies in their span, else None."""
        if not self.spans_target():
            return None
        return tuple(-x for x in self.residual[self.dim:self.dim + len(self.rows)])

    def solve(self, b: Sequence) -> Optional[tuple]:
        """b's coefficients over the vectors, in the order added, when b lies
        in their span, else None; needs ``slots`` >= the number of vectors.
        b is reduced against the rows already built, so one form answers any
        number of right-hand sides without a new elimination."""
        ctx, dim = self.ctx, self.dim
        r = list(b) + [ctx.zero()] * self.slots
        for row, p in zip(self.rows, self.pivots):
            if r[p]:
                r = _sub_multiple(r, r[p], row)
        if not all(ctx.is_zero(x) for x in r[:dim]):
            return None
        return tuple(-x for x in r[dim:dim + len(self.rows)])

    def kernel(self) -> tuple:
        """The nonzero vector, 1 in the one non-pivot column, that every
        vector annihilates; needs exactly ``dim - 1`` vectors."""
        (free,) = set(range(self.dim)) - set(self.pivots)
        x = [self.ctx.zero()] * self.dim
        x[free] = self.ctx.one()
        for row, p in zip(self.rows, self.pivots):
            x[p] = -row[free]
        return tuple(x)

    def dual_basis(self) -> tuple:
        """The functionals h_j with h_j . v_i = 1 if i == j else 0, one per
        vector in the order added; needs ``dim`` vectors and ``slots`` >= dim.
        The rows are then the unit vectors, so the coefficient block is the
        inverse of the vectors' matrix up to the order of its rows."""
        by_pivot = sorted(range(self.dim), key=self.pivots.__getitem__)
        return tuple(tuple(self.rows[i][self.dim + j] for i in by_pivot) for j in range(self.dim))


def _sub_multiple(a: list, f, b: list) -> list:
    """a - f * b, leaving the entries where b is zero untouched: the rows are
    sparse, and an exact product costs a Fraction."""
    return [x - f * y if y else x for x, y in zip(a, b)]


def independent_subsets(vectors: Sequence[Sequence], max_size: int, ctx: Context = DEFAULT,
                        slots: int = 0, target: Optional[Sequence] = None) -> list:
    """Every linearly independent subset of at most ``max_size`` vectors, by
    size, then lexicographically, as (index tuple, ``Echelon``) pairs.

    One walk replaces an elimination per subset: a subset's form is its
    prefix's with one vector reduced into it.  A dependent subset is dropped
    with its extensions, since none of them is independent.  A subset whose
    span holds ``target`` is kept but not extended, since every extension
    gives the added vectors zero coefficients in the target."""
    found: list = []
    level = [((), Echelon(len(vectors[0]), ctx, slots, target))] if vectors else []
    for _ in range(max_size):
        grown = []
        for subset, ech in level:
            if ech.spans_target():
                continue
            for j in range(subset[-1] + 1 if subset else 0, len(vectors)):
                ext = ech.extend(vectors[j])
                if ext is not None:
                    grown.append((subset + (j,), ext))
        found += grown
        level = grown
    return found


def is_row_stochastic(matrix: Sequence[Sequence], ctx: Context = DEFAULT) -> bool:
    zero, one = ctx.zero(), ctx.one()
    return all(all(ctx.ge(v, zero) for v in row) and ctx.eq(total(row), one) for row in matrix)


def orthogonal_rows(matrix: Sequence[Sequence], ctx: Context = DEFAULT) -> tuple[int, ...]:
    """Indices of the lexicographically first largest set of pairwise-orthogonal
    rows.

    Rows are assumed nonnegative, so orthogonality means disjoint supports;
    the maximum is found by exhaustive branch-and-bound over the row-conflict
    graph (exact at desk scale).  The search visits sets in index order and
    keeps a set only when it is strictly larger, so the first largest set
    found is the lexicographically first.
    """
    supports = [frozenset(j for j, v in enumerate(row) if not ctx.is_zero(v)) for row in matrix]
    n = len(supports)
    conflict = [[bool(supports[i] & supports[j]) for j in range(n)] for i in range(n)]

    best: tuple[int, ...] = ()

    def extend(chosen: tuple[int, ...], candidates: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        if len(chosen) + len(candidates) <= len(best):
            return
        for k, i in enumerate(candidates):
            rest = [j for j in candidates[k + 1:] if not conflict[i][j]]
            extend(chosen + (i,), rest)

    extend((), list(range(n)))
    return best
