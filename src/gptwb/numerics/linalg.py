"""Dense linear algebra over the context's scalar field.

Matrices are sequences of row sequences.  All functions are pure; desk-scale
sizes only (tens of rows/columns), so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import DEFAULT, Context  # defined before this module loads


def dot(a: Sequence, b: Sequence):
    s = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        s += x * y
    return s


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _eliminate(rows: list[list], ctx: Context) -> tuple[list[list], list[int]]:
    """Row echelon form in place; returns (matrix, pivot column list)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row, best = None, ctx.eps
        for i in range(r, m):
            v = abs(rows[i][c])
            if v > best:
                pivot_row, best = i, v
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                if not ctx.is_zero(f):
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(matrix: Sequence[Sequence], ctx: Context = DEFAULT) -> int:
    """Dimension of the row space (Gaussian elimination, tolerance-aware)."""
    rows = [[ctx.scalar(v) for v in row] for row in matrix]
    if not rows:
        return 0
    _, pivots = _eliminate(rows, ctx)
    return len(pivots)


def solve_unique(a: Sequence[Sequence], b: Sequence, ctx: Context = DEFAULT) -> Optional[tuple]:
    """Unique solution of ``a x = b`` or None (inconsistent or underdetermined)."""
    n = len(a[0]) if a else 0
    rows = [[ctx.scalar(v) for v in row] + [ctx.scalar(rhs)] for row, rhs in zip(a, b)]
    rows, pivots = _eliminate(rows, ctx)
    var_pivots = [(i, c) for i, c in enumerate(pivots) if c < n]
    if len(var_pivots) < n:
        return None  # underdetermined (or inconsistent via rhs pivot)
    x = [ctx.zero()] * n
    for i, c in var_pivots:
        x[c] = rows[i][-1]
    # residual check catches inconsistent systems in one place
    for row, rhs in zip(a, b):
        resid = dot([ctx.scalar(v) for v in row], x) - ctx.scalar(rhs)
        if not ctx.is_zero(resid):
            return None
    return tuple(x)


def null_space_vector(rows: Sequence[Sequence], ctx: Context = DEFAULT) -> Optional[tuple]:
    """A nonzero kernel vector when the kernel is one-dimensional, else None."""
    if not rows:
        return None
    n = len(rows[0])
    work = [[ctx.scalar(v) for v in row] for row in rows]
    work, pivots = _eliminate(work, ctx)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    x = [ctx.zero()] * n
    x[f] = ctx.one()
    for i, c in enumerate(pivots):
        x[c] = -work[i][f]
    return tuple(x)


def is_row_stochastic(matrix: Sequence[Sequence], ctx: Context = DEFAULT) -> bool:
    for row in matrix:
        if any(not ctx.ge(v, ctx.zero()) for v in row):
            return False
        if not ctx.eq(sum(row), ctx.one()):
            return False
    return True


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
