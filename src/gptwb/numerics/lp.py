"""Self-contained primal simplex solver.

Two-phase tableau method over the context's scalar field.  The entering
column is chosen by Dantzig's rule (most negative reduced cost); a streak of
degenerate pivots switches to Bland's rule, which guarantees termination.
Pivots update only the nonzero columns of the pivot row.  Every choice breaks
ties by lowest index, so witnesses are deterministic: identical problems yield
identical solutions.  In exact mode
infeasibility is certified; in float mode it means no feasible point was
found at tolerance ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import Context


class UnboundedObjective(Exception):
    """Raised when maximizing along an unbounded direction."""


@dataclass
class LPProblem:
    """maximize objective . x  subject to
    eq:  row . x == rhs        ge:  row . x >= rhs
    bounds: per-variable (lo, hi), None meaning unbounded; default free.
    """

    n: int
    objective: Optional[Sequence] = None
    eq: list = field(default_factory=list)     # [(row, rhs), ...]
    ge: list = field(default_factory=list)     # [(row, rhs), ...]
    bounds: Optional[list] = None              # [(lo, hi), ...]

    def add_eq(self, row, rhs) -> None:
        self.eq.append((row, rhs))

    def add_ge(self, row, rhs) -> None:
        self.ge.append((row, rhs))


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    x: Optional[tuple] = None
    value: Optional[object] = None


def _pivot(tableau: list[list], basis: list[int], r: int, c: int, ctx: Context) -> list:
    """Pivot on entry (r, c) in place; returns the scaled pivot row's nonzero
    ``(column, value)`` pairs, the only columns any other row changes in."""
    prow = tableau[r]
    inv = 1 / prow[c] if ctx.exact else 1.0 / prow[c]
    nz = []
    for j, v in enumerate(prow):
        if v:
            v = inv * v
            prow[j] = v
            nz.append((j, v))
    zero = ctx.zero()
    tiny = 0 if ctx.exact else ctx.eps * 1e-3
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f == 0 or (not ctx.exact and abs(f) <= tiny):
            row[c] = zero
            continue
        for j, v in nz:
            row[j] -= f * v
        row[c] = zero
    basis[r] = c
    return nz


def _run_simplex(tableau: list[list], basis: list[int], cost: list, m: int,
                 allowed: int, ctx: Context) -> bool:
    """Minimize ``cost . y`` given a basic feasible tableau.

    ``cost`` has length ncols-1 (excludes rhs); columns >= ``allowed`` may not
    enter the basis.  Returns False when an improving column is unbounded.
    The entering column is the most negative reduced cost (Dantzig), lowest
    index on ties; after more than ``m`` degenerate pivots in a row it is the
    first improving column (Bland) until a pivot makes progress.
    """
    zero = ctx.zero()
    red = list(cost) + [zero]
    for i, b in enumerate(basis):
        f = red[b]
        if not ctx.is_zero(f):
            for j, v in enumerate(tableau[i]):
                if v:
                    red[j] -= f * v
            red[b] = zero
    tol = 0 if ctx.exact else ctx.eps
    cols = range(allowed)
    degenerate = 0
    # safety valve against float round-off; in exact arithmetic the Bland
    # fallback alone guarantees termination
    max_pivots = 2000 + 50 * (m + allowed)
    for _ in range(max_pivots):
        enter = min(cols, key=red.__getitem__, default=-1)
        if enter < 0 or red[enter] >= -tol:
            return True
        if degenerate > m:
            enter = next(j for j in cols if red[j] < -tol)
        leave, best = -1, None
        for i in range(m):
            a = tableau[i][enter]
            if (a > 0) if ctx.exact else (a > tol):
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return False  # unbounded direction
        degenerate = degenerate + 1 if ctx.is_zero(best) else 0
        f = red[enter]
        for j, v in _pivot(tableau, basis, leave, enter, ctx):
            red[j] -= f * v
        red[enter] = zero
    raise RuntimeError("simplex pivot limit exceeded")


def lp_solve(problem: LPProblem, ctx: Context | None = None) -> LPResult:
    """Solve an LPProblem; Feasible results carry a deterministic witness."""
    from . import DEFAULT

    ctx = ctx or DEFAULT
    n = problem.n
    zero, one = ctx.zero(), ctx.one()
    bounds = problem.bounds if problem.bounds is not None else [(None, None)] * n

    # --- translate to standard form: A y = b, y >= 0 -----------------------
    # x_j = shift_j + sum(coeff * y_k); extra rows for two-sided bounds.
    shifts: list = []
    terms: list[list[tuple[int, int]]] = []  # per original var: [(std_idx, sign)]
    extra_rows: list[tuple[int, object]] = []  # (std var index, span) for hi bounds
    nstd = 0
    for lo, hi in bounds:
        if lo is None and hi is None:
            terms.append([(nstd, 1), (nstd + 1, -1)])
            shifts.append(zero)
            nstd += 2
        elif lo is not None and hi is None:
            terms.append([(nstd, 1)])
            shifts.append(ctx.scalar(lo))
            nstd += 1
        elif lo is None and hi is not None:
            terms.append([(nstd, -1)])
            shifts.append(ctx.scalar(hi))
            nstd += 1
        else:
            terms.append([(nstd, 1)])
            shifts.append(ctx.scalar(lo))
            extra_rows.append((nstd, ctx.scalar(hi) - ctx.scalar(lo)))
            nstd += 1

    rows: list[list] = []
    rhs: list = []

    def convert(row, b, slack_sign) -> None:
        out = [zero] * nstd
        acc = ctx.scalar(b)
        for j, c in enumerate(row):
            c = ctx.scalar(c)
            if c == 0:
                continue
            acc -= c * shifts[j]
            for idx, sign in terms[j]:
                out[idx] += c if sign > 0 else -c
        if slack_sign:
            out.append(slack_sign * one)
        rows.append(out)
        rhs.append(acc)

    slack_count = len(problem.ge) + len(extra_rows)
    for row, b in problem.eq:
        convert(row, b, 0)
    for row, b in problem.ge:
        convert(row, b, -1)
    for idx, span in extra_rows:
        out = [zero] * nstd
        out[idx] = one
        rows.append(out)
        rhs.append(span)
    # pad slack columns to uniform width
    width = nstd + slack_count
    si = nstd
    for i, row in enumerate(rows):
        if len(row) > nstd:  # ge row: move its slack into its own column
            s = row.pop()
            row.extend([zero] * (width - len(row)))
            row[si] = s
            si += 1
        elif i >= len(problem.eq) + len(problem.ge):  # bound row slack
            row.extend([zero] * (width - len(row)))
            row[si] = one
            si += 1
        else:
            row.extend([zero] * (width - len(row)))

    m = len(rows)
    if m == 0:
        # no constraint rows: variables decouple (two-sided bounds would have
        # produced a row, so each is free or one-sided)
        xs = []
        obj = problem.objective or [zero] * n
        for j, (lo, hi) in enumerate(bounds):
            c = ctx.scalar(obj[j])
            if ctx.gt(c, zero):
                if hi is None:
                    raise UnboundedObjective("unconstrained objective direction")
                xs.append(ctx.scalar(hi))
            elif ctx.lt(c, zero):
                if lo is None:
                    raise UnboundedObjective("unconstrained objective direction")
                xs.append(ctx.scalar(lo))
            else:
                xs.append(shifts[j])
        val = None
        if problem.objective is not None:
            val = sum((ctx.scalar(c) * x for c, x in zip(problem.objective, xs)), zero)
        return LPResult(True, tuple(xs), val)

    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # --- phase 1 ------------------------------------------------------------
    ncols = width + m
    tableau = []
    basis = []
    for i in range(m):
        row = rows[i] + [zero] * m + [rhs[i]]
        row[width + i] = one
        tableau.append(row)
        basis.append(width + i)
    p1cost = [zero] * width + [one] * m
    _run_simplex(tableau, basis, p1cost, m, ncols - 1, ctx)
    infeas = sum((tableau[i][-1] for i in range(m) if basis[i] >= width), zero)
    tol = 0 if ctx.exact else ctx.eps
    if infeas > tol:
        return LPResult(False)

    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= width:
            piv = next((j for j in range(width) if not ctx.is_zero(tableau[i][j])), None)
            if piv is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, piv, ctx)
        keep.append(i)
    tableau = [tableau[i][:width] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(tableau)

    # --- phase 2 ------------------------------------------------------------
    value = None
    if problem.objective is not None:
        cost = [zero] * width  # minimize -objective
        for j, c in enumerate(problem.objective):
            c = ctx.scalar(c)
            if c == 0:
                continue
            for idx, sign in terms[j]:
                cost[idx] -= c if sign > 0 else -c
        bounded = _run_simplex(tableau, basis, cost, m, width, ctx)
        if not bounded:
            raise UnboundedObjective("objective unbounded above")

    y = [zero] * width
    for i, b in enumerate(basis):
        y[b] = tableau[i][-1]
    x = []
    for j in range(n):
        v = shifts[j]
        for idx, sign in terms[j]:
            v = v + (y[idx] if sign > 0 else -y[idx])
        x.append(v)
    if problem.objective is not None:
        value = sum((ctx.scalar(c) * xv for c, xv in zip(problem.objective, x)), zero)
    return LPResult(True, tuple(x), value)
