"""Self-contained primal simplex solver.

An LP maximizes c . x subject to ``==`` and ``>=`` rows and x >= 0: every
relation in gptwb asks for a nonnegative witness, and a model that needs a
free or bounded quantity poses it on nonnegative columns itself.  Rows and
the objective are sparse: sequences of ``(column, coefficient)`` pairs, and
column j of a row is tableau column j.

Two-phase tableau method over the context's scalar field.  Each row is
written once, signed by its right-hand side.  A ``>=`` row whose right-hand
side is <= 0 holds at x = 0: it is negated so that its slack enters with +1,
and that slack starts basic (a slack crash basis; Bixby, ORSA J. Comput. 4,
1992).  Every other row starts on a phase-1 artificial, which is implicit
(it has no tableau column), so one that leaves the basis never re-enters; an
LP with no artificial makes no phase-1 pivot.
The relation models are posed so that x = 0 satisfies as many rows as it
can.  The entering column is chosen by Dantzig's rule (most negative reduced
cost); a streak of degenerate pivots switches to Bland's rule, which
guarantees termination.  Pivots update only the nonzero columns of the pivot
row.  Every choice breaks ties by lowest index, so witnesses are
deterministic.  The exact backend runs the same code with ``eps`` = 0: there
infeasibility is certified; in float mode it means no feasible point was
found at tolerance ``eps``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import DEFAULT, Context
from .linalg import total


class UnboundedObjective(Exception):
    """Raised when maximizing along an unbounded direction."""


class LPProblem:
    """maximize objective . x  subject to
    eq:  row . x == rhs        ge:  row . x >= rhs        x >= 0

    A row and the objective are sequences of ``(column, coefficient)`` pairs
    over the n variables; a column not listed has coefficient 0, and a
    column listed twice adds.  ``eq`` and ``ge`` are lists of
    ``(pairs, rhs)``, which ``add_eq`` and ``add_ge`` append to.
    """

    def __init__(self, n: int, objective: Optional[Sequence] = None,
                 eq: Optional[list] = None, ge: Optional[list] = None):
        self.n = n
        self.objective = objective
        self.eq = [] if eq is None else eq
        self.ge = [] if ge is None else ge

    def add_eq(self, row, rhs) -> None:
        self.eq.append((row, rhs))

    def add_ge(self, row, rhs) -> None:
        self.ge.append((row, rhs))


class LPResult(NamedTuple):
    feasible: bool
    x: Optional[tuple] = None
    value: Optional[object] = None


def _pivot(tableau: list[list], basis: list[int], r: int, c: int, ctx: Context) -> list:
    """Pivot on entry (r, c) in place; returns the scaled pivot row's nonzero
    ``(column, value)`` pairs, the only columns any other row changes in."""
    prow = tableau[r]
    inv = 1 / prow[c]
    nz = []
    for j, v in enumerate(prow):
        if v:
            v = inv * v
            prow[j] = v
            nz.append((j, v))
    zero = ctx.zero()
    # the integer 0 on exact: comparing a Fraction with a float is slow
    tiny = ctx.eps * 1e-3 if ctx.eps else 0
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if not f or abs(f) <= tiny:
            row[c] = zero
            continue
        for j, v in nz:
            row[j] -= f * v
        row[c] = zero
    basis[r] = c
    return nz


def _run_simplex(tableau: list[list], basis: list[int], cost: list, ctx: Context) -> bool:
    """Minimize ``cost . y`` given a basic feasible tableau.

    ``cost`` covers every column but the rhs; a basic index ``>= len(cost)``
    is a phase-1 artificial, which costs one and has no column, so once it
    leaves it never re-enters.  Returns False when an improving column is
    unbounded.  The entering column is the most negative reduced cost
    (Dantzig); after more than ``m`` degenerate pivots in a row it is the
    first improving column (Bland) until a pivot makes progress.
    """
    zero, one = ctx.zero(), ctx.one()
    tol = ctx.eps
    m, width = len(tableau), len(cost)
    red = list(cost) + [zero]
    for i, b in enumerate(basis):
        f = red[b] if b < width else one
        if abs(f) > tol:
            for j, v in enumerate(tableau[i]):
                if v:
                    red[j] -= f * v
            if b < width:
                red[b] = zero
    cols = range(width)
    degenerate = 0
    # safety valve against float round-off; in exact arithmetic the Bland
    # fallback alone guarantees termination
    max_pivots = 2000 + 50 * (m + width)
    for _ in range(max_pivots):
        enter = min(cols, key=red.__getitem__, default=-1)
        if enter < 0 or red[enter] >= -tol:
            return True
        if degenerate > m:
            enter = next(j for j in cols if red[j] < -tol)
        leave, best = -1, None
        for i in range(m):
            a = tableau[i][enter]
            if a > tol:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            return False  # unbounded direction
        degenerate = degenerate + 1 if abs(best) <= tol else 0
        f = red[enter]
        for j, v in _pivot(tableau, basis, leave, enter, ctx):
            red[j] -= f * v
        red[enter] = zero
    raise RuntimeError("simplex pivot limit exceeded")


def lp_solve(problem: LPProblem, ctx: Context = DEFAULT) -> LPResult:
    """Solve an LPProblem; Feasible results carry a deterministic witness."""
    scalar = ctx.scalar if ctx.exact else float
    tol = ctx.eps
    n = problem.n
    zero, one = ctx.zero(), ctx.one()

    # each row at full width, its slack column in place: the n variables,
    # one slack per >= row, rhs.  A row starts on its implicit artificial,
    # width + i, unless it is a >= row that y = 0 satisfies: negated, its
    # slack enters with +1 and starts basic at the row's rhs.  The rhs is
    # known before the row is written, so the row is written once, signed.
    width = n + len(problem.ge)
    tableau: list[list] = []
    basis: list[int] = []

    def add_row(pairs, b, slack: int | None) -> None:
        b = scalar(b)
        starts_on_slack = slack is not None and b <= 0
        negate = starts_on_slack or b < 0
        out = [zero] * width
        for j, c in pairs:
            c = scalar(c)
            if c:
                out[j] += -c if negate else c
        if slack is not None:
            out[slack] = one if negate else -one
        basis.append(slack if starts_on_slack else width + len(tableau))
        out.append(abs(b))  # >= 0 once signed; abs, so a float 0 is never -0.0
        tableau.append(out)

    for row, b in problem.eq:
        add_row(row, b, None)
    for k, (row, b) in enumerate(problem.ge):
        add_row(row, b, n + k)

    # --- phase 1: nothing to do when every row starts on its slack ----------
    m = len(tableau)
    _run_simplex(tableau, basis, [zero] * width, ctx)
    if total((tableau[i][-1] for i in range(m) if basis[i] >= width), zero) > tol:
        return LPResult(False)

    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= width:
            piv = next((j for j in range(width) if abs(tableau[i][j]) > tol), None)
            if piv is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, piv, ctx)
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    # --- phase 2 ------------------------------------------------------------
    value = None
    if problem.objective is not None:
        cost = [zero] * width  # minimize -objective
        for j, c in problem.objective:
            cost[j] -= scalar(c)
        if not _run_simplex(tableau, basis, cost, ctx):
            raise UnboundedObjective("objective unbounded above")

    y = [zero] * width
    for i, b in enumerate(basis):
        y[b] = tableau[i][-1]
    x = tuple(y[:n])
    if problem.objective is not None:
        value = total((scalar(c) * x[j] for j, c in problem.objective), zero)
    return LPResult(True, x, value)
