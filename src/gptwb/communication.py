"""Communication matrices, ultraweak majorization and the monotone family.

A communication matrix is the row-stochastic outcome table of a
prepare-and-measure scenario.  Majorization D <= C means row-stochastic L, R
with L C R = D exist.  Monotone screens certify "no".  Exact shortcuts
answer a D whose rows are all equal, identity-shaped endpoints, a D whose
rows are all rows of C, and a D that has every column of C.  Otherwise a
search fits D's distinct rows: five projected least-squares warm sweeps,
then rounds of least-absolute-deviation LPs.  Each round fits L by LPs,
then moves R to the nearest R with (L C) R = D; it ends when that R is
nonnegative up to round-off and fits, and otherwise fits R by an LP too.

The nonnegative-rank and psd-rank monotones are certified intervals.  The
upper end of the nonnegative-rank interval comes from factorizations
C = W H found by HALS sweeps in floats.  When k equals the rank of C, the
sweeps try an exact-rank finish (Vavasis 2009) after sweeps 1, 2, 4, 8 and
16 and at every check, and stop at the first iterate it accepts: H's rows
are pushed out to the simplex inside C's affine hull, and W is read off as
barycentric coordinates.

Every "yes" and every factorization is normalised in the matrix's field
and re-verified, so it is exactly row-stochastic and reproduces the target
within 1e-9.  A failed search is "inconclusive", never "no".  Every float
sum is ``numerics.dot``, ``mat_mul`` or ``total``, added left to right, so
a search's path and witness are the same on every interpreter.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Optional, Sequence

from .numerics import (
    Echelon,
    LPProblem,
    dot,
    is_row_stochastic,
    lp_solve,
    mat_mul,
    orthogonal_rows,
    rank,
    total,
)
from .numerics import Context, DEFAULT, Validated
from .observables import Observable, minimally_sufficient, observable
from .spaces import StateSpace, effect_block, in_convex_hull, make_classical


class _CommMatrixFields(NamedTuple):
    matrix: tuple            # row-stochastic rows of one length, checked when built
    ctx: Context


class CommMatrix(Validated, _CommMatrixFields):
    __slots__ = ()

    def __new__(cls, matrix: tuple, ctx: Context = DEFAULT):
        self = tuple.__new__(cls, (matrix, ctx))
        if not self.matrix:
            raise ValueError("a communication matrix needs at least one row")
        if len({len(row) for row in self.matrix}) > 1:
            raise ValueError("matrix rows differ in length")
        if not is_row_stochastic(self.matrix, self.ctx):
            raise ValueError("matrix is not row-stochastic")
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.matrix), len(self.matrix[0])


def comm_matrix(rows: Sequence[Sequence], ctx: Context = DEFAULT) -> CommMatrix:
    return CommMatrix(tuple(tuple(ctx.scalar(v) for v in row) for row in rows), ctx)


def build_comm_matrix(states: Sequence[Sequence], m: Observable) -> CommMatrix:
    """Entry (i, j) is the probability of outcome j on state i."""
    space = m.space
    for s in states:
        if not space.contains_state(s):
            raise ValueError("state outside the state space")
    return CommMatrix(tuple(m.probabilities(s) for s in states), space.ctx)


def identity_matrix(k: int, ctx: Context = DEFAULT) -> CommMatrix:
    one, zero = ctx.one(), ctx.zero()
    return CommMatrix(tuple(tuple(one if i == j else zero for j in range(k))
                            for i in range(k)), ctx=ctx)


def uniform_matrix(n: int, *, ctx: Context = DEFAULT) -> CommMatrix:
    v = ctx.one() / n
    return CommMatrix(tuple(tuple(v for _ in range(n)) for _ in range(n)), ctx=ctx)


# ----------------------------------------------------------------- monotones
class MonotoneReport(NamedTuple):
    iota: int
    lambda_max: object
    lambda_min: object
    rank: int
    nn_rank: tuple[int, int]
    psd_rank: tuple[int, int]


def monotones(c: CommMatrix, *, seed: int = 0, search_upper: bool = True) -> MonotoneReport:
    ctx = c.ctx
    mat = c.matrix
    n, m = c.shape
    iota = len(orthogonal_rows(mat, ctx))
    lam_max = total(max(row[j] for row in mat) for j in range(m))
    lam_min = 0 - total(min(row[j] for row in mat) for j in range(m))  # not -0.0
    rk = rank(mat, ctx)
    nn_lo = max(rk, ctx.ceil(lam_max))
    nn_hi = nn_lo
    if search_upper:
        while nn_hi < min(n, m):
            if nonneg_factorization(c, nn_hi, seed=seed) is not None:
                break
            nn_hi += 1
    else:
        nn_hi = min(n, m)
    psd_lo = max(_ceil_sqrt(rk), ctx.ceil(lam_max))
    return MonotoneReport(iota, lam_max, lam_min, rk, (nn_lo, nn_hi), (psd_lo, nn_hi))


def _ceil_sqrt(k: int) -> int:
    return 0 if k == 0 else math.isqrt(k - 1) + 1


def nonneg_factorization(c: CommMatrix, k: int, *, seed: int = 0) -> Optional[tuple]:
    """Row-stochastic W (n x k), H (k x m) with W H = C within tolerance, or
    None when the search fails (inconclusive, not a certificate).

    Each of _FACTOR_RESTARTS restarts runs _hals_stochastic, with the
    exact-rank finish when k is the rank of C in its context; a restart then
    ends at the first iterate the finish accepts.  The factors
    are converted to the context's field, each row divided by its sum
    there, and returned only if both are row-stochastic in that field and
    re-substitute within 1e-9."""
    ctx = c.ctx
    n, m = c.shape
    if k >= min(n, m):
        k = min(n, m)
        if m <= n:
            return tuple(tuple(row) for row in c.matrix), identity_matrix(m, ctx).matrix
        return identity_matrix(n, ctx).matrix, tuple(tuple(row) for row in c.matrix)
    if k < 1:
        return None
    tol = ctx.eps
    target = [[float(v) for v in row] for row in c.matrix]
    basis = _row_basis(target, k) if rank(c.matrix, ctx) == k else None
    for attempt in range(_FACTOR_RESTARTS):
        rng = random.Random(seed * 1_000_003 + k * 1009 + attempt)
        if attempt == 0:
            # cluster seeding: assign rows cyclically
            w = [[1.0 if (i % k) == j else 0.0 for j in range(k)] for i in range(n)]
        else:
            w = _random_stochastic(rng, n, k)
        fact = _hals_stochastic(target, w, basis)
        if fact is None or _factor_error(*fact, target) > max(tol, 1e-10):
            continue
        wq, hq = _field_stochastic(fact, ctx)
        if (is_row_stochastic(wq, ctx) and is_row_stochastic(hq, ctx)
                and _factor_error(wq, hq, c.matrix) <= max(tol, 1e-9)):
            return wq, hq
    return None


_FACTOR_RESTARTS = 4      # HALS restarts of nonneg_factorization
_ULTRAWEAK_STARTS = 6     # random starts of the ultraweak search
_ULTRAWEAK_WARM = 5       # projected sweeps before the LP rounds
_ULTRAWEAK_TARGET = 1e-10  # max error at which a start succeeds
_HALS_CHECK_EVERY = 20    # sweeps between max-error checks
_HALS_MAX_SWEEPS = 2000
_HALS_TARGET = 1e-11      # max error at which the sweeps stop


def _hals_stochastic(target, w, basis=None):
    """Nonnegative HALS (Gillis & Glineur 2012) on target ~ W H from W, then
    rescaled to row-stochastic factors: H's rows to sum 1 with W's columns
    scaled to match, then W's rows divided by their sums.  When ``basis``
    (from _row_basis, k = rank of the target) is given, _hull_finish is
    tried after sweeps 1, 2, 4, 8 and 16, the powers of two below
    _HALS_CHECK_EVERY, and then at every check, and its factors are
    returned at the first attempt that succeeds.  Every _HALS_CHECK_EVERY
    sweeps a check measures the max error; the sweeps stop when it reaches
    _HALS_TARGET, or when its rate since the last check cannot reach the
    target in the checks left.
    Returns float (W, H), or None when a factor row has no mass."""
    m = len(target[0])
    wc = [list(col) for col in zip(*w)]
    h = [[0.0] * m for _ in wc]
    ct = list(zip(*target))
    prev = float("inf")
    for sweep in range(1, _HALS_MAX_SWEEPS + 1):
        _hals_update(h, wc, ct)       # rows of H for fixed W
        _hals_update(wc, h, target)   # columns of W for fixed H
        check = sweep % _HALS_CHECK_EVERY == 0
        early = sweep < _HALS_CHECK_EVERY and sweep & (sweep - 1) == 0  # 1, 2, 4, 8, 16
        if basis is not None and (check or early):
            fact = _hull_finish(target, h, basis)
            if fact is not None:
                return fact
        if check:
            err = _factor_error(list(zip(*wc)), h, target)
            # stop at the target, or at a rate that cannot reach it in the
            # checks left (a rate of 1 or more never does)
            checks_left = (_HALS_MAX_SWEEPS - sweep) // _HALS_CHECK_EVERY
            if err <= _HALS_TARGET or err * min(err / prev, 1.0) ** checks_left > _HALS_TARGET:
                break
            prev = err
    for t, row in enumerate(h):
        s = total(row)
        if s <= 0.0:
            return None
        h[t] = [v / s for v in row]
        wc[t] = [v * s for v in wc[t]]
    w = []
    for row in zip(*wc):
        s = total(row)
        if s <= 0.0:
            return None
        w.append([v / s for v in row])
    return w, h


def _row_basis(target, k) -> list:
    """An orthonormal basis of the span of the target's rows, whose rank is k
    (Gram-Schmidt, each step taking the row with the largest remaining
    part)."""
    rest = [list(row) for row in target]
    basis = []
    for _ in range(k):
        norms = [dot(r, r) for r in rest]
        i = max(range(len(rest)), key=norms.__getitem__)
        q = [v / norms[i] ** 0.5 for v in rest[i]]
        basis.append(q)
        for r in rest:
            d = dot(r, q)
            r[:] = [a - d * b for a, b in zip(r, q)]
    return basis


def _hull_finish(target, h, basis):
    """Exact-rank finish (the nested-polytopes view of Vavasis 2009): when
    k = rank(C), H's rows span the same space as C's rows, so C's rows lie
    in the convex hull of H's rows inside their affine hull.  Each row of
    ``h`` is projected onto that affine hull (onto the span, then rescaled
    to sum 1) and pushed away from the centroid of C's rows out to the
    simplex boundary; each row of W is then C's row in barycentric
    coordinates, read off one ``Echelon`` form of H's rows.
    Returns float (W, H) when W >= 0 and the max error is within
    _HALS_TARGET, else None."""
    centre = [total(col) / len(target) for col in zip(*target)]
    rows = []
    for row in h:
        coords = [dot(q, row) for q in basis]
        p = [dot(coords, col) for col in zip(*basis)]
        s = total(p)
        if s <= 0.0:
            return None
        d = [v / s - g for v, g in zip(p, centre)]
        t = min((g / -v for g, v in zip(centre, d) if v < 0.0 and g > 0.0), default=None)
        if t is None:
            return None
        rows.append([max(0.0, g + t * v) for g, v in zip(centre, d)])
    ech = Echelon.of(rows, len(centre), slots=len(rows))
    if ech is None:
        return None
    w = []
    for row in target:
        x = ech.solve(row)
        if x is None or min(x) < 0.0:
            return None
        w.append(x)
    if _factor_error(w, rows, target) > _HALS_TARGET:
        return None
    return w, rows


def _hals_update(x, y, data, project=None) -> None:
    """One HALS half-sweep, in place: with the other factor's vectors y and
    the data vectors fixed, each x[t] in turn becomes the least-squares
    optimum max(0, (y_t . data - sum_{s != t} (y_t . y_s) x_s) / (y_t . y_t))
    over nonnegative vectors, using the x[s] already updated; with
    ``project`` = _project_simplex the optimum is over the simplex instead."""
    for t, yt in enumerate(y):
        gram = [dot(yt, ys) for ys in y]
        if gram[t] <= 0.0:
            continue
        acc = [dot(yt, d) for d in data]
        for s, g in enumerate(gram):
            if s != t and g != 0.0:
                acc = [a - g * v for a, v in zip(acc, x[s])]
        inv = 1.0 / gram[t]
        if project is None:
            x[t] = [a * inv if a > 0.0 else 0.0 for a in acc]
        else:
            x[t] = project([a * inv for a in acc])


def _project_simplex(v: list) -> list:
    """Euclidean projection onto the probability simplex in closed form
    (Duchi, Shalev-Shwartz, Singer & Chandra 2008): subtract the threshold
    theta that leaves the positive parts summing to 1."""
    css = 0.0
    theta = 0.0
    for r, u in enumerate(sorted(v, reverse=True), 1):
        css += u
        t = (css - 1.0) / r
        if u <= t:
            break
        theta = t
    return [u - theta if u > theta else 0.0 for u in v]


def _random_stochastic(rng: random.Random, n: int, m: int) -> list:
    return [_normalise_row([rng.random() for _ in range(m)]) for _ in range(n)]


def _field_stochastic(factors, ctx: Context) -> tuple:
    """Nonnegative float factors in the context's field, each row divided by
    its sum there."""
    return tuple(tuple(_normalise_row([ctx.scalar(v) for v in row]) for row in f)
                 for f in factors)


def _normalise_row(row: list) -> tuple:
    s = total(row)
    return tuple(v / s for v in row)


def _factor_error(w, h, target) -> float:
    return max((abs(float(a - t)) for pr, tr in zip(mat_mul(w, h), target)
                for a, t in zip(pr, tr)), default=0.0)


def _ultraweak_fit(cf, target, left, right):
    """Float row-stochastic (L, R) with max |L C R - D| <= _ULTRAWEAK_TARGET
    from the start (left, right), or None: _ULTRAWEAK_WARM warm sweeps,
    then rounds of exact least-absolute-deviation LPs (_lad_fit: one
    deviation column per fitted entry, the other deviation its row's
    starting slack).  A round fits each row of L by one LP, then tries the
    exact-fit finish _exact_right, which returns when the nearest R with
    (L C) R = D is nonnegative up to round-off and fits; otherwise one LP
    over all of R.
    The rounds stop when one fails to halve the max error."""
    k, m = len(cf[0]), len(target[0])
    _ultraweak_warm_sweeps(cf, target, left, right)
    prev = float("inf")
    while True:
        crt = [[(j, a) for j, a in enumerate(col) if a]
               for col in zip(*mat_mul(cf, right))]  # columns of C R
        left = [_lad_fit(1, len(cf), list(zip(crt, d)))[0] for d in target]
        lc = mat_mul(left, cf)
        exact = _exact_right(lc, target, right)
        if exact is not None:
            return left, exact
        # entry (y, b) of R, column y * m + b, has coefficient (L C)[i][y]
        fits = [([(y * m + b, a) for y, a in enumerate(row) if a], v)
                for row, d in zip(lc, target) for b, v in enumerate(d)]
        right = _lad_fit(k, m, fits)
        err = _factor_error(lc, right, target)
        if err <= _ULTRAWEAK_TARGET:
            return left, right
        if err > 0.5 * prev:
            return None
        prev = err


def _exact_right(lc, target, right):
    """The R nearest ``right`` in the Frobenius norm with (L C) R = D: each
    column r of R becomes r + P^T (Z^+ d - P r), where the rows of P are an
    orthonormal basis of the rows of L C (_row_basis), Z = (L C) P^T, and
    Z^+ d solves the normal equations Z^T Z x = Z^T d, all columns on one
    ``Echelon`` form of Z^T Z.  L C and D are row-stochastic, so the rows of
    that R still sum to 1.  An entry below -_ULTRAWEAK_TARGET refuses R;
    entries between that and 0 are round-off and become 0.  Returns R when
    its max error is then within _ULTRAWEAK_TARGET, else None."""
    p = _row_basis(lc, rank(lc))
    zt = [[dot(row, q) for row in lc] for q in p]  # columns of Z
    gram = [[dot(a, b) for b in zt] for a in zt]
    ech = Echelon.of(gram, len(gram), slots=len(gram))  # symmetric: rows are columns
    if ech is None:
        return None
    pt = list(zip(*p))
    cols = []
    for d, r in zip(zip(*target), zip(*right)):
        x = ech.solve([dot(a, d) for a in zt])
        if x is None:
            return None
        step = [v - dot(q, r) for v, q in zip(x, p)]
        cols.append([v + dot(step, prow) for v, prow in zip(r, pt)])
    if min(map(min, cols)) < -_ULTRAWEAK_TARGET:
        return None
    new = [[max(v, 0.0) for v in row] for row in zip(*cols)]  # round-off below 0 is 0
    if _factor_error(lc, new, target) > _ULTRAWEAK_TARGET:
        return None
    return new


def _ultraweak_warm_sweeps(cf, target, left, right) -> None:
    """Projected least-squares sweeps on |L C R - D|^2, in place: each row of
    R by a HALS step projected onto the simplex, then each row of L by one
    projected-gradient step on |l G - d_i|^2 with G = C R."""
    dt = list(zip(*target))
    for _ in range(_ULTRAWEAK_WARM):
        lct = list(zip(*mat_mul(left, cf)))  # columns of L C
        _hals_update(right, lct, dt, _project_simplex)
        g = mat_mul(cf, right)
        ggt = [[dot(a, b) for b in g] for a in g]
        step = 1.0 / max(map(total, ggt))  # G G^T >= 0, so this is 1 / |G G^T|_inf
        for i, d in enumerate(target):
            dg = [dot(d, grow) for grow in g]
            grad = [dot(left[i], col) - v for col, v in zip(ggt, dg)]
            left[i] = _project_simplex([a - step * b for a, b in zip(left[i], grad)])


def _lad_fit(rows: int, width: int, fits):
    """Least absolute deviations over row-stochastic rows: x >= 0, cut into
    ``rows`` rows of ``width`` entries that each sum to 1, minimizing the sum
    of |terms . x - value| over ``fits``, each a list of (column, coefficient)
    pairs in column order and a value >= 0, with one LP.  Each fit has one
    deviation column e >= 0 in the row -terms . x + e >= -value, whose slack
    value - terms . x + e is the other deviation; since
    |terms . x - value| = 2 e - (terms . x - value), the LP maximizes
    sum(terms . x) - 2 sum(e).  y = 0 satisfies every fit row, so each starts
    on its slack and only the row sums start on artificials.  Returns the
    rows as floats."""
    nx = rows * width
    ne = len(fits)
    obj = [0.0] * nx
    for terms, _ in fits:
        for j, a in terms:
            obj[j] += a
    p = LPProblem(n=nx + ne,
                  objective=[(j, a) for j, a in enumerate(obj) if a]
                  + [(nx + e, -2) for e in range(ne)])
    for start in range(0, nx, width):
        p.add_eq([(j, 1) for j in range(start, start + width)], 1)
    for e, (terms, value) in enumerate(fits):
        p.add_ge([(j, -a) for j, a in terms] + [(nx + e, 1)], -value)
    res = lp_solve(p, DEFAULT)
    if not res.feasible:
        raise RuntimeError("least-absolute-deviation LP must be feasible")
    x = [max(float(v), 0.0) for v in res.x[:nx]]
    return [x[start:start + width] for start in range(0, nx, width)]


# ------------------------------------------------------------ canonical form
def canonical_reduce(c: CommMatrix) -> CommMatrix:
    """Equivalent matrix with no zero columns, no positively proportional
    column pairs, and no row that is a convex mixture of the other rows.

    The columns are the effects of an observable on ``make_classical(n)``,
    vertex i standing for state i, so the column steps are its minimally
    sufficient representative.  One pass then drops each row in the hull of
    the rows still kept, which is enough: dropping a mixture row creates no
    zero or proportional column, merging columns does not change which rows
    are mixtures, and dropping a row never turns an earlier kept row into one."""
    ctx = c.ctx
    rep = minimally_sufficient(observable(make_classical(c.shape[0], ctx), list(zip(*c.matrix))))
    rows = list(zip(*rep.effects))
    i = 0
    while i < len(rows):
        if in_convex_hull(rows[i], rows[:i] + rows[i + 1:], ctx):
            del rows[i]
        else:
            i += 1
    return CommMatrix(tuple(rows), ctx=ctx)


# ------------------------------------------------------- ultraweak majorization
class UltraweakResult(NamedTuple):
    verdict: str                      # "yes" | "no" | "inconclusive"
    left: Optional[tuple] = None      # L with L C R = D
    right: Optional[tuple] = None
    violated: Optional[str] = None    # name of the violated monotone for "no"


def ultraweak_leq(d: CommMatrix, c: CommMatrix, *, seed: int = 0) -> UltraweakResult:
    """Decide D <= C (ultraweak): monotone screens give certified "no"; a D
    whose rows are all equal, identity-shaped endpoints, a D whose rows are
    all rows of C and a D that has every column of C are decided exactly,
    each witness re-substituted by verify_ultraweak_witness; otherwise a
    search looks for row-stochastic witnesses L, R.

    The search fits D's distinct rows, each repeated row of D taking its
    first copy's row of L.  Each of up to _ULTRAWEAK_STARTS starts draws
    random row-stochastic L and R from
    ``random.Random(seed * 1_000_003 + attempt)`` and runs _ultraweak_fit.
    A fit is converted to the matrices' field, each row divided by its exact
    sum, and returned only if verify_ultraweak_witness accepts it there;
    when every start fails the answer is "inconclusive"."""
    ctx = d.ctx
    md = monotones(d, search_upper=False)
    mc = monotones(c, search_upper=False)
    for name, dv, cv in [("iota", md.iota, mc.iota),
                         ("lambda_max", md.lambda_max, mc.lambda_max),
                         ("lambda_min", md.lambda_min, mc.lambda_min),
                         ("rank", md.rank, mc.rank)]:
        if ctx.gt(ctx.scalar(dv), ctx.scalar(cv)):
            return UltraweakResult("no", violated=name)

    if all(ctx.eq(a, b) for row in d.matrix for a, b in zip(row, d.matrix[0])):
        # every row of D is one distribution p: L picks C's first row and
        # every row of R is p, so L C R = D whatever C is
        pick = (ctx.one(),) + (ctx.zero(),) * (c.shape[0] - 1)
        left, right = (pick,) * d.shape[0], (d.matrix[0],) * c.shape[1]
        if verify_ultraweak_witness(d, c, left, right):
            return UltraweakResult("yes", left, right)
    if _is_identity(d, ctx):  # distinguishability shortcut
        # the iota screen passed: C has d.shape[0] rows with pairwise disjoint supports
        left, right = _identity_witness(c, orthogonal_rows(c.matrix, ctx)[:d.shape[0]], ctx)
        if verify_ultraweak_witness(d, c, left, right):
            return UltraweakResult("yes", left, right)
    if _is_identity(c, ctx):  # classical-capacity shortcut
        # the rank and lambda_max screens passed, so D's nn_rank lower bound
        # max(rank, ceil lambda) is at most c.shape[0] = nn_rank(C)
        fact = nonneg_factorization(d, c.shape[0], seed=seed)
        if fact is not None:
            return UltraweakResult("yes", fact[0], fact[1])
        return UltraweakResult("inconclusive")
    if d.shape[1] == c.shape[1]:
        # every row of D a row of C: L selects those rows and R = I
        picks = _first_matches(d.matrix, c.matrix, ctx)
        if picks is not None:
            left = _selection(picks, c.shape[0], ctx)
            right = identity_matrix(c.shape[1], ctx).matrix
            if verify_ultraweak_witness(d, c, left, right):
                return UltraweakResult("yes", left, right)
    if d.shape[0] == c.shape[0]:
        # every column of C a column of D (say D = C P for a permutation P):
        # L = I and R sends each column of C to its column of D
        picks = _first_matches(zip(*c.matrix), list(zip(*d.matrix)), ctx)
        if picks is not None:
            left = identity_matrix(c.shape[0], ctx).matrix
            right = _selection(picks, d.shape[1], ctx)
            if verify_ultraweak_witness(d, c, left, right):
                return UltraweakResult("yes", left, right)

    distinct = list(dict.fromkeys(d.matrix))  # a repeated row of D repeats its row of L
    j, k = c.shape
    target = [[float(v) for v in row] for row in distinct]
    cf = [[float(v) for v in row] for row in c.matrix]
    for attempt in range(_ULTRAWEAK_STARTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        left = _random_stochastic(rng, len(distinct), j)
        right = _random_stochastic(rng, k, d.shape[1])
        fit = _ultraweak_fit(cf, target, left, right)
        if fit is not None:
            lq, rq = _field_stochastic(fit, ctx)
            lq = tuple(lq[distinct.index(row)] for row in d.matrix)
            if verify_ultraweak_witness(d, c, lq, rq):
                return UltraweakResult("yes", lq, rq)
    return UltraweakResult("inconclusive")


def _is_identity(c: CommMatrix, ctx) -> bool:
    n, m = c.shape
    if n != m:
        return False
    one, zero = ctx.one(), ctx.zero()
    return all(ctx.eq(c.matrix[i][j], one if i == j else zero)
               for i in range(n) for j in range(m))


def _identity_witness(c: CommMatrix, rows_idx: tuple[int, ...], ctx):
    """L selects the rows ``rows_idx`` of C, whose supports are disjoint, and
    R sends each column to the first of them whose support holds it."""
    n, m = c.shape
    supports = [frozenset(j for j, v in enumerate(c.matrix[i]) if not ctx.is_zero(v))
                for i in rows_idx]
    owners = [next((b for b, sup in enumerate(supports) if j in sup), 0) for j in range(m)]
    return _selection(rows_idx, n, ctx), _selection(owners, len(rows_idx), ctx)


def _first_matches(vectors, pool: Sequence, ctx) -> Optional[list]:
    """For each vector, the index of the first vector of ``pool`` equal to it
    entry by entry (``ctx.eq``); None when one has no equal."""
    picks = [next((i for i, p in enumerate(pool) if all(map(ctx.eq, v, p))), None)
             for v in vectors]
    return None if None in picks else picks


def _selection(picks: Sequence[int], width: int, ctx) -> tuple:
    """The 0/1 matrix whose row a has its one in column picks[a]."""
    one, zero = ctx.one(), ctx.zero()
    return tuple(tuple(one if i == p else zero for i in range(width)) for p in picks)


def verify_ultraweak_witness(d: CommMatrix, c: CommMatrix, left, right) -> bool:
    lcr = mat_mul(mat_mul(left, c.matrix), right)
    return (is_row_stochastic(left, d.ctx) and is_row_stochastic(right, d.ctx)
            and all(abs(float(a - b)) <= 1e-9
                    for ra, rb in zip(lcr, d.matrix) for a, b in zip(ra, rb)))


# ------------------------------------------------------------ space dimensions
class SpaceDims(NamedTuple):
    d_op: int
    lambda_max: float
    d_lin: int
    d_cl_lo: int
    d_q_lo: int


def space_dims(space: StateSpace) -> SpaceDims:
    """Physical dimensions of a polytopic theory: perfect distinguishability,
    information storability, linear dimension, and certified lower bounds for
    the classical and quantum dimensions.

    The bounds are the communication-matrix monotones nn_rank >= max(rank,
    ceil(lambda)) and psd_rank >= max(ceil(sqrt(rank)), ceil(lambda)) at their
    largest over the theory's matrices.  rank <= d_lin, attained by the
    vertices against a spanning observable; lambda <= lambda_max, attained by
    the storability LP."""
    ctx = space.ctx
    d_lin = space.affine_dim + 1
    lam_max = _lambda_max_space(space)
    d_op = _operational_dim(space, lam_max)
    lam_ceil = ctx.ceil(lam_max)
    return SpaceDims(d_op, float(lam_max), d_lin,
                     max(d_lin, lam_ceil), max(_ceil_sqrt(d_lin), lam_ceil))


def _lambda_max_space(space: StateSpace):
    """Information storability lambda_max: the largest sum over x of
    max_s A_x(s) over all observables A, as one LP.  It has one effect per
    vertex, the effects summing to u, and maximizes the summed values of each
    effect at its own vertex.  Grouping an observable's outcomes by the vertex
    where they peak loses nothing, so this optimum is the supremum."""
    n = space.n_vertices
    p = LPProblem(n=0)
    blk = effect_block(p, space, n)
    blk.sum_eq(p, range(n), space.unit)
    p.objective = [t for i, v in enumerate(space.vertices) for t in blk.terms(i, blk.at(v))]
    res = lp_solve(p, space.ctx)
    if not res.feasible:
        raise RuntimeError("storability LP must be feasible")
    return res.value


def _operational_dim(space: StateSpace, lam_max) -> int:
    ctx = space.ctx
    n = space.n_vertices
    best = 1
    cap = min(n, int(float(lam_max) + float(ctx.eps)))  # d_op <= lambda_max
    for k in range(2, cap + 1):
        found = False
        for combo in itertools.combinations(range(n), k):
            if _perfectly_distinguishable(space, combo):
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def _perfectly_distinguishable(space: StateSpace, vertex_idx: Sequence[int]) -> bool:
    """LP feasibility: an observable with effect i equal to 1 on vertex i and
    0 on the other listed vertices.  The effects sum to u, which is 1 on
    every vertex, so the last effect's rows follow from the others'."""
    k = len(vertex_idx)
    p = LPProblem(n=0)
    blk = effect_block(p, space, k)
    blk.sum_eq(p, range(k), space.unit)
    evals = [blk.at(space.vertices[vi]) for vi in vertex_idx]
    for i in range(k - 1):
        for t in range(k):
            p.add_eq(blk.terms(i, evals[t]), 1 if t == i else 0)
    return lp_solve(p, space.ctx).feasible
