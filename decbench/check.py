"""Answer checks in the benchmark's own arithmetic.

Nothing here calls gptwb.  Spaces are rebuilt from their defining formulas
(vertex lists and unit functional), witnesses are re-substituted with plain
float or ``Fraction`` sums, and planted "no" instances are certified by
monotones computed here: the max monotone of observables, lambda_max, iota
and rank of communication matrices, and the point-symmetric norm criterion
||a+b|| + ||a-b|| > 2 for unbiased pairs.

Float checks use ``FLOAT_TOL``; every planted instance keeps a margin of at
least ``MARGIN`` from its decision boundary, far above the program's own
tolerance (1e-9), so a correct change to the LP engine cannot flip a verdict.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

FLOAT_TOL = 1e-7
MARGIN = Fraction(1, 20)


# ------------------------------------------------------------------ spaces
class Geometry:
    """Vertices, unit functional and dual-cone rays of one space literal."""

    def __init__(self, ref: str, exact: bool):
        self.ref = ref
        self.exact = exact
        self.vertices, self.unit, self.blocks = _build(ref, exact)
        self.dim = len(self.unit)
        self.rays = _rays(self)

    def values(self, effect) -> list:
        return [dot(effect, v) for v in self.vertices]

    def tol(self):
        return 0 if self.exact else FLOAT_TOL

    def is_effect(self, effect) -> bool:
        t = self.tol()
        return all(-t <= x <= 1 + t for x in self.values(effect))


def _build(ref: str, exact: bool):
    """(vertices, unit, blocks) from the literal's defining formula."""
    one = Fraction(1) if exact else 1.0
    zero = one - one
    if ref.startswith("dsum:"):
        parts = [_build(p, exact) for p in ref[5:].split("+")]
        total = sum(len(u) for _, u, _ in parts)
        vertices, unit, blocks, off = [], [], [], 0
        for vs, u, _ in parts:
            blocks.append((off, len(u), len(vertices), len(vs)))
            for v in vs:
                row = [zero] * total
                row[off:off + len(u)] = v
                vertices.append(tuple(row))
            unit.extend(u)
            off += len(u)
        return vertices, tuple(unit), blocks
    if ref == "square":
        vs = [(one, one, one), (-one, one, one), (-one, -one, one), (one, -one, one)]
        return vs, (zero, zero, one), [(0, 3, 0, 4)]
    kind, _, arg = ref.partition(":")
    n = int(arg)
    if kind == "classical":
        vs = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
        return vs, tuple([one] * n), [(0, n, 0, n)]
    if kind == "polygon":
        if exact:
            raise ValueError("polygons have irrational vertices")
        r = math.sqrt(1.0 / math.cos(math.pi / n))
        vs = [(r * math.cos(2 * k * math.pi / n), r * math.sin(2 * k * math.pi / n), 1.0)
              for k in range(1, n + 1)]
        return vs, (0.0, 0.0, 1.0), [(0, 3, 0, n)]
    raise ValueError(f"unknown space literal {ref!r}")


def _rays(g: Geometry) -> list:
    """Dual-cone extreme rays scaled to a largest vertex value of 1, in block
    order: coordinate functionals of a simplex, edge functionals of a polygon
    (vertex pairs in lexicographic order, as the enumeration visits them)."""
    zero = g.unit[0] - g.unit[0]
    rays = []
    for off, width, v0, nv in g.blocks:
        local = [v[off:off + width] for v in g.vertices[v0:v0 + nv]]
        if width == nv:  # simplex block with standard-basis vertices
            dirs = [tuple(local[i]) for i in range(nv)]
        else:
            dirs = []
            for i, j in itertools.combinations(range(nv), 2):
                d = _cross(local[i], local[j])
                vals = [dot(d, v) for v in local]
                t = 0 if g.exact else 1e-9
                if all(x >= -t for x in vals):
                    pass
                elif all(x <= t for x in vals):
                    d = tuple(-x for x in d)
                    vals = [-x for x in vals]
                else:
                    continue
                top = max(vals)
                dirs.append(tuple(x / top for x in d))
        for d in dirs:
            full = [zero] * g.dim
            full[off:off + width] = d
            rays.append(tuple(full))
    return rays


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ------------------------------------------------------------- observables
def is_observable(g: Geometry, effects) -> bool:
    t = g.tol()
    if not all(g.is_effect(e) for e in effects):
        return False
    total = [sum(col) for col in zip(*effects)]
    return all(abs(a - b) <= t for a, b in zip(total, g.unit))


def lambda_max(g: Geometry, effects):
    """Max monotone: sum over outcomes of the largest vertex value."""
    return sum(max(g.values(e)) for e in effects)


def noise_content(g: Geometry, effects):
    """Sum over outcomes of the smallest vertex value."""
    return sum(min(g.values(e)) for e in effects)


def spread(g: Geometry, effect):
    vals = g.values(effect)
    return max(vals) - min(vals)


def psym_criterion(g: Geometry, a, b) -> float:
    """||a+b|| + ||a-b|| for the Bloch vectors of two effects on a
    point-symmetric space (centre at the origin of the first coordinates)."""
    d = g.dim - 1
    av = [2 * x for x in a[:d]]
    bv = [2 * x for x in b[:d]]

    def norm(vec):
        return max(dot(vec, v[:d]) for v in g.vertices)

    return norm([x + y for x, y in zip(av, bv)]) + norm([x - y for x, y in zip(av, bv)])


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


def _stochastic(matrix, tol, row_sum=1) -> bool:
    return all(all(v >= -tol for v in row) and _close(sum(row), row_sum, tol)
               for row in matrix)


def check_postprocessing(g: Geometry, source, target, nu) -> bool:
    """nu row-stochastic with target_x = sum_y nu[y][x] source_y."""
    t = g.tol()
    if len(nu) != len(source) or any(len(row) != len(target) for row in nu):
        return False
    if not _stochastic(nu, t):
        return False
    for x, tx in enumerate(target):
        for c in range(g.dim):
            if not _close(sum(nu[y][x] * source[y][c] for y in range(len(source))), tx[c], t):
                return False
    return True


def check_simulation(g: Geometry, target, simulators, weights, matrices) -> bool:
    """Weights p_i and sub-stochastic M_i (rows sum to p_i) reproducing the target."""
    t = g.tol()
    if len(weights) != len(simulators) or len(matrices) != len(simulators):
        return False
    if not _close(sum(weights), 1, t) or any(p < -t for p in weights):
        return False
    for p, m, sim in zip(weights, matrices, simulators):
        if len(m) != len(sim) or not _stochastic(m, t, p):
            return False
    for x, tx in enumerate(target):
        for c in range(g.dim):
            acc = sum(m[y][x] * sim[y][c]
                      for m, sim in zip(matrices, simulators) for y in range(len(sim)))
            if not _close(acc, tx[c], t):
                return False
    return True


def check_joint(g: Geometry, observables, cells, effects) -> bool:
    """Product-outcome joint observable: valid effects whose marginals give
    back every input observable."""
    t = g.tol()
    if len(cells) != len(effects) or not all(
            min(g.values(e)) >= -t for e in effects):
        return False
    for i, obs in enumerate(observables):
        for x, ex in enumerate(obs):
            acc = [sum(e[c] for z, e in zip(cells, effects) if z[i] == x) for c in range(g.dim)]
            if not all(_close(a, b, t) for a, b in zip(acc, ex)):
                return False
    return True


def check_dichotomic_g(g: Geometry, a, b, gvec) -> bool:
    """0 <= g <= a, b and a + b - g <= u on every vertex."""
    t = g.tol()
    for v in g.vertices:
        gv, av, bv = dot(gvec, v), dot(a, v), dot(b, v)
        if gv < -t or gv > av + t or gv > bv + t or av + bv - gv > 1 + t:
            return False
    return True


# ------------------------------------------------------ communication matrices
def mat_mul(a, b) -> list:
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for row in a]


def check_factorization(target, left, right, tol=FLOAT_TOL) -> bool:
    """Row-stochastic left and right with left . right == target."""
    if not (_stochastic(left, tol) and _stochastic(right, tol)):
        return False
    return _equal(mat_mul(left, right), target, tol)


def check_ultraweak(d, c, left, right, tol=FLOAT_TOL) -> bool:
    """Row-stochastic L, R with L C R == D."""
    if not (_stochastic(left, tol) and _stochastic(right, tol)):
        return False
    return _equal(mat_mul(mat_mul(left, c), right), d, tol)


def _equal(a, b, tol) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(_close(x, y, tol) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def matrix_lambda_max(m):
    return sum(max(row[j] for row in m) for j in range(len(m[0])))


def matrix_rank(m, tol=1e-9) -> int:
    rows = [list(map(float, r)) for r in m]
    rank, ncols = 0, len(rows[0])
    for c in range(ncols):
        piv = max(range(rank, len(rows)), key=lambda i: abs(rows[i][c]), default=None)
        if piv is None or abs(rows[piv][c]) <= tol:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matrix_iota(m, tol=1e-12) -> int:
    """Largest set of rows with pairwise disjoint supports (exhaustive)."""
    supports = [frozenset(j for j, v in enumerate(row) if abs(v) > tol) for row in m]
    for k in range(len(m), 0, -1):
        for combo in itertools.combinations(supports, k):
            if all(not (a & b) for a, b in itertools.combinations(combo, 2)):
                return k
    return 0


# ------------------------------------------------------- reference tables
def irreducible_counts(n: int) -> tuple[int, int]:
    """(dichotomic, trichotomic) extreme simulation-irreducibles of polygon:n."""
    m = n // 2
    if n % 2 == 0:
        return m, m * (m - 1) * (m - 2) // 3
    return 0, m * (m + 1) * (2 * m + 1) // 6


def polygon_lambda_max(n: int) -> float:
    return 2.0 if n % 2 == 0 else 1.0 + 1.0 / math.cos(math.pi / n)


def irreducibles(g: Geometry) -> list:
    """Extreme simulation-irreducible observables: linearly independent ray
    sets with a strictly positive solution of sum c_i r_i = u, in the order
    of the subset enumeration (by size, then lexicographic in the rays)."""
    found = []
    for k in range(1, min(g.dim, len(g.rays)) + 1):
        for combo in itertools.combinations(g.rays, k):
            coeff = _solve_columns(combo, g.unit, g.exact)
            if coeff is None or not all(c > (0 if g.exact else 1e-9) for c in coeff):
                continue
            found.append([tuple(c * x for x in r) for c, r in zip(coeff, combo)])
    return found


def _solve_columns(cols, rhs, exact):
    """Unique x with sum_j x_j cols[j] == rhs, or None."""
    k = len(cols)
    rows = [[col[c] for col in cols] + [rhs[c]] for c in range(len(rhs))]
    tol = 0 if exact else 1e-9
    r = 0
    for c in range(k):
        piv = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]), default=None)
        if piv is None or abs(rows[piv][c]) <= tol:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(abs(row[-1]) > tol for row in rows[k:]):
        return None
    return [rows[i][-1] for i in range(k)]
