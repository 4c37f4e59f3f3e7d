"""The subset walk against the per-subset enumerations it replaced.

The oracle below is the enumeration as it stood before the walk: a fresh
elimination for every vertex d-subset (dual rays), every (d+1)-subset of the
2n bound constraints (extreme effects) and every ray subset up to size d+1
(irreducibles).  Its rank and solves run on its own Gauss-Jordan elimination,
so it shares no code with ``Echelon``.  Exact results must be the identical
tuples in the identical order; float results must agree within 1e-12, in the
same order.  In ambient dimension 3 the extreme effects are read off the dual
rays instead of the walk, and must be the walk's, repr for repr.
"""

import itertools
from fractions import Fraction

import pytest

from gptwb.numerics import EXACT, FLOAT, Echelon, dot, independent_subsets
from gptwb.simulation import enumerate_irreducibles
from gptwb.spaces import DualRay, StateSpace, UnsupportedSpace, make_polygon, space_from_ref
from conftest import cube3, padded_square


# ------------------------------------------------------------------ oracle
def _eliminate(rows, ctx):
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(n):
        if r >= m:
            break
        pivot_row, best = None, ctx.eps
        for i in range(r, m):
            if abs(rows[i][c]) > best:
                pivot_row, best = i, abs(rows[i][c])
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(m):
            if i != r and not ctx.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _rank(rows, ctx):
    return len(_eliminate([[ctx.scalar(v) for v in row] for row in rows], ctx)[1])


def _affine_dim(sp):
    return _rank(sp.vertices, sp.ctx) - 1


def _solve_unique(a, b, ctx):
    """The unique solution of a x = b, or None; the residual is re-checked."""
    n = len(a[0])
    work, pivots = _eliminate([[ctx.scalar(v) for v in row] + [ctx.scalar(rhs)]
                               for row, rhs in zip(a, b)], ctx)
    var_pivots = [(i, c) for i, c in enumerate(pivots) if c < n]
    if len(var_pivots) < n:
        return None
    x = [ctx.zero()] * n
    for i, c in var_pivots:
        x[c] = work[i][-1]
    for row, rhs in zip(a, b):
        if not ctx.is_zero(dot([ctx.scalar(v) for v in row], x) - ctx.scalar(rhs)):
            return None
    return tuple(x)


def _null_space_vector(rows, ctx):
    n = len(rows[0])
    work, pivots = _eliminate([list(row) for row in rows], ctx)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    x = [ctx.zero()] * n
    x[free[0]] = ctx.one()
    for i, c in enumerate(pivots):
        x[c] = -work[i][free[0]]
    return tuple(x)


def _extreme_ray(sp, direction):
    ctx = sp.ctx
    evals = [dot(direction, v) for v in sp.vertices]
    if all(ctx.is_zero(e) for e in evals):
        return None
    if not all(ctx.ge(e, ctx.zero()) for e in evals):
        if not all(ctx.le(e, ctx.zero()) for e in evals):
            return None
        direction = tuple(-x for x in direction)
        evals = [-e for e in evals]
    top = max(evals)
    direction = tuple(x / top for x in direction)
    vanishing = tuple(j for j, e in enumerate(evals) if ctx.is_zero(e / top))
    if _rank([sp.vertices[j] for j in vanishing], ctx) != _affine_dim(sp):
        return None
    return DualRay(direction, vanishing)


def oracle_dual_rays(sp):
    ctx = sp.ctx
    if sp.summands:
        rays = []
        for s in sp.summands:
            for ray in oracle_dual_rays(s.space):
                direction = [ctx.zero()] * sp.ambient_dim
                for k, x in enumerate(ray.direction):
                    direction[s.coord_offset + k] = x
                rays.append(_extreme_ray(sp, tuple(direction)))
        return tuple(r for r in rays if r is not None)
    n = sp.n_vertices
    if n == _affine_dim(sp) + 1:  # a simplex
        return tuple(DualRay(_solve_unique(sp.vertices, [ctx.one() if j == i else ctx.zero()
                                                         for j in range(n)], ctx),
                             tuple(j for j in range(n) if j != i)) for i in range(n))
    found = []
    for subset in itertools.combinations(range(n), _affine_dim(sp)):
        direction = _null_space_vector([sp.vertices[i] for i in subset], ctx)
        ray = None if direction is None else _extreme_ray(sp, direction)
        if ray is not None and not any(all(ctx.eq(a, b) for a, b in zip(ray.direction, r.direction))
                                       for r in found):
            found.append(ray)
    return tuple(found)


def oracle_extreme_effects(sp):
    ctx = sp.ctx
    if sp.summands:
        blocks = [(s.space.zero_effect(),) + oracle_extreme_effects(s.space) + (s.space.unit,)
                  for s in sp.summands]
        return tuple(sum(combo, ()) for combo in itertools.product(*blocks))[1:-1]
    constraints = [(j, bound) for j in range(sp.n_vertices) for bound in (0, 1)]
    points = []
    for combo in itertools.combinations(constraints, sp.ambient_dim):
        e = _solve_unique([sp.vertices[j] for j, _ in combo], [ctx.scalar(b) for _, b in combo], ctx)
        if e is None or not sp.is_valid_effect(e) or ctx.eq(*sp.effect_range(e)):
            continue
        if not any(all(ctx.eq(a, b) for a, b in zip(e, p)) for p in points):
            points.append(e)
    return tuple(points)


def oracle_irreducibles(sp):
    ctx = sp.ctx
    columns = [r.direction for r in oracle_dual_rays(sp)]
    found = []
    for k in range(1, min(sp.ambient_dim, len(columns)) + 1):
        for combo in itertools.combinations(range(len(columns)), k):
            system = [[columns[j][c] for j in combo] for c in range(sp.ambient_dim)]
            coeff = _solve_unique(system, sp.unit, ctx)
            if coeff is not None and all(ctx.pos(c) for c in coeff):
                found.append(tuple(tuple(c * x for x in columns[j]) for j, c in zip(combo, coeff)))
    return tuple(found)


# ------------------------------------------------------------------ spaces
def octahedron(ctx):
    """The rational octahedron: affine dimension 3, triangular facets."""
    one, zero = ctx.one(), ctx.zero()
    vs = []
    for c in range(3):
        for s in (one, -one):
            v = [zero] * 3 + [one]
            v[c] = s
            vs.append(tuple(v))
    return StateSpace("polytopic", vertices=vs, unit=(zero,) * 3 + (one,), ctx=ctx,
                      label="octahedron")


def _planar(points, ctx, label):
    """The polygon with these (x, y) vertices, at height 1."""
    one = ctx.one()
    return StateSpace("polytopic", vertices=[(ctx.scalar(x), ctx.scalar(y), one) for x, y in points],
                      unit=(ctx.zero(), ctx.zero(), one), ctx=ctx, label=label)


def edge_midpoint_square(ctx):
    """The square plus its top edge's midpoint: three collinear vertices on
    one facet, so some triples of tight vertices are dependent."""
    return _planar([(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 1)], ctx, "edge-midpoint-square")


def irregular_pentagon(ctx):
    """A rational pentagon with no symmetry."""
    return _planar([(Fraction(x, 2), Fraction(y, 3))
                    for x, y in ((0, -2), (3, -1), (2, 2), (-1, 3), (-3, 0))],
                   ctx, "irregular-pentagon")


EXACT_SPACES = [pytest.param(lambda r=r: space_from_ref(r, EXACT), id=r)
                for r in ("classical:1", "classical:2", "classical:3", "classical:4", "square",
                          "dsum:square+classical:2")] + [
    pytest.param(lambda: padded_square(EXACT), id="padded-square"),
    pytest.param(lambda: cube3(EXACT), id="cube3"),
    pytest.param(lambda: octahedron(EXACT), id="octahedron"),
    pytest.param(lambda: edge_midpoint_square(EXACT), id="edge-midpoint-square"),
    pytest.param(lambda: irregular_pentagon(EXACT), id="irregular-pentagon"),
]
FLOAT_SPACES = [pytest.param(lambda n=n: make_polygon(n), id=f"polygon:{n}") for n in range(3, 10)] + [
    pytest.param(lambda: cube3(FLOAT), id="cube3"),
    pytest.param(lambda: octahedron(FLOAT), id="octahedron"),
    pytest.param(lambda: edge_midpoint_square(FLOAT), id="edge-midpoint-square"),
    pytest.param(lambda: irregular_pentagon(FLOAT), id="irregular-pentagon"),
]
# every space of ambient dimension 3 that the suite builds, on both backends
RAY_PATH_SPACES = [
    pytest.param(p.values[0], id=f"{p.id}-{backend}")
    for backend, params in (("exact", EXACT_SPACES), ("float", FLOAT_SPACES)) for p in params
    if p.values[0]().ambient_dim == 3
] + [pytest.param(lambda r=r: space_from_ref(r, FLOAT), id=f"{r}-float")
     for r in ("square", "classical:3", "polygon:10", "polygon:11", "polygon:12")]


def _close(a, b):
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


@pytest.mark.parametrize("make", EXACT_SPACES)
def test_exact_enumerations_match_the_per_subset_oracle(make):
    sp = make()  # repr tells a Fraction from an int of equal value
    assert repr(sp.dual_rays()) == repr(oracle_dual_rays(sp))
    assert repr(sp.extreme_effects()) == repr(oracle_extreme_effects(sp))
    if _affine_dim(sp) + 1 < sp.ambient_dim:  # the padded square: no rays generate its effects
        with pytest.raises(UnsupportedSpace):
            enumerate_irreducibles(sp)
        return
    assert repr(tuple(o.effects for o in enumerate_irreducibles(sp))) == repr(oracle_irreducibles(sp))


@pytest.mark.parametrize("make", FLOAT_SPACES)
def test_float_enumerations_match_the_per_subset_oracle(make):
    sp = make()
    got, want = sp.dual_rays(), oracle_dual_rays(sp)
    assert [r.vanishing_vertices for r in got] == [r.vanishing_vertices for r in want]
    assert all(_close(r.direction, s.direction) for r, s in zip(got, want))
    got, want = sp.extreme_effects(), oracle_extreme_effects(sp)
    assert len(got) == len(want) and all(_close(e, f) for e, f in zip(got, want))
    got, want = [o.effects for o in enumerate_irreducibles(sp)], oracle_irreducibles(sp)
    assert len(got) == len(want)
    assert all(len(a) == len(b) and all(_close(e, f) for e, f in zip(a, b))
               for a, b in zip(got, want))


@pytest.mark.parametrize("make", RAY_PATH_SPACES)
def test_ray_path_gives_the_walks_extreme_effects(make):
    sp = make()
    assert sp.ambient_dim == 3 and not sp.summands
    assert repr(sp.extreme_effects()) == repr(sp._extreme_points(sp._subset_walk()))


def test_walk_visits_independent_subsets_by_size_then_lexicographically():
    # four vectors in R^3 with v3 = v0 + v1: {0, 1, 3} and its supersets are dependent
    vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    got = [s for s, _ in independent_subsets(vs, 3, EXACT)]
    want = [s for k in (1, 2, 3) for s in itertools.combinations(range(4), k)
            if _rank([vs[i] for i in s], EXACT) == k]
    assert got == want


def test_walk_does_not_extend_a_subset_whose_span_holds_the_target():
    vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    got = {s: ech.coefficients() for s, ech in independent_subsets(vs, 3, EXACT, slots=3,
                                                                     target=(2, 3, 0))}
    assert got[(0, 1)] == (2, 3)
    assert (0, 1, 2) not in got          # an extension of (0, 1)
    assert got[(0, 2)] is None and got[(1, 2)] is None


def test_echelon_kernel_and_dual_basis():
    vs = [(EXACT.scalar(a), EXACT.scalar(b), EXACT.scalar(c)) for a, b, c in
          [(2, 1, 1), (1, 3, 1), (1, 1, 4)]]
    ech = Echelon(3, EXACT, slots=3)
    for v in vs[:2]:
        ech = ech.extend(v)
    k = ech.kernel()
    assert any(k) and all(dot(k, v) == 0 for v in vs[:2])
    assert ech.extend((3, 4, 2)) is None  # v0 + v1
    basis = ech.extend(vs[2]).dual_basis()
    assert [[dot(h, v) for v in vs] for h in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
