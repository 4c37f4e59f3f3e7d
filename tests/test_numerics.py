"""Numerics layer: rank, the LP engine, orthogonal-row counting, and the
exact/float backend agreement."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gptwb.compatibility import are_compatible, marginal
from gptwb.numerics import (
    EXACT,
    FLOAT,
    LPProblem,
    UnboundedObjective,
    count_orthogonal_rows,
    lp_solve,
    rank,
)
from gptwb.numerics.lp import _run_simplex
from gptwb.observables import observable
from gptwb.spaces import StateSpace


# ------------------------------------------------------------- local oracles
def oracle_rank(rows):
    """Independent exact elimination used as the rank oracle."""
    work = [[Fraction(x).limit_denominator(10**12) if isinstance(x, float) else Fraction(x)
             for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * v for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def oracle_orthogonal_rows(rows, eps=1e-9):
    """Exhaustive maximum over all row subsets with pairwise disjoint supports."""
    supports = [frozenset(j for j, v in enumerate(r) if abs(v) > eps) for r in rows]
    best = 0
    for size in range(len(rows), 0, -1):
        for combo in itertools.combinations(range(len(rows)), size):
            if all(not (supports[a] & supports[b])
                   for a, b in itertools.combinations(combo, 2)):
                return size
    return best


# --------------------------------------------------------------------- rank
def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_uniform():
    assert rank([[0.25] * 4] * 4) == 1


def test_rank_product_of_thin_factors():
    rng = random.Random(7)
    a = [[rng.randint(1, 9) for _ in range(2)] for _ in range(4)]
    b = [[rng.randint(1, 9) for _ in range(6)] for _ in range(2)]
    prod = [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(6)] for i in range(4)]
    assert oracle_rank(prod) == 2
    assert rank([[float(v) for v in row] for row in prod]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_rank_submultiplicative(n, k, m, seed):
    rng = random.Random(seed)
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    assert rank(prod) <= min(rank(a), rank(b))


# ----------------------------------------------------------------------- lp
def test_lp_box_maximum():
    res = lp_solve(LPProblem(n=1, objective=[1], bounds=[(0, 1)]))
    assert res.feasible and abs(res.x[0] - 1) < 1e-9 and abs(res.value - 1) < 1e-9


def test_lp_infeasible_interval():
    res = lp_solve(LPProblem(n=1, ge=[([1], 1), ([-1], 0)]))
    assert not res.feasible


def test_lp_unbounded_raises():
    with pytest.raises(UnboundedObjective):
        lp_solve(LPProblem(n=1, objective=[1], bounds=[(0, None)]))


def test_lp_witness_is_deterministic():
    p1 = LPProblem(n=3, objective=[1, 1, 0],
                   ge=[([-1, -1, -1], -1)], bounds=[(0, None)] * 3)
    p2 = LPProblem(n=3, objective=[1, 1, 0],
                   ge=[([-1, -1, -1], -1)], bounds=[(0, None)] * 3)
    assert lp_solve(p1).x == lp_solve(p2).x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lp_witness_resubstitution(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(1, 4)
    p = LPProblem(n=n, objective=[rng.randint(-3, 3) for _ in range(n)],
                  bounds=[(0, rng.randint(1, 4)) for _ in range(n)])
    rows = []
    for _ in range(m):
        rows.append([rng.randint(-2, 2) for _ in range(n)])
        p.add_ge(rows[-1], -rng.randint(0, 5))
    res = lp_solve(p)
    if not res.feasible:
        return
    for (row, rhs) in p.ge:
        assert sum(c * x for c, x in zip(row, res.x)) >= rhs - 1e-9
    for x, (lo, hi) in zip(res.x, p.bounds):
        assert lo - 1e-9 <= x <= hi + 1e-9


def test_lp_equality_system_with_free_variables():
    res = lp_solve(LPProblem(n=2, objective=[1, 0], eq=[([1, 1], 1), ([1, -1], 0)]))
    assert res.feasible
    assert abs(res.x[0] - 0.5) < 1e-9 and abs(res.x[1] - 0.5) < 1e-9


def test_lp_redundant_equalities():
    p = LPProblem(n=2, objective=[1, 0], eq=[([1, 1], 1), ([1, 1], 1), ([2, 2], 2)],
                  bounds=[(0, None), (0, None)])
    res = lp_solve(p)
    assert res.feasible and abs(res.value - 1) < 1e-9


def test_lp_unconstrained_one_sided_optimum():
    res = lp_solve(LPProblem(n=1, objective=[-1], bounds=[(-2, None)]))
    assert res.feasible and res.x == (-2,) and abs(res.value - 2) < 1e-12


def test_lp_against_reference_solver():
    """Cross-check status and optimum against an independent solver when one
    is installed; skipped otherwise."""
    np = pytest.importorskip("numpy")
    scipy_opt = pytest.importorskip("scipy.optimize")

    rng = random.Random(321)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        bounds = []
        for _ in range(n):
            kind = rng.randint(0, 3)
            if kind == 0:
                bounds.append((None, None))
            elif kind == 1:
                bounds.append((rng.randint(-3, 0), None))
            elif kind == 2:
                bounds.append((None, rng.randint(0, 3)))
            else:
                lo = rng.randint(-3, 0)
                bounds.append((lo, lo + rng.randint(0, 4)))
        p = LPProblem(n=n, bounds=list(bounds))
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for _ in range(rng.randint(0, 4)):
            row = [rng.randint(-3, 3) for _ in range(n)]
            rhs = rng.randint(-4, 4)
            if rng.random() < 0.5:
                p.add_eq(row, rhs)
                a_eq.append(row)
                b_eq.append(rhs)
            else:
                p.add_ge(row, rhs)
                a_ub.append([-c for c in row])
                b_ub.append(-rhs)
        obj = [rng.randint(-3, 3) for _ in range(n)]
        p.objective = obj
        try:
            mine = lp_solve(p)
            status = "opt" if mine.feasible else "infeas"
        except UnboundedObjective:
            status = "unbounded"
        ref = scipy_opt.linprog(
            [-c for c in obj],
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds, method="highs", options={"presolve": False})
        want = {0: "opt", 2: "infeas", 3: "unbounded"}.get(ref.status, "other")
        assert status == want
        if status == "opt":
            assert abs(float(mine.value) - (-ref.fun)) < 1e-7
        checked += 1
    assert checked == 150


# ------------------------------------------------- anti-cycling, determinism
# Beale (1955): minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to
#   1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0,  1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0,
#   x6 <= 1,  x >= 0.  Optimum -1/20 at x4 = 1/25, x6 = 1.
BEALE_COST = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)]
BEALE_ROWS = [([Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9)], 0),
              ([Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3)], 0),
              ([0, 0, 1, 0], 1)]
BACKENDS = [(EXACT, Fraction), (FLOAT, float)]


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_lp_beale_reaches_optimum(ctx, conv):
    p = LPProblem(n=4, objective=[-conv(c) for c in BEALE_COST],
                  ge=[([-conv(v) for v in row], -conv(b)) for row, b in BEALE_ROWS],
                  bounds=[(0, None)] * 4)
    res = lp_solve(p, ctx)
    assert res.feasible and abs(res.value - Fraction(1, 20)) <= 1e-12
    assert abs(res.x[0] - Fraction(1, 25)) <= 1e-12 and abs(res.x[2] - 1) <= 1e-12


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_simplex_beale_tableau_leaves_the_cycle(ctx, conv):
    """From the slack basis, most-negative pricing with lowest-index ties
    cycles on Beale's tableau; the Bland fallback must end at the optimum."""
    tableau = [[conv(v) for v in row + [int(i == k) for k in range(3)] + [b]]
               for i, (row, b) in enumerate(BEALE_ROWS)]
    basis = [4, 5, 6]
    cost = [conv(c) for c in BEALE_COST] + [conv(0)] * 3
    assert _run_simplex(tableau, basis, cost, 3, 7, ctx)
    y = [0] * 7
    for i, b in enumerate(basis):
        y[b] = tableau[i][-1]
    assert abs(sum(c * v for c, v in zip(cost, y)) + Fraction(1, 20)) <= 1e-12


def rational_hexagon(ctx):
    """Point-symmetric hexagon with rational vertices (affine image of the
    regular one), usable on both backends."""
    vs = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
    return StateSpace("polytopic", vertices=vs, unit=(0, 0, 1), ctx=ctx,
                      label="hexagon", psym=True)


def hexagon_triple(space, t):
    """Three unbiased dichotomic observables along (1,0), (0,1), (1,-1),
    scaled by t; jointly measurable exactly for t <= 2/3."""
    obs = []
    for ax, ay in ((1, 0), (0, 1), (1, -1)):
        e = tuple(space.ctx.scalar(x) for x in (t * ax / 2, t * ay / 2, Fraction(1, 2)))
        obs.append(observable(space, [e, tuple(u - x for u, x in zip(space.unit, e))]))
    return obs


@pytest.mark.parametrize("t", [Fraction(3, 5), Fraction(3, 4)])
def test_hexagon_triple_joint_lp_backends_agree_and_repeat(t):
    """The joint-observable LP (every vertex row has right-hand side 0, so it
    is degenerate): float and exact verdicts agree and repeated solves
    return identical witnesses."""
    verdicts = []
    for ctx in (EXACT, FLOAT):
        obs = hexagon_triple(rational_hexagon(ctx), t)
        joint = are_compatible(obs)
        assert joint == are_compatible(obs)
        verdicts.append(joint is not None)
        if joint is not None:
            for i, o in enumerate(obs):
                for got, want in zip(marginal(joint, i).effects, o.effects):
                    assert all(ctx.eq(g, w) for g, w in zip(got, want))
    assert verdicts == [t <= Fraction(2, 3)] * 2


def test_hexagon_triple_boundary_is_exactly_compatible():
    assert are_compatible(hexagon_triple(rational_hexagon(EXACT), Fraction(2, 3))) is not None


# ------------------------------------------------------------ orthogonal rows
def test_orthogonal_rows_identity():
    assert count_orthogonal_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_orthogonal_rows_uniform():
    assert count_orthogonal_rows([[0.25] * 4] * 4) == 1


def test_orthogonal_rows_mixed_example():
    rows = [[0.5, 0.5, 0], [0, 0, 1], [0.3, 0.3, 0.4]]
    assert oracle_orthogonal_rows(rows) == 2
    assert count_orthogonal_rows(rows) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
def test_orthogonal_rows_match_bruteforce(seed, n, m):
    rng = random.Random(seed)
    rows = [[rng.choice([0, 0, 0, rng.random()]) for _ in range(m)] for _ in range(n)]
    assert count_orthogonal_rows(rows) == oracle_orthogonal_rows(rows)


# ------------------------------------------------------- backend coherence
def test_exact_float_agree_on_rational_instances():
    """1000 random small rational instances: rank and LP feasibility agree."""
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
               for _ in range(n)]
        assert rank(mat, EXACT) == rank([[float(x) for x in row] for row in mat], FLOAT)
        if trial % 2 == 0:
            nv = rng.randint(1, 3)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nv)]
                    for _ in range(rng.randint(1, 3))]
            rhss = [Fraction(rng.randint(-3, 3)) for _ in rows]
            pe = LPProblem(n=nv, ge=[(r, b) for r, b in zip(rows, rhss)],
                           bounds=[(Fraction(0), Fraction(2))] * nv)
            pf = LPProblem(n=nv, ge=[([float(x) for x in r], float(b))
                                     for r, b in zip(rows, rhss)],
                           bounds=[(0.0, 2.0)] * nv)
            assert lp_solve(pe, EXACT).feasible == lp_solve(pf, FLOAT).feasible
