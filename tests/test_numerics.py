"""Numerics layer: rank, the LP engine, orthogonal-row counting, and the
exact/float backend agreement."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gptwb.communication import canonical_reduce, comm_matrix, space_dims, ultraweak_leq
from gptwb.compatibility import (
    are_compatible,
    dichotomic_compat_g,
    dichotomic_compat_margin,
    marginal,
)
from gptwb.numerics import (
    EXACT,
    FLOAT,
    Context,
    Echelon,
    LPProblem,
    MIN_FLOAT_EPS,
    UnboundedObjective,
    lp_solve,
    mat_mul,
    orthogonal_rows,
    rank,
)
import gptwb.numerics.lp as lp_engine
from gptwb.numerics.lp import _run_simplex
from gptwb.observables import apply_postprocessing, observable
from gptwb.postprocess import find_postprocessing
from gptwb.simulation import effect_in_noise_class, is_effectively_dichotomic, is_simulable
from gptwb.spaces import StateSpace, make_classical, make_polygon, make_square, space_from_ref

from conftest import (
    count_pivots,
    padded_square,
    random_observable,
    random_rational_observable,
    random_stochastic,
    sparse,
)


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
    """Exhaustive search over all row subsets with pairwise disjoint supports:
    the lexicographically first of the largest ones."""
    supports = [frozenset(j for j, v in enumerate(r) if abs(v) > eps) for r in rows]
    for size in range(len(rows), 0, -1):
        for combo in itertools.combinations(range(len(rows)), size):
            if all(not (supports[a] & supports[b])
                   for a, b in itertools.combinations(combo, 2)):
                return combo
    return ()


# ------------------------------------------------------------------ context
def test_exact_context_compares_with_the_integer_zero():
    third, tiny = Fraction(1, 3), Fraction(1, 10**30)
    assert EXACT.eps == 0 and isinstance(EXACT.eps, int)
    assert EXACT.gt(third + tiny, third) and not EXACT.eq(third, third + tiny)
    assert not EXACT.is_zero(tiny) and EXACT.is_zero(Fraction(0))
    assert EXACT.ceil(third) == 1 and EXACT.ceil(Fraction(-1, 3)) == 0
    for eps in (1e-9, 0.0, Fraction(1, 10**9)):
        with pytest.raises(ValueError):
            Context("exact", eps)


@pytest.mark.parametrize("backend, eps", [
    ("float", -1e-9), ("float", math.nan), ("float", math.inf), ("double", 1e-9),
    ("float", 0.0), ("float", MIN_FLOAT_EPS / 10),
])
def test_context_rejects_a_bad_tolerance_or_backend(backend, eps):
    """A tolerance that is not finite or is below MIN_FLOAT_EPS, or a
    backend other than "float" or "exact", fails where the context is made,
    naming the cause."""
    cause = f"tolerance must be finite and >= {MIN_FLOAT_EPS}" if backend == "float" else "backend"
    with pytest.raises(ValueError, match=cause):
        Context(backend, eps)


def test_scalar_converts_without_rounding():
    """Context.scalar is lossless on the exact backend: a float becomes its
    binary value, a string its rational value, and a Fraction is returned
    as it is; both backends parse fraction strings."""
    third = Fraction(1, 3)
    assert EXACT.scalar(0.1) == Fraction(0.1) != Fraction(1, 10)
    assert EXACT.scalar("1/3") == third and EXACT.scalar("0.25") == Fraction(1, 4)
    assert EXACT.scalar(third) is third
    assert type(EXACT.scalar(2)) is Fraction
    assert FLOAT.scalar("1/3") == 1 / 3 and FLOAT.scalar("0.25") == 0.25
    assert FLOAT.scalar(third) == 1 / 3


def test_float_context_keeps_its_tolerance_band():
    eps = FLOAT.eps
    for b in (0.0, 1.0, -2.5):
        for d in (0.0, eps / 2, eps, 2 * eps, 1e-3):
            for a in (b + d, b - d):
                assert FLOAT.eq(a, b) == (abs(a - b) <= eps)
                assert FLOAT.le(a, b) == (a <= b + eps)
                assert FLOAT.ge(a, b) == (a >= b - eps)
                assert FLOAT.gt(a, b) == (a > b + eps)
                assert FLOAT.is_zero(a - b) == (abs(a - b) <= eps)
                assert FLOAT.ceil(a) == math.ceil(a - eps)
    assert FLOAT.eq(1.0, 1.0 + eps / 2) and not FLOAT.eq(1.0, 1.0 + 2 * eps)
    assert FLOAT.ceil(2 + eps / 2) == 2 and FLOAT.ceil(2 + 2 * eps) == 3


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


def _product(rng, n, k, m):
    """An n x m integer matrix of rank at most k, as a product of factors."""
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.integers(0, 10**6))
def test_rank_matches_the_oracle(n, m, k, seed):
    rng = random.Random(seed)
    rational = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
    assert rank(rational, EXACT) == oracle_rank(rational)
    low = _product(rng, n, k, m)
    scaled = [[Fraction(v, 3) for v in row] for row in low]
    assert rank(scaled, EXACT) == oracle_rank(scaled) <= k
    floats = [[v / 3 for v in row] for row in low]
    assert rank(floats, FLOAT) == oracle_rank(low)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.booleans(),
       st.integers(0, 10**6))
def test_solve_unique_matches_the_oracle(m, n, k, consistent, seed):
    """a is m x n of rank at most k; b lies in its column space or is drawn
    at random.  The solution is unique exactly when the oracle ranks of a and
    of (a | b) are both n.  An ``Echelon`` form of a's columns exists on
    each backend exactly when a has rank n, and then one form, built once
    per backend, solves b and three more right-hand sides, two of them
    drawn at random: each answer is None exactly when that b is outside the
    column space, and otherwise solves the system (exactly, or within 1e-9
    of the exact one in floats)."""
    rng = random.Random(seed)
    a = _product(rng, m, k, n)

    def draw(consistent):
        if consistent:
            x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            return [sum(r * x for r, x in zip(row, x0)) for row in a]
        return [Fraction(rng.randint(-5, 5)) for _ in range(m)]

    def in_span(b):
        return oracle_rank([row + [rhs] for row, rhs in zip(a, b)]) == oracle_rank(a)

    b = draw(consistent)
    exact = Echelon.of([[Fraction(v) for v in col] for col in zip(*a)], m, EXACT, slots=n)
    floats = Echelon.of([[float(v) for v in col] for col in zip(*a)], m, FLOAT, slots=n)
    assert (exact is not None) == (floats is not None) == (oracle_rank(a) == n)
    if exact is None:
        return
    for b in (b, draw(True), draw(False), draw(False)):
        x, xf = exact.solve(b), floats.solve([float(v) for v in b])
        assert (x is not None) == (xf is not None) == in_span(b)
        if x is not None:
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
            assert all(abs(u - v) <= 1e-9 for u, v in zip(xf, x))


# ----------------------------------------------------------------------- lp
BACKENDS = [(EXACT, Fraction), (FLOAT, float)]


def test_lp_box_maximum():
    res = lp_solve(LPProblem(n=1, objective=[(0, 1)], ge=[([(0, -1)], -1)]))
    assert res.feasible and abs(res.x[0] - 1) < 1e-9 and abs(res.value - 1) < 1e-9


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_lp_infeasible_interval(ctx, conv):
    res = lp_solve(LPProblem(n=1, ge=[([(0, 1)], 1), ([(0, -1)], 0)]), ctx)
    assert not res.feasible


def test_lp_unbounded_raises():
    with pytest.raises(UnboundedObjective):
        lp_solve(LPProblem(n=1, objective=[(0, 1)]))


def test_lp_witness_is_deterministic():
    p1 = LPProblem(n=3, objective=[(0, 1), (1, 1)],
                   ge=[([(0, -1), (1, -1), (2, -1)], -1)])
    p2 = LPProblem(n=3, objective=[(0, 1), (1, 1)],
                   ge=[([(0, -1), (1, -1), (2, -1)], -1)])
    assert lp_solve(p1).x == lp_solve(p2).x


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lp_witness_resubstitution(ctx, conv, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(1, 4)
    p = LPProblem(n=n, objective=sparse([rng.randint(-3, 3) for _ in range(n)]))
    for j in range(n):  # x_j <= hi
        p.add_ge([(j, -1)], -rng.randint(1, 4))
    for _ in range(m):
        p.add_ge(sparse([rng.randint(-2, 2) for _ in range(n)]), -rng.randint(0, 5))
    res = lp_solve(p, ctx)
    if not res.feasible:
        return
    tol = ctx.eps  # the integer 0 on the exact backend: exact re-substitution
    for (row, rhs) in p.ge:
        assert sum(c * res.x[j] for j, c in row) >= rhs - tol
    assert all(x >= -tol for x in res.x)


def test_lp_equality_system_with_free_variables():
    res = lp_solve(LPProblem(n=2, objective=[(0, 1)],
                             eq=[([(0, 1), (1, 1)], 1), ([(0, 1), (1, -1)], 0)]))
    assert res.feasible
    assert abs(res.x[0] - 0.5) < 1e-9 and abs(res.x[1] - 0.5) < 1e-9


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_lp_redundant_equalities(ctx, conv):
    eq = [([(0, 1), (1, 1)], 1), ([(0, 1), (1, 1)], 1), ([(0, 2), (1, 2)], 2)]
    res = lp_solve(LPProblem(n=2, objective=[(0, 1)], eq=eq), ctx)
    assert res.feasible and abs(res.value - 1) <= ctx.eps
    # one right-hand side moved by 1/1000: no longer redundant but inconsistent
    eq[1] = ([(0, 1), (1, 1)], 1 + conv(Fraction(1, 1000)))
    assert not lp_solve(LPProblem(n=2, eq=eq), ctx).feasible


def _random_lp(rng):
    """A random LP in both fields: (float problem, exact problem, the data
    for scipy's linprog).  x >= 0, about half the variables with an upper
    bound posed as a >= row, and up to 7 more rows; a >= row's right-hand
    side is more often zero or negative, so that many start on their
    slacks."""
    n = rng.randint(1, 5)
    eq, ge = [], []
    for j in range(n):
        if rng.random() < 0.5:  # -x_j >= -hi
            ge.append(([-int(k == j) for k in range(n)], -rng.randint(0, 4)))
    for _ in range(rng.randint(0, 7)):
        row = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.3:
            eq.append((row, rng.randint(-4, 4)))
        else:
            ge.append((row, rng.choice([0, 0, rng.randint(-4, -1), rng.randint(-4, 4)])))
    obj = [rng.randint(-3, 3) for _ in range(n)]
    problems = [LPProblem(n=n, objective=sparse([conv(c) for c in obj]),
                          eq=[(sparse([conv(c) for c in row]), conv(b)) for row, b in eq],
                          ge=[(sparse([conv(c) for c in row]), conv(b)) for row, b in ge])
                for conv in (float, Fraction)]
    ref = dict(c=[-c for c in obj], bounds=(0, None),
               A_ub=[[-c for c in row] for row, _ in ge] or None,
               b_ub=[-b for _, b in ge] or None,
               A_eq=[row for row, _ in eq] or None, b_eq=[b for _, b in eq] or None)
    return problems, ref


def _status(problem, ctx):
    try:
        res = lp_solve(problem, ctx)
    except UnboundedObjective:
        return "unbounded", None
    return ("opt", res.value) if res.feasible else ("infeas", None)


def test_lp_against_reference_solver():
    """Cross-check status and optimum against an independent solver when one
    is installed; skipped otherwise."""
    scipy_opt = pytest.importorskip("scipy.optimize")

    rng = random.Random(321)
    for _ in range(300):
        (p_float, _), ref = _random_lp(rng)
        status, value = _status(p_float, FLOAT)
        res = scipy_opt.linprog(method="highs", options={"presolve": False}, **ref)
        assert status == {0: "opt", 2: "infeas", 3: "unbounded"}.get(res.status, "other")
        if status == "opt":
            assert abs(value + res.fun) < 1e-7


def test_lp_exact_backend_agrees_with_floats():
    """The random LPs of the reference cross-check, solved in both fields:
    the same status, and optima within 1e-9."""
    rng = random.Random(321)
    statuses = set()
    for _ in range(300):
        (p_float, p_exact), _ = _random_lp(rng)
        status, value = _status(p_float, FLOAT)
        exact_status, exact_value = _status(p_exact, EXACT)
        assert status == exact_status
        if status == "opt":
            assert isinstance(exact_value, Fraction) and abs(value - exact_value) < 1e-9
        statuses.add(status)
    assert statuses == {"opt", "infeas", "unbounded"}


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_lp_feasible_origin_makes_no_phase1_pivot(ctx, conv, monkeypatch):
    """Every >= row holds at the origin, so each starts on its slack, one
    with a zero right-hand side included: phase 1 makes no pivot, and one
    violated row brings phase 1 back.  The LP is max x0 + 2 x1 + x2
    subject to x0 + x1 <= 3, x0 - 2 x1 + x2 >= -4, x2 >= x1, x1 + x2 <= 4,
    x0 >= 0, -1 <= x1 <= 1 and x2 <= 5, with optimum 7 (at x = (2, 1, 3),
    say), posed on y = (x0, x1 + 1, 5 - x2) >= 0."""
    counts = count_pivots(monkeypatch)
    ge = [([(0, -1), (1, -1)], -4), ([(0, 1), (1, -2), (2, -1)], conv(-11)),
          ([(1, -1), (2, -1)], -6), ([(1, -1)], conv(-2)), ([(2, 1), (1, -1)], conv(0))]
    p = LPProblem(n=3, objective=[(0, 1), (1, 2), (2, -1)], ge=list(ge))
    res = lp_solve(p, ctx)
    assert counts[1] == 0 and counts[2] > 0
    assert res.feasible and abs(res.value + 3 - 7) <= 1e-12
    counts[2] = 0
    assert lp_solve(LPProblem(n=3, ge=list(ge)), ctx).feasible
    assert counts == {1: 0, 2: 0}
    lp_solve(LPProblem(n=3, ge=ge + [([(0, 1)], 1)]), ctx)
    assert counts[1] > 0


def _split_and_shuffle(rows, rng):
    """Each (column, coefficient) pair split into two that add up to it, and
    the pairs of each row shuffled."""
    out = []
    for row in rows:
        row = [t for j, c in row for t in ((j, c - 1), (j, 1))]
        rng.shuffle(row)
        out.append(row)
    return out


def test_lp_row_order_and_repeated_columns_do_not_matter_on_exact():
    """On the exact backend a row is a sum of its pairs: shuffling them and
    listing a column twice (its coefficient split in two) gives an identical
    LPResult, or the same UnboundedObjective, on the random LPs."""
    rng = random.Random(321)
    shuffle_rng = random.Random(5)
    for _ in range(300):
        (_, p), _ = _random_lp(rng)
        eq = _split_and_shuffle([row for row, _ in p.eq], shuffle_rng)
        ge = _split_and_shuffle([row for row, _ in p.ge], shuffle_rng)
        q = LPProblem(n=p.n, objective=_split_and_shuffle([p.objective], shuffle_rng)[0],
                      eq=[(row, b) for row, (_, b) in zip(eq, p.eq)],
                      ge=[(row, b) for row, (_, b) in zip(ge, p.ge)])
        try:
            want = lp_solve(p, EXACT)
        except UnboundedObjective:
            with pytest.raises(UnboundedObjective):
                lp_solve(q, EXACT)
            continue
        assert lp_solve(q, EXACT) == want


def _record_lps(monkeypatch) -> list:
    """Patch lp_solve wherever a gptwb module binds it; returns the list of
    (calling function, problem) pairs that it fills."""
    seen = []

    def recording(problem, *args):
        seen.append((sys._getframe(1).f_code.co_name, problem))
        return lp_solve(problem, *args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gptwb") and getattr(mod, "lp_solve", None) is lp_solve:
            monkeypatch.setattr(mod, "lp_solve", recording)
    return seen


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_models_pose_sorted_nonzero_terms(ctx, monkeypatch):
    """Every LP that the relation entry points pose lists each row's and the
    objective's columns at most once, in increasing order, with nonzero
    coefficients, so that the tableau is the one the dense rows built and
    every pair is a nonzero of the LP."""
    seen = _record_lps(monkeypatch)
    rng = random.Random(17)
    obs = random_observable if ctx is FLOAT else random_rational_observable
    spaces = [make_square(ctx), padded_square(ctx), make_classical(3, ctx)]
    if ctx is FLOAT:
        spaces.append(make_polygon(6))
    for sp in spaces:
        a, a2 = obs(sp, 3, rng), obs(sp, 3, rng)
        b1, b2 = obs(sp, 2, rng), obs(sp, 2, rng)
        find_postprocessing(a, b1)
        is_simulable(a2, [a, b1])
        are_compatible([a, b1, b2])
        dichotomic_compat_margin(b1, b2)
        dichotomic_compat_g(b1, b2)
        sp.contains_state(tuple(sum(c) / sp.n_vertices for c in zip(*sp.vertices)))
        space_dims(sp)
    is_effectively_dichotomic(random_observable(make_polygon(6), 4, rng))
    c = comm_matrix(mat_mul(random_stochastic(4, 2, rng), random_stochastic(2, 4, rng)))
    canonical_reduce(c)
    d = comm_matrix(mat_mul(mat_mul(random_stochastic(3, 4, rng), c.matrix),
                            random_stochastic(4, 3, rng)))
    ultraweak_leq(d, c)
    assert {"is_simulable", "are_compatible", "in_convex_hull", "_dichotomic_margin_lp",
            "_lambda_max_space", "_perfectly_distinguishable", "_lad_fit"} <= {f for f, _ in seen}
    for _, p in seen:
        rows = [row for row, _ in p.eq + p.ge]
        if p.objective is not None:
            rows.append(p.objective)
        for row in rows:
            cols = [j for j, _ in row]
            assert cols == sorted(set(cols)) and all(0 <= j < p.n for j in cols)
            assert all(c != 0 for _, c in row)


# ------------------------------------------------- anti-cycling, determinism
# Beale (1955): minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to
#   1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0,  1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0,
#   x6 <= 1,  x >= 0.  Optimum -1/20 at x4 = 1/25, x6 = 1.
BEALE_COST = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)]
BEALE_ROWS = [([Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9)], 0),
              ([Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3)], 0),
              ([0, 0, 1, 0], 1)]


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_lp_beale_reaches_optimum(ctx, conv):
    p = LPProblem(n=4, objective=sparse([-conv(c) for c in BEALE_COST]),
                  ge=[(sparse([-conv(v) for v in row]), -conv(b)) for row, b in BEALE_ROWS])
    res = lp_solve(p, ctx)
    assert res.feasible and abs(res.value - Fraction(1, 20)) <= 1e-12
    assert abs(res.x[0] - Fraction(1, 25)) <= 1e-12 and abs(res.x[2] - 1) <= 1e-12


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_simplex_ratio_tie_leaves_the_lowest_basic_index(ctx, conv):
    """Column 0 enters and both rows tie in the ratio test at 1: the row
    whose basic variable has the lower index (2, not 3) leaves."""
    tableau = [[conv(v) for v in row] for row in ([1, 0, 1, 0, 1], [1, 1, 0, 1, 1])]
    basis = [2, 3]
    assert _run_simplex(tableau, basis, [conv(c) for c in (-1, 0, 0, 0)], ctx)
    assert basis == [0, 3]


def _beale_tableau(conv, rows=BEALE_ROWS):
    """Beale's rows (or ``rows``) with their slacks, columns 4 on, as the
    starting basis, and the cost over every column."""
    m = len(rows)
    tableau = [[conv(v) for v in row + [int(i == k) for k in range(m)] + [b]]
               for i, (row, b) in enumerate(rows)]
    return tableau, [4 + i for i in range(m)], [conv(c) for c in BEALE_COST] + [conv(0)] * m


@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_simplex_beale_tableau_leaves_the_cycle(ctx, conv):
    """From the slack basis, most-negative pricing with lowest-index ties
    cycles on Beale's tableau; the Bland fallback must end at the optimum."""
    tableau, basis, cost = _beale_tableau(conv)
    assert _run_simplex(tableau, basis, cost, ctx)
    y = [0] * 7
    for i, b in enumerate(basis):
        y[b] = tableau[i][-1]
    assert abs(sum(c * v for c, v in zip(cost, y)) + Fraction(1, 20)) <= 1e-12


@pytest.mark.parametrize("rows, pivots", [
    (BEALE_ROWS, [(0, 0), (1, 1), (0, 2), (1, 3), (2, 0), (1, 4)]),
    (BEALE_ROWS + [([0, 0, 0, 1], 1)], [(0, 0), (1, 1), (0, 2), (1, 3), (0, 4), (1, 0), (2, 2)]),
], ids=["m=3", "m=4"])
@pytest.mark.parametrize("ctx,conv", BACKENDS, ids=["exact", "float"])
def test_simplex_switches_to_bland_after_m_plus_one_degenerate_pivots(ctx, conv, rows, pivots,
                                                                      monkeypatch):
    """The (row, column) of every pivot from the slack basis.  Dantzig's
    rule makes the first m + 1 pivots of Beale's cycle, all degenerate;
    then Bland's rule (the first improving column) pivots until one makes
    progress, and Dantzig's rule ends the run.  With m = 3 Bland's first
    pivot, (2, 0), makes progress at once.  There Bland's and Dantzig's
    fourth pivots coincide, so the bound x7 <= 1 adds a fourth row: its
    fifth pivot is still Dantzig's, and Bland's (1, 0) and (2, 2) follow.
    Starting Bland a pivot earlier or later changes a sequence."""
    seen = []
    pivot = lp_engine._pivot
    monkeypatch.setattr(lp_engine, "_pivot",
                        lambda tableau, basis, r, c, ctx: seen.append((r, c))
                        or pivot(tableau, basis, r, c, ctx))
    tableau, basis, cost = _beale_tableau(conv, rows)
    assert _run_simplex(tableau, basis, cost, ctx)
    assert seen == pivots


def rational_hexagon(ctx):
    """Point-symmetric hexagon with rational vertices (affine image of the
    regular one), usable on both backends."""
    vs = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
    return StateSpace("polytopic", vertices=vs, unit=(0, 0, 1), ctx=ctx,
                      label="hexagon")


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
    assert len(orthogonal_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_orthogonal_rows_uniform():
    assert len(orthogonal_rows([[0.25] * 4] * 4)) == 1


def test_orthogonal_rows_mixed_example():
    rows = [[0.5, 0.5, 0], [0, 0, 1], [0.3, 0.3, 0.4]]
    assert len(oracle_orthogonal_rows(rows)) == 2
    assert len(orthogonal_rows(rows)) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
def test_orthogonal_rows_match_bruteforce(seed, n, m):
    rng = random.Random(seed)
    rows = [[rng.choice([0, 0, 0, rng.random()]) for _ in range(m)] for _ in range(n)]
    got = orthogonal_rows(rows)
    assert len(got) == len(oracle_orthogonal_rows(rows))
    assert all(rows[a][j] == 0 or rows[b][j] == 0
               for a, b in itertools.combinations(got, 2) for j in range(m))
    assert got == oracle_orthogonal_rows(rows)


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
            box = [([(j, -1)], -2) for j in range(nv)]  # x <= 2
            pe = LPProblem(n=nv, ge=[(sparse(r), b) for r, b in zip(rows, rhss)] + box)
            pf = LPProblem(n=nv, ge=[(sparse([float(x) for x in r]), float(b))
                                     for r, b in zip(rows, rhss)] + box)
            assert lp_solve(pe, EXACT).feasible == lp_solve(pf, FLOAT).feasible


def test_exact_backend_refuses_an_observable_valid_only_up_to_rounding():
    """Float effects enter the exact field at their binary value: the first
    of three random square observables then misses the unit by about 5e-17,
    so building it raises instead of reaching an "incompatible" verdict,
    while floats find a joint observable for all three."""
    with pytest.raises(ValueError, match="unit functional"):
        random_observable(make_square(EXACT), 2, random.Random(3))
    rng = random.Random(3)
    sq = make_square(FLOAT)
    assert are_compatible([random_observable(sq, 2, rng) for _ in range(3)]) is not None


def backend_verdicts(spe, spf, rng):
    """Post-processing, simulation, compatibility and effect noise-class
    verdicts on an exact space and on its float twin spf, for small-denominator
    rational observables: random ones, a planted post-processing and
    dichotomic ones built from extreme effects mixed with the fair coin."""
    u = spe.unit

    def sharp():
        f, s = rng.choice(spe.extreme_effects()), Fraction(rng.randint(2, 4), 4)
        f = tuple(s * x + (1 - s) * y / 2 for x, y in zip(f, u))
        return observable(spe, (f, tuple(y - x for x, y in zip(f, u))))

    a_e = random_rational_observable(spe, rng.randint(2, 3), rng)
    b_e, d_e = sharp(), sharp()
    nu = [[Fraction(w, 4), 1 - Fraction(w, 4)] for w in (rng.randint(0, 4) for _ in a_e.effects)]
    c_e = apply_postprocessing(nu, a_e)
    t = Fraction(rng.randint(1, 4), 4)
    verdicts = []
    for sp in (spe, spf):
        a, b, c, d = (observable(sp, o.effects) for o in (a_e, b_e, c_e, d_e))
        verdicts.append((find_postprocessing(a, c) is not None,
                         find_postprocessing(b, a) is not None,
                         is_simulable(a, [b, d]) is not None,
                         are_compatible([b, d]) is not None,
                         are_compatible([a, b, d]) is not None,
                         effect_in_noise_class(sp, a.effects[0], t),
                         effect_in_noise_class(sp, b.effects[0], t)))
    assert verdicts[0][0]  # c is a post-processing of a by construction
    return verdicts


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(["classical:1", "classical:2", "classical:3", "square"]),
                min_size=2, max_size=2),
       st.integers(0, 10**6))
def test_exact_float_agree_on_direct_sums(parts, seed):
    """Both backends give the same verdicts on a direct sum of small spaces."""
    spe = space_from_ref("dsum:" + "+".join(parts), EXACT)
    exact, floats = backend_verdicts(spe, space_from_ref(spe.label, FLOAT), random.Random(seed))
    assert exact == floats


SMALL_RATIONALS = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-6, 7)})


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(SMALL_RATIONALS), min_size=4, max_size=6, unique=True),
       st.integers(0, 10**6))
def test_exact_float_agree_on_rational_circle_polygons(params, seed):
    """The points ((1 - s^2), 2 s, 1 + s^2) / (1 + s^2) lie on the unit circle,
    so every one is a vertex; the polygon is neither point-symmetric nor a
    direct sum in general.  The float twin has the float values of the same
    vertices."""
    vertices = [((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s), Fraction(1))
                for s in sorted(params)]
    spe = StateSpace("polytopic", vertices=vertices, unit=(0, 0, 1), ctx=EXACT)
    spf = StateSpace("polytopic", vertices=[tuple(map(float, v)) for v in vertices],
                     unit=(0, 0, 1), ctx=FLOAT)
    exact, floats = backend_verdicts(spe, spf, random.Random(seed))
    assert exact == floats
