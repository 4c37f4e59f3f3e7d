"""Communication matrices, monotones, ultraweak majorization, dimensions."""

import builtins
import hashlib
import math
import random
from fractions import Fraction

import pytest

from gptwb.numerics import (
    EXACT,
    FLOAT,
    LPProblem,
    dot,
    is_row_stochastic,
    lp_solve,
    mat_mul,
    total,
)
from gptwb.observables import observable, trivial_observable
import gptwb.communication as communication
from gptwb.communication import (
    CommMatrix,
    build_comm_matrix,
    canonical_reduce,
    comm_matrix,
    identity_matrix,
    monotones,
    nonneg_factorization,
    space_dims,
    ultraweak_leq,
    uniform_matrix,
    verify_ultraweak_witness,
)
from gptwb.spaces import (
    make_ball,
    make_classical,
    make_polygon,
    polygon_extreme_even,
    space_from_ref,
)
from conftest import cube4, padded_square, random_stochastic


# ------------------------------------------------------------------ building
def test_identity_from_distinguisher():
    sp = make_classical(3)
    ind = observable(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cm = build_comm_matrix(sp.vertices, ind)
    assert cm.matrix == identity_matrix(3).matrix


def test_constant_rows_from_trivial():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.3, 0.7))
    cm = build_comm_matrix(sp.vertices[:4], t)
    for row in cm.matrix:
        assert abs(row[0] - 0.3) < 1e-12 and abs(row[1] - 0.7) < 1e-12


def test_hexagon_pair_matrix_values():
    sp = make_polygon(6)
    e1, e4 = polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)
    a = observable(sp, (e1, e4))
    cm = build_comm_matrix(sp.vertices, a)
    for i, v in enumerate(sp.vertices):
        assert abs(cm.matrix[i][0] - dot(e1, v)) < 1e-12
        assert abs(cm.matrix[i][1] - dot(e4, v)) < 1e-12


def test_invalid_state_rejected():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    with pytest.raises(ValueError):
        build_comm_matrix([(5.0, 5.0, 1.0)], a)


def test_state_outside_the_ball_rejected():
    ball = make_ball(3)
    a = observable(ball, ((0, 0, 0.3, 0.5), (0, 0, -0.3, 0.5)))
    with pytest.raises(ValueError):
        build_comm_matrix([(0, 0, 1.5, 1.0)], a)


def test_non_stochastic_matrix_rejected():
    with pytest.raises(ValueError):
        comm_matrix([[0.5, 0.4]])


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        comm_matrix([[1.0], [0.5, 0.5]])


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_comm_matrix_type_refuses_what_is_no_communication_matrix(ctx):
    """CommMatrix itself refuses rows that do not sum to 1 and negative
    entries, so no decision sees them: on ((0.5, 0.6), (0.2, 0.8))
    ultraweak_leq against I2 would answer "yes" with that matrix as L."""
    for rows in ([["1/2", "3/5"], ["1/5", "4/5"]], [["3/2", "-1/2"], [0, 1]]):
        with pytest.raises(ValueError, match="row-stochastic"):
            CommMatrix(tuple(tuple(ctx.scalar(v) for v in row) for row in rows), ctx)
    assert CommMatrix(identity_matrix(2, ctx).matrix, ctx).shape == (2, 2)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        comm_matrix([])
    sp = make_classical(2)
    with pytest.raises(ValueError):
        build_comm_matrix([], observable(sp, ((1, 0), (0, 1))))


# ----------------------------------------------------------------- monotones
def test_monotone_report_identity():
    rep = monotones(identity_matrix(4))
    assert rep.iota == 4 and rep.rank == 4
    assert abs(rep.lambda_max - 4) < 1e-12 and abs(rep.lambda_min) < 1e-12
    assert rep.nn_rank == (4, 4)


def test_lambda_min_of_zero_column_minima_is_positive_zero():
    """Reports print lambda_min, so a sum of zero minima reads 0.0, not -0.0."""
    assert repr(monotones(identity_matrix(2)).lambda_min) == "0.0"


def test_monotone_report_uniform():
    rep = monotones(uniform_matrix(3))
    assert rep.iota == 1 and rep.rank == 1
    assert abs(rep.lambda_max - 1) < 1e-12 and abs(rep.lambda_min + 1) < 1e-12
    assert rep.nn_rank == (1, 1)


def test_monotone_chain_on_random_matrices():
    rng = random.Random(4)
    for _ in range(60):
        cm = comm_matrix(random_stochastic(rng.randint(2, 6), rng.randint(2, 6), rng))
        rep = monotones(cm)
        assert rep.lambda_min < rep.iota <= rep.lambda_max + 1e-9
        assert rep.lambda_max <= rep.psd_rank[1] + 1e-9
        assert rep.nn_rank[0] <= rep.nn_rank[1]
        assert rep.psd_rank[0] <= rep.psd_rank[1]


def test_nn_rank_interval_contains_truth_for_known_cases():
    # identities and uniform matrices have known nonnegative rank
    for k in (2, 3, 4):
        rep = monotones(identity_matrix(k))
        assert rep.nn_rank[0] <= k <= rep.nn_rank[1]
        rep = monotones(uniform_matrix(k))
        assert rep.nn_rank[0] <= 1 <= rep.nn_rank[1]
    # rank-2 row-stochastic matrices have nonnegative rank 2
    rng = random.Random(10)
    for _ in range(10):
        w = random_stochastic(4, 2, rng)
        h = random_stochastic(2, 5, rng)
        rep = monotones(comm_matrix(mat_mul(w, h)))
        assert rep.nn_rank[0] <= 2 <= rep.nn_rank[1]


def test_nonneg_factorization_verifies():
    rng = random.Random(6)
    w = random_stochastic(4, 2, rng)
    h = random_stochastic(2, 4, rng)
    prod = mat_mul(w, h)
    cm = comm_matrix(prod)
    fact = nonneg_factorization(cm, 2)
    if fact is not None:  # heuristic search; success must be sound
        wf, hf = fact
        rebuilt = [[sum(wf[i][t] * hf[t][j] for t in range(len(hf)))
                    for j in range(4)] for i in range(4)]
        assert max(abs(a - b) for ra, rb in zip(rebuilt, prod)
                   for a, b in zip(ra, rb)) < 1e-8


def _planted_product(rng, n, k, m):
    return mat_mul(random_stochastic(n, k, rng), random_stochastic(k, m, rng))


def _max_error(w, h, target):
    return max(abs(float(sum(w[i][t] * h[t][j] for t in range(len(h))) - v))
               for i, row in enumerate(target) for j, v in enumerate(row))


def test_nonneg_factorization_hit_rate_on_planted_products():
    # 40 products that factor at k by construction; the search must find
    # all of them (as it does on the seeds 12-15 too), each a verified
    # row-stochastic witness
    rng = random.Random(77)
    found = 0
    for n in (4, 5, 6, 7):
        for k in (2, 3):
            for _ in range(5):
                cm = comm_matrix(_planted_product(rng, n, k, n))
                fact = nonneg_factorization(cm, k)
                if fact is None:
                    continue
                w, h = fact
                assert len(h) == k
                assert is_row_stochastic(w) and is_row_stochastic(h)
                assert _max_error(w, h, cm.matrix) <= 1e-9
                found += 1
    assert found == 40


def test_nonneg_factorization_is_deterministic():
    cm = comm_matrix(_planted_product(random.Random(78), 6, 3, 6))
    first = nonneg_factorization(cm, 3, seed=5)
    assert first is not None
    assert nonneg_factorization(cm, 3, seed=5) == first


def _rational_stochastic(n, m, rng):
    rows = []
    for _ in range(n):
        raw = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        rows.append([v / total(raw) for v in raw])
    return rows


def test_nonneg_factorization_exact_witness_is_stochastic():
    # a Fraction 5x5 rank-2 product; the witness must be row-stochastic in
    # the rationals, not only up to the float conversion
    rng = random.Random(3)
    w0, h0 = _rational_stochastic(5, 2, rng), _rational_stochastic(2, 5, rng)
    prod = mat_mul(w0, h0)
    cm = comm_matrix(prod, EXACT)
    fact = nonneg_factorization(cm, 2)
    assert fact is not None
    w, h = fact
    assert all(isinstance(v, Fraction) for row in w + h for v in row)
    assert is_row_stochastic(w, EXACT) and is_row_stochastic(h, EXACT)
    assert _max_error(w, h, prod) <= 1e-9


def _comm_search_instances():
    """The six ultraweak pairs (D, C) and the four factorization targets
    (C, k) of the comm-search benchmark, replayed from its planted draws of
    random.Random(2020): the pairs are drawn first."""
    rng = random.Random(2020)

    def stochastic(n, m):
        rows = []
        for _ in range(n):
            raw = [rng.random() for _ in range(m)]
            rows.append([v / total(raw) for v in raw])
        return rows

    pairs = []
    for k, j, n, m in ((2, 3, 3, 3), (2, 4, 3, 4), (3, 4, 4, 3), (2, 5, 4, 4),
                       (3, 5, 3, 4), (3, 3, 4, 4)):
        c = mat_mul(stochastic(j, k), stochastic(k, j))
        pairs.append((mat_mul(mat_mul(stochastic(n, j), c), stochastic(j, m)), c))
    return pairs, [(mat_mul(stochastic(n, k), stochastic(k, n)), k)
                   for k, n in ((2, 5), (2, 5), (3, 6), (3, 6))]


def _comm_search_factor_targets():
    return _comm_search_instances()[1]


def _compensated_sum(iterable, start=0):
    """A Python port of CPython 3.12's builtin ``sum``: an int prefix added
    exactly; then, while the total is a float, float items added with
    Neumaier's compensation and int items plainly, the compensation added
    when they stop; any other item, and every item after it, added plainly."""
    items = iter(iterable)
    acc = start
    if type(acc) is int:
        for x in items:
            acc = acc + x
            if type(x) not in (int, bool):
                break
    if type(acc) is float:
        c = 0.0
        for x in items:
            if type(x) is float:
                t = acc + x
                c += (acc - t) + x if abs(acc) >= abs(x) else (x - t) + acc
                acc = t
            elif isinstance(x, int):
                acc += float(x)
            else:
                acc = (acc + c if c and math.isfinite(c) else acc) + x
                break
        else:
            return acc + c if c and math.isfinite(c) else acc
    for x in items:
        acc = acc + x
    return acc


# sha256 of the repr of the ten comm-search results, one per line: the six
# ultraweak_leq pairs, then the four nonneg_factorization targets
COMM_SEARCH_DIGEST = "6ec06e2a39a204171076ba8ebc5c66b628a3dfded8c5b4151f145f6051787d62"


def _comm_search_digest(pairs, targets) -> str:
    reprs = [repr(ultraweak_leq(comm_matrix(d), comm_matrix(c))) for d, c in pairs]
    reprs += [repr(nonneg_factorization(comm_matrix(c), k)) for c, k in targets]
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def test_comm_search_results_do_not_depend_on_the_builtin_sum(monkeypatch):
    """Every float sum in the package adds left to right, so the ten
    comm-search witnesses are the same whether the builtin ``sum`` adds
    left to right (CPython 3.11 and before) or compensated (3.12 on)."""
    assert _compensated_sum([0.1] * 10) == 1.0 != total([0.1] * 10)
    pairs, targets = _comm_search_instances()
    assert _comm_search_digest(pairs, targets) == COMM_SEARCH_DIGEST
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _comm_search_digest(pairs, targets) == COMM_SEARCH_DIGEST


def test_hals_gives_up_a_restart_too_slow_to_converge(monkeypatch):
    # the second planted 5x5 rank-2 product of the comm-search benchmark: the
    # cyclic restart of plain HALS (no exact-rank finish) converges linearly
    # at a rate that cannot reach the target within 2000 sweeps, so it must
    # stop long before all 100 checks
    target = _comm_search_factor_targets()[1][0]
    checks = []
    error = communication._factor_error
    monkeypatch.setattr(communication, "_factor_error",
                        lambda *args: checks.append(1) or error(*args))
    cyclic = [[1.0 if i % 2 == t else 0.0 for t in range(2)] for i in range(5)]
    communication._hals_stochastic(target, cyclic)
    assert len(checks) <= 20
    monkeypatch.undo()
    assert nonneg_factorization(comm_matrix(target), 2) is not None


def test_exact_rank_finish_returns_at_the_first_check(monkeypatch):
    # k = rank(C) on every comm-search target: the hull finish is tried after
    # sweeps 1, 2, 4, 8 and 16, then at every 20-sweep check, and the first
    # restart returns at the first attempt it accepts, before its first
    # error check: after sweep 1 (attempt 1) on three targets and sweep 16
    # (attempt 5) on the fourth
    schedule = [1, 2, 4, 8, 16, 20, 40]
    sweeps, attempts = [], []
    update, finish = communication._hals_update, communication._hull_finish
    monkeypatch.setattr(communication, "_hals_update",
                        lambda *args: sweeps.append(1) or update(*args))
    monkeypatch.setattr(communication, "_hull_finish",
                        lambda *args: attempts.append(len(sweeps) // 2) or finish(*args))
    for (target, k), last in zip(_comm_search_factor_targets(), (1, 1, 1, 16)):
        sweeps.clear()
        attempts.clear()
        fact = nonneg_factorization(comm_matrix(target), k)
        assert fact is not None
        assert len(sweeps) // 2 == last  # H and W per sweep
        assert attempts == schedule[:schedule.index(last) + 1]
        w, h = fact
        assert is_row_stochastic(w) and is_row_stochastic(h)
        assert _max_error(w, h, target) <= 1e-9


def _slack_matrix(space):
    """Row-normalised slack matrix of a polygon: entry (i, j) is facet j's
    functional at vertex i."""
    rows = [[max(dot(r.direction, v), 0.0) for r in space.dual_rays()] for v in space.vertices]
    return [[x / total(row) for x in row] for row in rows]


_HALF = Fraction(1, 2)
SQUARE_SLACK = [[_HALF, _HALF, 0, 0], [0, _HALF, _HALF, 0], [0, 0, _HALF, _HALF],
                [_HALF, 0, 0, _HALF]]


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_exact_rank_finish_fails_safe_on_the_square_slack_matrix(ctx, monkeypatch):
    # the slack matrix of the square has rank 3 and nonnegative rank 4: no
    # hull of three rows contains its rows, so the finish must not accept
    # one, and each of the four restarts gives up after a few checks
    checks = []
    error = communication._factor_error
    monkeypatch.setattr(communication, "_factor_error",
                        lambda *args: checks.append(1) or error(*args))
    assert nonneg_factorization(comm_matrix(SQUARE_SLACK, ctx), 3) is None
    assert len(checks) <= 20


@pytest.mark.parametrize("matrix, ctx, interval", [
    (SQUARE_SLACK, FLOAT, (3, 4)),
    (SQUARE_SLACK, EXACT, (3, 4)),
    (_slack_matrix(make_polygon(5)), FLOAT, (3, 5)),
], ids=["square-float", "square-exact", "pentagon"])
def test_monotones_keep_the_slack_matrix_intervals(matrix, ctx, interval):
    # the regular pentagon's slack matrix has nonnegative rank 5; the upper
    # end is backed by a verified factorization
    cm = comm_matrix(matrix, ctx)
    assert monotones(cm).nn_rank == interval
    w, h = nonneg_factorization(cm, interval[1])
    assert len(h) == interval[1]
    assert is_row_stochastic(w, ctx) and is_row_stochastic(h, ctx)
    assert _max_error(w, h, cm.matrix) <= 1e-9


def test_ceil_sqrt_is_the_integer_ceiling():
    for k in range(10_001):
        r = communication._ceil_sqrt(k)
        assert r == math.ceil(math.sqrt(k))
        assert r * r >= k and (r == 0 or (r - 1) ** 2 < k)


@pytest.mark.parametrize("seed", range(5))
def test_monotones_find_planted_nonneg_rank(seed):
    cm = comm_matrix(_planted_product(random.Random(seed), 6, 3, 6))
    assert monotones(cm).nn_rank == (3, 3)


# ------------------------------------------------------------ canonical form
def test_reduce_drops_zero_column():
    cm = comm_matrix([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
    red = canonical_reduce(cm)
    assert red.shape[1] == 2


def test_reduce_drops_duplicate_row():
    cm = comm_matrix([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
    red = canonical_reduce(cm)
    assert red.shape[0] == 2


def test_reduce_keeps_identity():
    cm = identity_matrix(3)
    assert canonical_reduce(cm).matrix == cm.matrix


def test_reduce_merges_proportional_columns():
    cm = comm_matrix([[0.2, 0.1, 0.7], [0.4, 0.2, 0.4]])
    red = canonical_reduce(cm)
    assert red.shape[1] == 2  # first two columns proportional (ratio 1/2)


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_reduce_chain_zero_column_and_mixture_row(ctx):
    """A proportional chain of three columns, a zero column and a strict
    mixture row, reduced together."""
    f = Fraction
    rows = [[f(1, 12), f(2, 12), f(3, 12), 0, f(6, 12), 0],
            [f(1, 12), f(2, 12), f(3, 12), 0, 0, f(6, 12)],
            [0, 0, 0, 0, f(1, 2), f(1, 2)],
            [f(1, 6), f(2, 6), f(3, 6), 0, 0, 0]]
    rows.insert(2, [f(1, 3) * a + f(2, 3) * b for a, b in zip(rows[0], rows[3])])
    red = canonical_reduce(comm_matrix(rows, ctx))
    want = [[f(1, 2), f(1, 2), 0], [f(1, 2), 0, f(1, 2)], [0, f(1, 2), f(1, 2)], [1, 0, 0]]
    assert red.shape == (4, 3)
    assert all(ctx.eq(a, b) for ra, rb in zip(red.matrix, want) for a, b in zip(ra, rb))


def test_reduced_matrix_is_equivalent():
    rng = random.Random(44)
    base = random_stochastic(3, 3, rng)
    rows = base + [base[0]]  # duplicate state
    padded = [row + [0.0] for row in rows]  # zero column
    cm = comm_matrix(padded)
    red = canonical_reduce(cm)
    r1 = ultraweak_leq(red, cm)
    r2 = ultraweak_leq(cm, red)
    assert r1.verdict == "yes" and r2.verdict == "yes"


# ------------------------------------------------------ ultraweak majorization
def test_sandwich_bounds_for_random_matrices():
    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        cm = comm_matrix(random_stochastic(n, m, rng))
        k = min(n, m)
        below = ultraweak_leq(uniform_matrix(k), cm)
        assert below.verdict == "yes"
        assert verify_ultraweak_witness(uniform_matrix(k), cm, below.left, below.right)
        above = ultraweak_leq(cm, identity_matrix(k))
        assert above.verdict == "yes"
        assert verify_ultraweak_witness(cm, identity_matrix(k), above.left, above.right)


def test_monotones_nonincreasing_along_witnessed_majorization():
    rng = random.Random(14)
    for _ in range(15):
        cm = comm_matrix(random_stochastic(4, 4, rng))
        res = ultraweak_leq(uniform_matrix(4), cm)
        assert res.verdict == "yes"
        ma = monotones(uniform_matrix(4))
        mb = monotones(cm)
        assert ma.iota <= mb.iota
        assert ma.lambda_max <= mb.lambda_max + 1e-9
        assert ma.lambda_min <= mb.lambda_min + 1e-9
        assert ma.rank <= mb.rank


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_identical_row_target_is_below_everything(ctx):
    """D with every row the same distribution is below every C: L picks one
    row of C and every row of R is D's row."""
    rng = random.Random(16)

    def rational_row(m):
        raw = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        raw[0] += 1
        return [v / total(raw) for v in raw]

    for _ in range(15):
        d = comm_matrix([rational_row(rng.randint(1, 4))] * rng.randint(1, 4), ctx)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        c = comm_matrix([rational_row(m) for _ in range(n)], ctx)
        res = ultraweak_leq(d, c)
        assert res.verdict == "yes"
        assert verify_ultraweak_witness(d, c, res.left, res.right)


def test_identity_screen_rejects_too_many_messages():
    res = ultraweak_leq(identity_matrix(3), uniform_matrix(2))
    assert res.verdict == "no" and res.violated == "iota"


def test_identity_target_from_orthogonal_rows():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    cm = build_comm_matrix([sp.vertices[0], sp.vertices[3]], a)
    res = ultraweak_leq(identity_matrix(2), cm)
    assert res.verdict == "yes"
    assert verify_ultraweak_witness(identity_matrix(2), cm, res.left, res.right)


def test_classical_capacity_shortcut():
    rng = random.Random(15)
    cm = comm_matrix(random_stochastic(5, 3, rng))
    res = ultraweak_leq(cm, identity_matrix(3))
    assert res.verdict == "yes"


# (k, j, n, m): C is j x j of rank at most k, D = L C R is n x m; the first six
# are the shapes of the planted comm-search pairs
PLANTED_ULTRAWEAK_SHAPES = ((2, 3, 3, 3), (2, 4, 3, 4), (3, 4, 4, 3), (2, 5, 4, 4),
                            (3, 5, 3, 4), (3, 3, 4, 4), (2, 4, 4, 4), (3, 5, 4, 4))


def _planted_pair(rng, k, j, n, m, stochastic=random_stochastic, ctx=FLOAT):
    c = mat_mul(stochastic(j, k, rng), stochastic(k, j, rng))
    d = mat_mul(mat_mul(stochastic(n, j, rng), c), stochastic(j, m, rng))
    return comm_matrix(d, ctx), comm_matrix(c, ctx)


def test_ultraweak_search_hit_rate_on_planted_pairs():
    # 40 pairs with D <= C by construction; the search must find at least 36
    # of them, each a verified witness, and never answer "no"
    rng = random.Random(77)
    found = 0
    for shape in PLANTED_ULTRAWEAK_SHAPES:
        for _ in range(5):
            d, c = _planted_pair(rng, *shape)
            res = ultraweak_leq(d, c)
            assert res.verdict != "no"
            if res.verdict == "yes":
                assert verify_ultraweak_witness(d, c, res.left, res.right)
                found += 1
    assert found >= 36


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3, 4), (4, 4), (5, 3)],
                         ids=lambda shape: "%dx%d" % shape)
def test_rows_of_c_are_below_c(shape, ctx):
    # C <= C, and any D made of rows of C, by L selecting those rows and
    # R = I; and D = C P for a permutation P of the columns, by L = I and
    # R = P; all exactly: the search's LAD rounds can stall on these pairs
    n, m = shape
    shift = list(range(1, m)) + [0]  # column b of C P is column shift[b] of C
    for s in range(1000, 1040 if ctx is FLOAT else 1005):
        rng = random.Random(s)
        rows = (random_stochastic if ctx is FLOAT else _rational_stochastic)(n, m, rng)
        c = comm_matrix(rows, ctx)
        for d in (c, comm_matrix(rows[::-1] + rows[:1], ctx)):
            res = ultraweak_leq(d, c)
            assert res.verdict == "yes"
            assert res.right == identity_matrix(m, ctx).matrix
            assert all(row.count(1) == 1 for row in res.left)
            assert verify_ultraweak_witness(d, c, res.left, res.right)
        d = comm_matrix([[row[a] for a in shift] for row in rows], ctx)
        res = ultraweak_leq(d, c)
        assert res.verdict == "yes"
        assert res.left == identity_matrix(n, ctx).matrix
        assert all(res.right[shift[b]][b] == 1 for b in range(m))
        assert verify_ultraweak_witness(d, c, res.left, res.right)


def test_ultraweak_search_is_deterministic():
    d, c = _planted_pair(random.Random(78), 3, 5, 3, 4)
    first = ultraweak_leq(d, c, seed=5)
    assert first.verdict == "yes"
    assert ultraweak_leq(d, c, seed=5) == first


def test_ultraweak_exact_witness_is_stochastic():
    # a Fraction pair found by the float search; the witness must be
    # row-stochastic in the rationals, not only up to the float conversion
    d, c = _planted_pair(random.Random(3), 2, 4, 3, 4, _rational_stochastic, EXACT)
    res = ultraweak_leq(d, c)
    assert res.verdict == "yes"
    assert all(isinstance(v, Fraction) for row in res.left + res.right for v in row)
    assert is_row_stochastic(res.left, EXACT) and is_row_stochastic(res.right, EXACT)
    assert verify_ultraweak_witness(d, c, res.left, res.right)


def _planted_right_fit(rng, k, j, n, m):
    """(L C, D, R) with D = (L C) R for row-stochastic L (n x j) and R (j x m),
    and C (j x j) of rank at most k."""
    c = mat_mul(random_stochastic(j, k, rng), random_stochastic(k, j, rng))
    lc = mat_mul(random_stochastic(n, j, rng), c)
    right = random_stochastic(j, m, rng)
    return [list(row) for row in lc], [list(row) for row in mat_mul(lc, right)], right


def _frobenius(a, b):
    return math.sqrt(sum((x - y) ** 2 for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


@pytest.mark.parametrize("shape", [(3, 3, 4, 4), (2, 4, 3, 4), (2, 3, 3, 3)],
                         ids=["full-column-rank", "rank-2-of-4", "rank-2-of-3"])
def test_exact_right_lands_on_the_fit_nearest_its_start(shape):
    # a start close to a witness R: the projection is row-stochastic (its
    # rows sum to 1 within 1e-9; the normal equations of an ill-conditioned
    # full-rank L C lose a few digits there), fits (L C) R = D within 1e-12,
    # and is no farther from the start than R
    rng = random.Random(31)
    for _ in range(10):
        lc, d, right = _planted_right_fit(rng, *shape)
        noise = random_stochastic(len(right), len(right[0]), rng)
        start = [[0.99 * a + 0.01 * b for a, b in zip(ra, rb)] for ra, rb in zip(right, noise)]
        got = communication._exact_right(lc, d, start)
        assert got is not None
        assert is_row_stochastic(got, FLOAT) and min(map(min, got)) >= 0.0
        assert _max_error(lc, got, d) <= 1e-12
        assert _frobenius(got, start) <= _frobenius(right, start) + 1e-12


@pytest.mark.parametrize("dip, accepted", [(5e-14, True), (1e-3, False)],
                         ids=["round-off", "negative"])
def test_exact_right_clips_round_off_below_zero(dip, accepted):
    # L C has rank 2 of 3, and (1, -1, 1) spans its kernel.  R has a zero
    # entry; the start adds dip times the kernel vector to R's first column
    # and takes it from the second (so its rows still sum to 1), plus a
    # row-space part that the projection removes.  The projection lands on
    # R with a -dip entry: round-off (within _ULTRAWEAK_TARGET) is clipped
    # to 0 and accepted, a real negative entry is still refused
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    left = [[half, half, 0], [0, quarter, 3 * quarter], [quarter, quarter, half], [1, 0, 0]]
    c = mat_mul([[1, 0], [half, half], [0, 1]], [[half, half, 0], [0, half, half]])
    right = [[half, quarter, quarter], [0, half, half], [quarter, quarter, half]]
    lc = [[float(v) for v in row] for row in mat_mul(left, c)]
    d = [[float(v) for v in row] for row in mat_mul(mat_mul(left, c), right)]
    kernel, row_space = (1, -1, 1), lc[0]
    start = [[float(r[0]) + dip * n + 1e-3 * g, float(r[1]) - dip * n, float(r[2]) - 1e-3 * g]
             for r, n, g in zip(right, kernel, row_space)]
    got = communication._exact_right(lc, d, start)
    if not accepted:
        assert got is None
        return
    assert got is not None and min(map(min, got)) >= 0.0
    assert got[1][0] == 0.0
    assert _max_error(lc, got, d) <= 1e-10


def test_exact_right_refuses_an_inconsistent_target(monkeypatch):
    # C is 3 x 3, so (L C) R has rank at most 3 whatever L is, and a 4 x 4
    # target of rank 4 is never fitted: every round's projection is refused
    # and the R LAD fit runs instead
    rng = random.Random(32)
    lc, d, right = _planted_right_fit(rng, 3, 3, 4, 4)
    d = [[0.9 * a + 0.1 * (i == b) for b, a in enumerate(row)] for i, row in enumerate(d)]
    assert communication._exact_right(lc, d, right) is None
    finishes, rows_per_fit = [], []
    exact, lad = communication._exact_right, communication._lad_fit
    monkeypatch.setattr(communication, "_exact_right",
                        lambda *args: finishes.append(exact(*args)) or finishes[-1])
    monkeypatch.setattr(communication, "_lad_fit",
                        lambda rows, width, fits: rows_per_fit.append(rows)
                        or lad(rows, width, fits))
    cf = mat_mul(random_stochastic(3, 3, rng), random_stochastic(3, 3, rng))
    left, start = random_stochastic(4, 3, rng), random_stochastic(3, 4, rng)
    assert communication._ultraweak_fit(cf, d, left, start) is None
    assert finishes and all(f is None for f in finishes)
    assert sum(rows > 1 for rows in rows_per_fit) == len(finishes)


def test_exact_fit_finish_skips_r_fits(monkeypatch):
    # the six planted ultraweak pairs of the comm-search benchmark took 10 R
    # LAD fits (the ones with more than one row) before the projection
    # finish, and 6 while it refused round-off below 0; now they take 4,
    # on every interpreter
    rows_per_fit = []
    lad = communication._lad_fit
    monkeypatch.setattr(communication, "_lad_fit",
                        lambda rows, width, fits: rows_per_fit.append(rows)
                        or lad(rows, width, fits))
    per_pair = []
    for d, c in _comm_search_instances()[0]:
        rows_per_fit.clear()
        assert ultraweak_leq(comm_matrix(d), comm_matrix(c)).verdict == "yes"
        per_pair.append(sum(rows > 1 for rows in rows_per_fit))
    assert per_pair == [0, 0, 1, 0, 2, 1]


def test_search_fits_the_distinct_rows_of_the_target(monkeypatch):
    # a repeated row of D weighs twice in every R fit and can hold the
    # rounds at a local minimum; the search fits each distinct row once and
    # repeats its row of L in the witness
    targets = []
    fit = communication._ultraweak_fit
    monkeypatch.setattr(communication, "_ultraweak_fit",
                        lambda cf, target, *args: targets.append(target) or fit(cf, target, *args))
    rng = random.Random(44)
    base = random_stochastic(3, 3, rng)
    d = comm_matrix([row + [0.0] for row in base + [base[0]]])
    c = canonical_reduce(d)
    res = ultraweak_leq(d, c)
    assert res.verdict == "yes"
    assert targets and all(len(t) == 3 for t in targets)
    assert res.left[3] == res.left[0]
    assert verify_ultraweak_witness(d, c, res.left, res.right)


def _two_deviation_lad_optimum(rows, width, fits):
    """min sum |terms . x - value| over row-stochastic x, posed with a positive
    and a negative deviation column per fit in an equality row."""
    nx, ne = rows * width, len(fits)
    p = LPProblem(n=nx + 2 * ne, objective=[(j, -1) for j in range(nx, nx + 2 * ne)])
    for start in range(0, nx, width):
        p.add_eq([(j, 1) for j in range(start, start + width)], 1)
    for e, (terms, value) in enumerate(fits):
        p.add_eq(terms + [(nx + e, -1), (nx + ne + e, 1)], value)
    res = lp_solve(p, FLOAT)
    assert res.feasible
    return -res.value


def _sparse_stochastic(n, m, rng):
    # row-stochastic, then about a fifth of the entries zeroed
    return [[0.0 if rng.random() < 0.2 else v for v in row]
            for row in random_stochastic(n, m, rng)]


def test_lad_fit_reaches_the_two_deviation_optimum():
    # 20 L-row fits (one row of width j; the terms are the columns of C R)
    # and 20 R fits (k rows of width m; (L C)[i][y] on entry (y, b)), with
    # random targets that no fit need attain
    rng = random.Random(23)
    cases = []
    for _ in range(20):
        j, m = rng.randint(2, 5), rng.randint(2, 5)
        cr, d = _sparse_stochastic(j, m, rng), random_stochastic(1, m, rng)[0]
        cases.append((1, j, [([(i, a) for i, a in enumerate(col) if a], v)
                             for col, v in zip(zip(*cr), d)]))
    for _ in range(20):
        n, k, m = rng.randint(2, 4), rng.randint(2, 5), rng.randint(2, 4)
        lc, target = _sparse_stochastic(n, k, rng), random_stochastic(n, m, rng)
        cases.append((k, m, [([(y * m + b, a) for y, a in enumerate(row) if a], v)
                             for row, drow in zip(lc, target) for b, v in enumerate(drow)]))
    for rows, width, fits in cases:
        got = communication._lad_fit(rows, width, fits)
        assert len(got) == rows and all(len(row) == width for row in got)
        assert is_row_stochastic(got, FLOAT)
        x = [v for row in got for v in row]
        dev = sum(abs(sum(a * x[j] for j, a in terms) - v) for terms, v in fits)
        assert abs(dev - _two_deviation_lad_optimum(rows, width, fits)) <= 1e-9


def test_lad_fit_poses_every_fit_row_on_its_slack(monkeypatch):
    # one deviation column per fit; every fit is a >= row that y = 0 satisfies;
    # the objective sums the fits' coefficients, sorted, and drops column 0,
    # whose coefficients cancel
    posed = []
    monkeypatch.setattr(communication, "lp_solve",
                        lambda p, ctx: posed.append(p) or lp_solve(p, ctx))
    fits = [([(0, 1.0)], 0.5), ([(0, -1.0), (1, 0.5)], 0.0), ([(1, 0.25)], 0.25)]
    communication._lad_fit(1, 2, fits)
    (p,) = posed
    assert p.n == 2 + 3
    assert p.eq == [([(0, 1), (1, 1)], 1)]
    assert p.ge == [([(0, -1.0), (2, 1)], -0.5), ([(0, 1.0), (1, -0.5), (3, 1)], -0.0),
                    ([(1, -0.25), (4, 1)], -0.25)]
    assert p.objective == [(1, 0.75), (2, -2), (3, -2), (4, -2)]


# ------------------------------------------------------------------ dimensions
def test_classical_dimensions():
    for d in (1, 2, 3, 4, 5):
        dims = space_dims(make_classical(d))
        assert dims.d_op == d
        assert abs(dims.lambda_max - d) < 1e-6
        assert dims.d_lin == d


def test_even_polygon_dimensions():
    for n in (4, 6, 8):
        dims = space_dims(make_polygon(n))
        assert dims.d_op == 2
        assert abs(dims.lambda_max - 2.0) < 1e-6
        assert dims.d_lin == 3


def test_odd_polygon_storability():
    for n in (5, 7, 9):
        dims = space_dims(make_polygon(n))
        assert abs(dims.lambda_max - (1 + 1 / math.cos(math.pi / n))) < 1e-6
        assert dims.d_op == 2


_DIMS_BOUNDS = (  # (d_cl_lo, d_q_lo, d_op)
    [(f"classical:{d}", (d, d, d)) for d in range(1, 7)]
    + [("polygon:3", (3, 3, 3))]
    + [(f"polygon:{n}", (3, 2, 2)) for n in range(4, 13, 2)]
    + [(f"polygon:{n}", (3, 3, 2)) for n in range(5, 12, 2)]
    + [("square", (3, 2, 2)),
       ("dsum:classical:2+square", (5, 4, 4)),
       ("dsum:polygon:5+classical:1", (4, 4, 3)),
       ("dsum:polygon:4+polygon:4", (6, 4, 4)),
       ("dsum:square+classical:3", (6, 5, 5))])


@pytest.mark.parametrize("space, bounds", [
    *(pytest.param(space_from_ref(ref), b, id=ref) for ref, b in _DIMS_BOUNDS),
    pytest.param(space_from_ref("square", EXACT), (3, 2, 2), id="square-exact"),
    pytest.param(cube4(FLOAT), (5, 3, 2), id="cube4"),
    pytest.param(padded_square(FLOAT), (3, 2, 2), id="padded-square"),
    pytest.param(padded_square(EXACT), (3, 2, 2), id="padded-square-exact"),
])
def test_dims_lower_bounds(space, bounds):
    """The two lower bounds, and d_op from the distinguishability LPs."""
    dims = space_dims(space)
    assert (dims.d_cl_lo, dims.d_q_lo, dims.d_op) == bounds


def test_dims_consistency_chain():
    for ref in ("classical:3", "polygon:5", "polygon:6"):
        dims = space_dims(space_from_ref(ref))
        assert dims.d_op <= dims.lambda_max + 1e-9
        assert dims.lambda_max <= dims.d_q_lo + 1 + 1e-9  # ceil relation
        assert dims.d_q_lo <= dims.d_cl_lo
