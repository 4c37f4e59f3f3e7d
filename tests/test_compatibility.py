"""Joint measurability: LP vs closed-form criteria, noise condition, fully
compatible and non-disturbing classes."""

import math
import random
from fractions import Fraction

import pytest

from gptwb import compatibility
from gptwb.numerics import EXACT, FLOAT, LPProblem, dot, lp_solve
from gptwb.observables import (
    is_trivial,
    mix_observables,
    noise_content,
    observable,
    trivial_observable,
    uniform_trivial,
    validate,
)
from gptwb.compatibility import (
    are_compatible,
    construct_joint_unbiased,
    dichotomic_compat_g,
    dichotomic_compat_margin,
    fc_noise_lower_bound,
    find_nontrivial_fully_compatible,
    is_fully_compatible,
    is_nondisturbing,
    marginal,
    noise_sufficient_compat,
    psym_compat_test,
    pure_state_decomposition,
)
from gptwb.simulation import effect_in_noise_class
from gptwb.spaces import (
    StateSpace,
    direct_sum,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
    space_from_ref,
)
from conftest import (
    count_pivots,
    cube3,
    cube4,
    padded_square,
    random_observable,
    random_rational_observable,
    sparse,
)


def dichotomic(space, effect):
    comp = tuple(u - x for u, x in zip(space.unit, effect))
    return observable(space, (effect, comp))


def unbiased_effect(space, direction, scale=1.0):
    n = space.effect_norm(direction)
    vec = tuple(scale * x / n for x in direction)
    return space.effect_from_bloch(vec, 1)


def random_unbiased_vec(space, rng, max_norm=1.0):
    ang = rng.uniform(0, 2 * math.pi)
    rad = rng.uniform(0, max_norm)
    direction = (math.cos(ang), math.sin(ang))
    n = space.effect_norm(direction)
    return tuple(rad * x / n for x in direction)


# ----------------------------------------------------------------- basic LPs
def test_trivial_pair_compatible_with_product_joint():
    sp = make_polygon(6)
    t1 = trivial_observable(sp, (0.5, 0.5))
    t2 = trivial_observable(sp, (0.2, 0.8))
    joint = are_compatible([t1, t2])
    assert joint is not None
    m0, m1 = marginal(joint, 0), marginal(joint, 1)
    for got, want in ((m0, t1), (m1, t2)):
        for e, f in zip(got.effects, want.effects):
            assert all(abs(x - y) < 1e-8 for x, y in zip(e, f))


def test_hexagon_orthogonal_unbiased_pair_incompatible():
    sp = make_polygon(6)
    a = unbiased_effect(sp, (1.0, 0.0))
    b = unbiased_effect(sp, (0.0, 1.0))
    A, B = dichotomic(sp, a), dichotomic(sp, b)
    assert psym_compat_test(sp, a, b).verdict == "incompatible"
    assert are_compatible([A, B]) is None
    assert dichotomic_compat_g(A, B) is None


def test_classical_pairs_always_compatible():
    sp = make_classical(3)
    rng = random.Random(17)
    for _ in range(10):
        a = random_observable(sp, 2, rng)
        b = random_observable(sp, 3, rng)
        assert are_compatible([a, b]) is not None


def test_dichotomic_g_trivial_cases():
    sp = make_polygon(6)
    a = unbiased_effect(sp, (1.0, 0.0), scale=0.5)
    A = dichotomic(sp, a)
    assert dichotomic_compat_g(A, A) is not None  # g = a works
    comp = observable(A.space, (A.effects[1], A.effects[0]))
    assert dichotomic_compat_g(A, comp) is not None  # complementary pair


def test_dichotomic_g_matches_product_lp_on_random_pairs():
    """g and the margin come from one LP; the joint LP, on dual-ray weights
    or (cube4, the padded square) on vertex rows, is the independent check.
    Float pairs near margin 0 are left out; the exact axis pairs are not:
    on the square, alone or in a direct sum, t = 1/2 has margin exactly 0
    and is compatible."""
    rng = random.Random(23)
    count = 0
    for sp in [make_polygon(n) for n in (4, 5, 6, 7, 8)] + [cube4(FLOAT), padded_square(FLOAT)]:
        for _ in range(12):
            a = random_observable(sp, 2, rng)
            b = random_observable(sp, 2, rng)
            margin = dichotomic_compat_margin(a, b)
            if abs(float(margin)) <= 1e-7:
                continue
            count += 1
            assert (dichotomic_compat_g(a, b) is not None) == \
                (are_compatible([a, b]) is not None) == (margin > 0)
    assert count >= 40
    # random rational pairs are almost all compatible, so the exact spaces
    # take the axis pairs, which turn incompatible on the square past t = 1/2
    verdicts = {}
    for sp in (make_square(EXACT), make_classical(3, EXACT),
               space_from_ref("dsum:square+classical:2", EXACT)):
        for t in map(Fraction, ("1/4", "2/5", "1/2", "3/5", "3/4", "1")):
            a, b = axis_dichotomic(sp, 0, t), axis_dichotomic(sp, 1, t)
            margin = dichotomic_compat_margin(a, b)
            g = dichotomic_compat_g(a, b)
            assert (g is not None) == (are_compatible([a, b]) is not None) == (margin >= 0)
            verdicts[sp.label, t] = (g is not None, margin)
    for label in ("square", "dsum:square+classical:2"):
        assert [verdicts[label, t] for t in map(Fraction, ("1/2", "3/5", "3/4", "1"))] == \
            [(True, 0)] + [(False, -Fraction(d)) for d in ("1/20", "1/8", "1/4")]


def test_dichotomic_g_satisfies_its_cone_constraints():
    # 0 <= g <= a, b and a + b - g <= u on every vertex, within eps
    rng = random.Random(29)
    spaces = [make_polygon(n) for n in (4, 5, 6, 7, 8)] + [make_square(), make_classical(3),
                                                             cube4(FLOAT), padded_square(FLOAT)]
    found = 0
    for sp in spaces + [cube4(EXACT)]:
        eps = sp.ctx.eps
        for _ in range(3 if sp.ctx.exact else 10):
            if sp.ctx.exact:
                a, b = random_rational_observable(sp, 2, rng), random_rational_observable(sp, 2, rng)
            else:
                a = random_observable(sp, 2, rng, margin=rng.uniform(0.2, 1.2))
                b = random_observable(sp, 2, rng, margin=rng.uniform(0.2, 1.2))
            g = dichotomic_compat_g(a, b)
            if g is None:
                continue
            found += 1
            for v in sp.vertices:
                gv, av, bv = dot(g, v), dot(a.effects[0], v), dot(b.effects[0], v)
                assert -eps <= gv <= min(av, bv) + eps
                assert av + bv - gv <= 1 + eps
    assert found >= 40


def four_row_margin(a_obs, b_obs, lo=None):
    """The margin LP with all four rows per vertex and delta in [lo, 1]
    (unbounded below by default), built here independently: each coordinate
    of g and delta is the difference of two nonnegative columns."""
    space = a_obs.space
    ctx = space.ctx
    a, b = a_obs.effects[0], b_obs.effects[0]
    dim = space.ambient_dim
    zero, one = ctx.zero(), ctx.one()

    def split(coeffs):  # a dense row over (g, delta), on the split columns
        return sparse([t for x in coeffs for t in (x, -x)])

    p = LPProblem(n=2 * dim + 2, objective=split([zero] * dim + [one]))
    for v in space.vertices:
        grow, neg = split(list(v) + [-one]), split([-x for x in v] + [-one])
        p.add_ge(grow, zero)                                  # g(v) >= delta
        p.add_ge(neg, -dot(a, v))                             # a - g >= delta
        p.add_ge(neg, -dot(b, v))                             # b - g >= delta
        p.add_ge(grow, dot(a, v) + dot(b, v) - one)           # u - a - b + g >= delta
    p.add_ge(split([zero] * dim + [-one]), -one)              # delta <= 1
    if lo is not None:
        p.add_ge(split([zero] * dim + [one]), lo)             # delta >= lo
    return lp_solve(p, ctx).value


def rational_polygons():
    """Exact polygons with rational vertices: a triangle, the square, a
    hexagon and a pentagon on the unit circle (points of the rational
    parametrization)."""
    one = Fraction(1)
    circle = [((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s), one)
              for s in map(Fraction, (-3, -1, 0, Fraction(1, 2), 2))]
    return [make_classical(3, EXACT), make_square(EXACT),
            StateSpace("polytopic", vertices=[(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1),
                                              (-1, -1, 1), (0, -1, 1)],
                       unit=(0, 0, 1), ctx=EXACT),
            StateSpace("polytopic", vertices=circle, unit=(0, 0, 1), ctx=EXACT)]


def test_margin_lower_bound_leaves_the_optimum_alone(monkeypatch):
    """delta >= -1 does not move the margin: equal on exact rational
    polygons, within 1e-12 on random float pairs (some of them no effects,
    with margin above 1).  For effects every row starts on its slack, so the
    margin LP makes no phase-1 pivot."""
    rng = random.Random(31)
    counts = count_pivots(monkeypatch)
    pairs = []
    for sp in rational_polygons() + [cube4(EXACT)]:
        for _ in range(4):
            pairs.append((random_rational_observable(sp, 2, rng),
                          random_rational_observable(sp, 2, rng)))
    for sp in [make_polygon(n) for n in (4, 5, 6, 7, 8)] + [cube4(FLOAT), padded_square(FLOAT)]:
        for _ in range(8):
            pairs.append((random_observable(sp, 2, rng, margin=rng.uniform(0.2, 1.2)),
                          random_observable(sp, 2, rng, margin=rng.uniform(0.2, 1.2))))
    for a, b in pairs:
        counts[1] = 0
        got = dichotomic_compat_margin(a, b)
        assert counts[1] == 0 or not (validate(a) and validate(b))
        want = four_row_margin(a, b)
        if a.space.ctx.exact:
            assert isinstance(got, Fraction) and got == want
        else:
            assert abs(got - want) <= 1e-12
    # a functional far outside [0, 1] leaves no g at delta = -1: no effect
    sp = cube4(FLOAT)
    far = observable(sp, [(3, 0, 0, 0, 0.5), (-3, 0, 0, 0, 0.5)])
    with pytest.raises(ValueError, match="needs effects"):
        dichotomic_compat_margin(far, far)
    with pytest.raises(ValueError, match="needs effects"):
        dichotomic_compat_g(far, far)


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_margin_lp_keeps_the_two_rows_per_vertex_that_can_bind(ctx, monkeypatch):
    """Of g >= delta and u - a - b + g >= delta only the larger lower bound
    on g(v) - delta can bind, and of a - g >= delta and b - g >= delta only
    the smaller upper bound: the LP has 2 |vertices| rows, which bound
    delta by 1/4, and its optimum is the four-row LP's, equal on exact and within 1e-9 on
    floats."""
    posed = []
    monkeypatch.setattr(compatibility, "lp_solve",
                        lambda p, c: posed.append(p) or lp_solve(p, c))
    rng = random.Random(41)
    spaces = [make_square(ctx), make_classical(3, ctx), padded_square(ctx), cube4(ctx)]
    if ctx is FLOAT:
        spaces += [make_polygon(n) for n in (5, 6, 7, 8)]
    obs = random_observable if ctx is FLOAT else random_rational_observable
    for sp in spaces:
        for _ in range(6):
            a, b = obs(sp, 2, rng), obs(sp, 2, rng)
            posed.clear()
            got = dichotomic_compat_margin(a, b)
            (p,) = posed
            assert not p.eq and len(p.ge) == 2 * sp.n_vertices
            want = four_row_margin(a, b, -ctx.one())
            if ctx.exact:
                assert isinstance(got, Fraction) and got == want
            else:
                assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_joint_reproduces_every_marginal(ctx):
    """The joint LP leaves out each later input's last marginal; the joint
    observable still reproduces it."""
    rng = random.Random(37)
    spaces = rational_polygons() if ctx.exact else \
        [make_polygon(n) for n in (5, 6, 8)] + [cube4(FLOAT)]
    found = 0
    for sp in spaces:
        for sizes in ((2, 2), (3, 2), (2, 2, 2), (2, 3, 2)):
            for _ in range(2):
                if ctx.exact:
                    obs = [random_rational_observable(sp, k, rng) for k in sizes]
                else:
                    obs = [random_observable(sp, k, rng, margin=0.3) for k in sizes]
                joint = are_compatible(obs)
                if joint is None:
                    continue
                found += 1
                assert validate(joint)
                for i, o in enumerate(obs):
                    for got, want in zip(marginal(joint, i).effects, o.effects):
                        assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
    assert found >= 12


def test_unnormalized_inputs_are_refused():
    """Effects that do not sum to u are refused where they are built, on
    both backends, so no joint-observable or margin LP, each of which leaves
    out rows that normalization implies, ever reads them."""
    for sp in (make_polygon(6), cube4(FLOAT), cube4(EXACT)):
        if sp.ctx.exact:
            a = random_rational_observable(sp, 2, random.Random(41))
        else:
            a = random_observable(sp, 2, random.Random(41), margin=0.3)
        assert are_compatible([a, a]) is not None
        assert dichotomic_compat_g(a, a) is not None
        assert dichotomic_compat_margin(a, a) >= 0
        nine_tenths = sp.ctx.scalar("0.9")
        with pytest.raises(ValueError, match="do not sum to the unit functional"):
            observable(sp, (a.effects[0], tuple(nine_tenths * x for x in a.effects[1])))


# ------------------------------------------ spaces without a dual-ray generator
def axis_dichotomic(space, axis, t):
    """(e, u - e) with e(s) = (1 + t s_axis) / 2."""
    half = space.ctx.scalar(Fraction(1, 2))
    e = [half * u for u in space.unit]
    e[axis] += half * space.ctx.scalar(t)
    return dichotomic(space, tuple(e))


@pytest.mark.parametrize("space", [padded_square(EXACT), padded_square(FLOAT), cube4(FLOAT)],
                         ids=["padded-square-exact", "padded-square-float", "cube4-float"])
def test_vertex_row_fallback(space):
    tol = 1e-8
    for t in (Fraction(3, 4), 1):
        sharp = [axis_dichotomic(space, 0, t), axis_dichotomic(space, 1, t)]
        assert are_compatible(sharp) is None
        assert dichotomic_compat_g(*sharp) is None
    for t in (Fraction(1, 2), Fraction(2, 5)):
        noisy = [axis_dichotomic(space, 0, t), axis_dichotomic(space, 1, t)]
        joint = are_compatible(noisy)
        assert joint is not None
        for which, want in enumerate(noisy):
            for e, f in zip(marginal(joint, which).effects, want.effects):
                assert all(abs(x - y) <= tol for x, y in zip(e, f))
        for e in joint.effects:
            assert all(dot(e, v) >= -tol for v in space.vertices)
        assert dichotomic_compat_g(*noisy) is not None
    x_sharp = axis_dichotomic(space, 0, 1).effects[0]
    x_half = axis_dichotomic(space, 1, Fraction(1, 2)).effects[0]
    for t in (Fraction(1, 2), Fraction(3, 4)):
        assert not effect_in_noise_class(space, x_sharp, t)
        assert effect_in_noise_class(space, x_half, t)
    assert effect_in_noise_class(space, x_sharp, 1)


# ----------------------------------------------------- point-symmetric tests
@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 10**20)])
def test_psym_exact_criterion_at_two_is_not_rounded(eps):
    """Criterion 2 + 2 eps on the exact square: both norms round to 1.0 in
    floats, so only an exact comparison separates the two cases."""
    sp = make_square(EXACT)
    half = Fraction(1, 2)
    a = sp.effect_from_bloch((half, half), 1)
    b = sp.effect_from_bloch((half + eps, eps - half), 1)
    v = psym_compat_test(sp, a, b)
    assert v.criterion == 2 + 2 * eps
    assert v.verdict == ("iff_compatible" if eps == 0 else "incompatible")
    joint = are_compatible([dichotomic(sp, a), dichotomic(sp, b)])
    assert (joint is not None) == (eps == 0)


def test_psym_oracle_equivalence_on_hexagon_grid():
    sp = make_polygon(6)
    a_vec = random_unbiased_vec(sp, random.Random(1), max_norm=0.9)
    a = sp.effect_from_bloch(a_vec, 1)
    A = dichotomic(sp, a)
    rng = random.Random(99)
    agree = 0
    for r_idx in range(10):
        for t_idx in range(10):
            rad = (r_idx + 1) / 10
            ang = 2 * math.pi * t_idx / 10
            direction = (math.cos(ang), math.sin(ang))
            nb = sp.effect_norm(direction)
            b_vec = tuple(rad * x / nb for x in direction)
            b = sp.effect_from_bloch(b_vec, 1)
            verdict = psym_compat_test(sp, a, b)
            if verdict.boundary:
                continue
            B = dichotomic(sp, b)
            lp = are_compatible([A, B]) is not None
            assert lp == (verdict.verdict == "iff_compatible")
            agree += 1
    assert agree >= 90


def test_psym_oracle_equivalence_on_the_cube():
    """The 3-cube is point-symmetric, so the norm criterion decides its
    unbiased pairs; the exact joint-observable LP must agree on every pair."""
    sp = cube3(EXACT)
    assert sp.psym
    rng = random.Random(8)
    half = Fraction(1, 2)
    verdicts = set()
    for _ in range(30):
        pair = []
        for _ in range(2):
            raw = [Fraction(rng.randint(-4, 4), 8) for _ in range(3)]
            scale = max(1, sum(map(abs, raw)))  # the cube's effect norm is the 1-norm
            pair.append(tuple(x / scale / 2 for x in raw) + (half,))
        verdict = psym_compat_test(sp, *pair).verdict
        verdicts.add(verdict)
        joint = are_compatible([dichotomic(sp, e) for e in pair])
        assert (joint is not None) == (verdict == "iff_compatible")
    assert verdicts == {"iff_compatible", "incompatible"}


def test_ball_closed_form_verdicts():
    ball = make_ball(3)
    a = ball.effect_from_bloch((1, 0, 0), 1)
    b = ball.effect_from_bloch((0, 1, 0), 1)
    v = psym_compat_test(ball, a, b)
    assert v.verdict == "incompatible"
    assert abs(v.criterion - 2 * math.sqrt(2)) < 1e-12
    same = psym_compat_test(ball, a, a)
    assert same.verdict == "iff_compatible" and abs(same.criterion - 2.0) < 1e-12


def test_biased_pair_gets_necessary_verdict_only():
    sp = make_polygon(6)
    a = sp.effect_from_bloch((0.2, 0.0), 0.8)
    b = sp.effect_from_bloch((0.0, 0.2), 0.9)
    assert psym_compat_test(sp, a, b).verdict == "necessary_passed"


# --------------------------------------------------------- joint construction
def test_joint_construction_equal_effects():
    sp = make_polygon(6)
    a = unbiased_effect(sp, (1.0, 0.0))
    g = construct_joint_unbiased(sp, a, a)
    assert validate(g)
    ma = marginal(g, 0)
    for e, f in zip(ma.effects, dichotomic(sp, a).effects):
        assert all(abs(x - y) < 1e-12 for x, y in zip(e, f))
    # the mixed cells carry no Bloch component along a
    for z, e in zip(g.outcomes, g.effects):
        if z[0] != z[1]:
            avec, _ = sp.bloch(e)
            a_dir, _ = sp.bloch(a)
            cross = avec[0] * a_dir[1] - avec[1] * a_dir[0]
            proj = avec[0] * a_dir[0] + avec[1] * a_dir[1]
            assert abs(proj) < 1e-12 or abs(cross) < 1e-12  # opposite family only


def test_joint_construction_boundary_case():
    sp = make_polygon(6)
    rng = random.Random(55)
    # walk a pair to the criterion boundary and verify the construction there
    for _ in range(20):
        a_vec = random_unbiased_vec(sp, rng, 0.9)
        b_vec = random_unbiased_vec(sp, rng, 0.9)
        plus = sp.effect_norm([x + y for x, y in zip(a_vec, b_vec)])
        minus = sp.effect_norm([x - y for x, y in zip(a_vec, b_vec)])
        crit = plus + minus
        if crit <= 1e-6:
            continue
        scale = 2.0 / crit
        if scale * max(abs(x) for x in a_vec + b_vec) > 10:
            continue
        a = sp.effect_from_bloch([scale * x for x in a_vec], 1)
        b = sp.effect_from_bloch([scale * x for x in b_vec], 1)
        if not (sp.is_valid_effect(a) and sp.is_valid_effect(b)):
            continue
        g = construct_joint_unbiased(sp, a, b)
        assert all(sp.is_valid_effect(e) for e in g.effects)
        ma, mb = marginal(g, 0), marginal(g, 1)
        for got, eff in ((ma, a), (mb, b)):
            want = dichotomic(sp, eff)
            for e, f in zip(got.effects, want.effects):
                assert all(abs(x - y) < 1e-10 for x, y in zip(e, f))


def test_joint_construction_refuses_what_the_criterion_calls_incompatible():
    # a +/- b = (2x, 0, 0), (0, 2x, 0): criterion 4x = 2 + 5e-8, above the
    # float tolerance, so the pair is incompatible and no joint is built
    sp = make_ball(3)
    x = (2 + 5e-8) / 4
    a, b = sp.effect_from_bloch((x, x, 0.0), 1), sp.effect_from_bloch((x, -x, 0.0), 1)
    v = psym_compat_test(sp, a, b)
    assert v.verdict == "incompatible" and abs(v.criterion - (2 + 5e-8)) < 1e-12
    with pytest.raises(ValueError):
        construct_joint_unbiased(sp, a, b)


def test_joint_construction_random_pairs_marginal_error():
    rng = random.Random(7)
    for space in (make_polygon(6), make_ball(3)):
        done = 0
        while done < 25:
            if space.kind == "ball":
                v1 = [rng.gauss(0, 1) for _ in range(3)]
                v2 = [rng.gauss(0, 1) for _ in range(3)]
                n1 = math.sqrt(sum(x * x for x in v1))
                n2 = math.sqrt(sum(x * x for x in v2))
                a_vec = [rng.uniform(0, 0.7) * x / n1 for x in v1]
                b_vec = [rng.uniform(0, 0.7) * x / n2 for x in v2]
            else:
                a_vec = random_unbiased_vec(space, rng, 0.7)
                b_vec = random_unbiased_vec(space, rng, 0.7)
            plus = space.effect_norm([x + y for x, y in zip(a_vec, b_vec)])
            minus = space.effect_norm([x - y for x, y in zip(a_vec, b_vec)])
            if plus + minus > 2:
                continue
            done += 1
            a = space.effect_from_bloch(a_vec, 1)
            b = space.effect_from_bloch(b_vec, 1)
            g = construct_joint_unbiased(space, a, b)
            assert all(space.is_valid_effect(e) for e in g.effects)
            ma, mb = marginal(g, 0), marginal(g, 1)
            for got, eff in ((ma, a), (mb, b)):
                want = dichotomic(space, eff)
                err = max(abs(x - y) for e, f in zip(got.effects, want.effects)
                          for x, y in zip(e, f))
                assert err < 1e-10


# -------------------------------------------------------------- noise condition
def test_two_trivials_meet_noise_bound():
    sp = make_polygon(6)
    rep = noise_sufficient_compat([trivial_observable(sp, (0.5, 0.5)),
                                   trivial_observable(sp, (0.1, 0.9))])
    assert rep.verdict == "compatible"


def test_half_noisy_pair_compatible_and_joint_confirms():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    b = observable(sp, (polygon_extreme_even(6, 2), polygon_extreme_even(6, 5)))
    half_a = mix_observables((0.5, 0.5), (a, uniform_trivial(sp, 2)))
    half_b = mix_observables((0.5, 0.5), (b, uniform_trivial(sp, 2)))
    rep = noise_sufficient_compat([half_a, half_b])
    assert rep.verdict == "compatible"
    assert are_compatible([half_a, half_b]) is not None


def test_noiseless_pair_inconclusive():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    b = observable(sp, (polygon_extreme_even(6, 2), polygon_extreme_even(6, 5)))
    assert noise_sufficient_compat([a, b]).verdict == "inconclusive"


# ------------------------------------------------------------ fully compatible
def test_trivial_fully_compatible():
    sp = make_polygon(6)
    assert is_fully_compatible(trivial_observable(sp, (0.4, 0.6)))


def test_hexagon_extreme_pair_not_fully_compatible():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    assert not is_fully_compatible(a)


def test_pentagon_has_nontrivial_fully_compatible_member():
    sp = make_polygon(5)
    found = find_nontrivial_fully_compatible(sp)
    assert found is not None
    assert not is_trivial(found)
    assert is_fully_compatible(found)
    assert noise_content(found).w_trivial >= fc_noise_lower_bound(5) - 1e-6


# -------------------------------------------------------------- nondisturbing
def test_classical_observables_nondisturbing():
    sp = make_classical(3)
    rng = random.Random(3)
    blocks = pure_state_decomposition(sp)
    for _ in range(20):
        assert is_nondisturbing(random_observable(sp, rng.randint(2, 4), rng), blocks)


def test_polygon_nondisturbing_only_trivial():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    assert not is_nondisturbing(a)           # single-block decomposition
    assert is_nondisturbing(uniform_trivial(sp, 2))


def test_direct_sum_separations():
    ds = direct_sum([make_polygon(5), make_polygon(7)])
    u5 = make_polygon(5).unit
    u7 = make_polygon(7).unit
    indicator = observable(ds, (tuple([*u5, 0.0, 0.0, 0.0]),
                                tuple([0.0, 0.0, 0.0, *u7])))
    assert validate(indicator)
    assert is_nondisturbing(indicator)
    assert not is_trivial(indicator)


def test_inclusion_trivial_in_nondisturbing_and_fc():
    ds = direct_sum([make_polygon(5), make_polygon(7)])
    t = trivial_observable(ds, (0.3, 0.7))
    assert is_nondisturbing(t)
    sp = make_polygon(6)
    t6 = trivial_observable(sp, (0.3, 0.7))
    assert is_nondisturbing(t6) and is_fully_compatible(t6)


def test_bad_decomposition_rejected():
    sp = make_classical(3)
    t = trivial_observable(sp, (1.0,))
    with pytest.raises(ValueError):
        is_nondisturbing(t, [(0, 1)])  # misses vertex 2


# ------------------------------------------------------------- noise bounds
TABLE_BOUNDS = {5: 0.528, 7: 0.753, 9: 0.803, 11: 0.852, 13: 0.872}


def test_fc_noise_lower_bounds_match_reference():
    for n, want in TABLE_BOUNDS.items():
        assert abs(fc_noise_lower_bound(n) - want) < 1e-3


def test_fc_noise_bound_rejects_even():
    with pytest.raises(ValueError):
        fc_noise_lower_bound(6)


def test_compatibility_invariant_under_relabeling():
    sp = make_polygon(6)
    rng = random.Random(12)
    for _ in range(10):
        a = random_observable(sp, 2, rng)
        b = random_observable(sp, 2, rng)
        swapped = observable(sp, (b.effects[1], b.effects[0]))
        assert (are_compatible([a, b]) is None) == (are_compatible([a, swapped]) is None)
