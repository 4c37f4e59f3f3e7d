"""Joint measurability: LP vs closed-form criteria, noise condition, fully
compatible and non-disturbing classes."""

import math
import random
from fractions import Fraction

import pytest

from gptwb.numerics import EXACT
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
from gptwb.spaces import (
    direct_sum,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
)
from conftest import random_observable


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
    rng = random.Random(23)
    count = 0
    for n in (4, 5, 6, 7, 8):
        sp = make_polygon(n)
        for _ in range(12):
            a = random_observable(sp, 2, rng)
            b = random_observable(sp, 2, rng)
            margin = dichotomic_compat_margin(a, b)
            if abs(float(margin)) <= 1e-7:
                continue
            count += 1
            assert (dichotomic_compat_g(a, b) is not None) == \
                (are_compatible([a, b]) is not None)
    assert count >= 40


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
