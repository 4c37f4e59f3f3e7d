"""Observable predicates: validation, triviality, noise content, minimal
sufficiency, extremality, and the per-observable monotones."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gptwb.numerics import EXACT, FLOAT, dot
from gptwb.observables import (
    PreconditionViolated,
    apply_postprocessing,
    common_space,
    is_extreme_clean,
    is_indecomposable_effect,
    is_trivial,
    is_zero_effect,
    lambda_max_obs,
    lambda_min_obs,
    minimally_sufficient,
    mix_observables,
    noise_content,
    observable,
    observable_from_json,
    trivial_observable,
    uniform_trivial,
    validate,
)
from gptwb.spaces import (
    StateSpace,
    direct_sum,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
    polygon_extreme_odd,
    space_from_json,
)
from conftest import random_observable


def hexagon_pair():
    sp = make_polygon(6)
    return sp, observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))


# ------------------------------------------------------------------ validation
def test_trivial_observable_validates():
    sp = make_polygon(6)
    assert validate(trivial_observable(sp, (0.2, 0.3, 0.5)))


def test_hexagon_antipodal_pair_validates():
    _, a = hexagon_pair()
    assert validate(a)


def test_subnormalized_family_fails():
    """Effects that do not sum to u build no observable, on either backend,
    however they are built: given directly (no effects at all among them),
    as a trivial observable's probabilities, mixture weights or
    post-processing rows that do not sum to 1."""
    for sp in (make_polygon(6), make_square(EXACT)):
        ctx = sp.ctx
        t = trivial_observable(sp, ("1/2", "1/2"))
        assert validate(mix_observables(("1/4", "3/4"), (t, t)))
        assert validate(apply_postprocessing(((1, 0), ("1/2", "1/2")), t))
        builds = [lambda: observable(sp, [tuple(ctx.scalar("0.45") * u for u in sp.unit)] * 2),
                  lambda: observable(sp, []),
                  lambda: trivial_observable(sp, ("0.2", "0.3")),
                  lambda: mix_observables(("0.5", "0.4"), (t, t)),
                  lambda: apply_postprocessing(((1, 0), ("0.5", "0.4")), t)]
        for build in builds:
            with pytest.raises(ValueError, match="do not sum to the unit functional"):
                build()


# ------------------------------------------------------------------ triviality
def test_uniform_trivial_is_trivial():
    sp = make_polygon(6)
    assert is_trivial(uniform_trivial(sp, 2))
    assert is_trivial(observable(sp, [sp.unit]))


def test_extreme_pair_not_trivial():
    _, a = hexagon_pair()
    assert not is_trivial(a)


# --------------------------------------------------------------- noise content
def test_trivial_noise_content_is_one():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.25, 0.75))
    assert abs(noise_content(t).w_trivial - 1.0) < 1e-12


def test_extreme_pair_noise_content_zero():
    _, a = hexagon_pair()
    assert abs(noise_content(a).w_trivial) < 1e-9


def test_mixture_with_trivial_raises_noise():
    sp, a = hexagon_pair()
    mixed = mix_observables((0.5, 0.5), (a, uniform_trivial(sp, 2)))
    assert noise_content(mixed).w_trivial >= 0.5 - 1e-12


def test_mixture_needs_one_weight_per_part():
    """With one weight for two parts, zip would drop the second part and
    return 0.5 a."""
    sp, a = hexagon_pair()
    with pytest.raises(ValueError, match="1 weights for 2 parts"):
        mix_observables((0.5,), (a, uniform_trivial(sp, 2)))


def test_mixture_of_nothing_is_refused():
    with pytest.raises(ValueError, match="no observables"):
        mix_observables([], [])
    with pytest.raises(ValueError, match="no observables"):
        common_space([])


def test_common_space_compares_geometry_not_labels():
    """Spaces built apart with one context, kind, unit and vertex list are one
    space whatever their labels; a change of field, polygon or kind is not,
    and mix_observables refuses parts on two spaces."""
    sp, a = hexagon_pair()
    twin = StateSpace("polytopic", vertices=sp.vertices, unit=sp.unit)
    assert common_space([a, observable(twin, a.effects)]) is sp
    balls = [uniform_trivial(make_ball(3), 2) for _ in range(2)]
    assert common_space(balls) is balls[0].space
    for x, y in ((make_square(), make_square(EXACT)), (make_square(), make_polygon(4)),
                 (make_ball(3), make_ball(2)), (sp, make_ball(2))):
        with pytest.raises(ValueError, match="different spaces"):
            common_space([uniform_trivial(x, 2), uniform_trivial(y, 2)])
    with pytest.raises(ValueError, match="different spaces"):
        mix_observables((0.5, 0.5), (a, uniform_trivial(make_polygon(4), 2)))


@pytest.mark.parametrize("space", [make_polygon(4), make_square(EXACT)],
                         ids=["polygon4-float", "square-exact"])
def test_pickled_or_copied_observable_equals_itself(space):
    """A pickle or a deep copy rebuilds the space as a new object, which is
    still the same space: the copy equals its original and hashes alike.  A
    space with the same vertices listed in another order is not the same."""
    a = trivial_observable(space, (Fraction(1, 4), Fraction(3, 4)))
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert back.space is not a.space
        assert back == a and hash(back) == hash(a)
        assert common_space([back, a]) is back.space
    turned = StateSpace("polytopic", vertices=space.vertices[1:] + space.vertices[:1],
                        unit=space.unit, ctx=space.ctx)
    assert turned != space and space != turned
    with pytest.raises(ValueError, match="different spaces"):
        common_space([a, trivial_observable(turned, (Fraction(1, 4), Fraction(3, 4)))])


def test_noise_content_on_ball_closed_form():
    ball = make_ball(3)
    a = observable(ball, (ball.effect_from_bloch((0.6, 0, 0), 1),
                          ball.effect_from_bloch((-0.6, 0, 0), 1)))
    rep = noise_content(a)
    assert abs(rep.w_trivial - (1 - 0.6)) < 1e-12


def test_ball_monotones_closed_form():
    """Noise content, lambda_max, triviality and the zero test on balls, where
    an effect (a, alpha)/2 ranges over [(alpha - |a|)/2, (alpha + |a|)/2]."""
    ball3 = make_ball(3)
    a = observable(ball3, ((0.1, 0.2, 0.2, 0.5), (-0.1, -0.2, -0.2, 0.5)))  # |a| = 0.6
    assert abs(noise_content(a).w_trivial - 0.4) < 1e-12
    assert abs(lambda_max_obs(a) - 1.6) < 1e-12
    assert not is_trivial(a) and validate(a)
    t = trivial_observable(make_ball(2), (0.3, 0.7))
    assert abs(noise_content(t).w_trivial - 1.0) < 1e-12
    assert abs(lambda_max_obs(t) - 1.0) < 1e-12
    assert is_trivial(t)
    assert is_zero_effect(ball3, (0, 0, 0, 0))
    assert not is_zero_effect(ball3, (0.1, 0, 0, 0))


def test_noise_content_bounds_and_triviality():
    rng = random.Random(11)
    sp = make_polygon(6)
    for _ in range(50):
        a = random_observable(sp, rng.randint(2, 4), rng)
        w = noise_content(a).w_trivial
        assert -1e-9 <= w <= 1 + 1e-9
        if is_trivial(a):
            assert abs(w - 1) < 1e-9


def test_min_monotone_equals_negative_noise_content():
    """Identity between the observable min monotone and the noise content,
    checked on 200 random observables."""
    rng = random.Random(3)
    spaces = [make_polygon(5), make_polygon(6), make_classical(3)]
    for i in range(200):
        sp = spaces[i % 3]
        a = random_observable(sp, rng.randint(2, 4), rng)
        assert abs(lambda_min_obs(a) + noise_content(a).w_trivial) < 1e-12


# ------------------------------------------------------------------ monotones
def test_lambda_monotones_on_trivial():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.25, 0.75))
    assert abs(lambda_max_obs(t) - 1.0) < 1e-12
    assert abs(lambda_min_obs(t) + 1.0) < 1e-12


def test_lambda_max_on_hexagon_pair():
    sp, a = hexagon_pair()
    # independent evaluation of the extreme effects on all vertices
    expected = sum(max(dot(e, v) for v in sp.vertices) for e in a.effects)
    assert abs(expected - 2.0) < 1e-9
    assert abs(lambda_max_obs(a) - 2.0) < 1e-9


def test_lambda_monotones_on_simplex_distinguisher():
    sp = make_classical(3)
    ind = observable(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert abs(lambda_max_obs(ind) - 3.0) < 1e-12
    assert abs(lambda_min_obs(ind)) < 1e-12


# ------------------------------------------------------------ indecomposability
def test_hexagon_extreme_effect_indecomposable():
    sp = make_polygon(6)
    assert is_indecomposable_effect(sp, polygon_extreme_even(6, 1))


def test_unit_not_indecomposable():
    sp = make_polygon(6)
    assert not is_indecomposable_effect(sp, sp.unit)


def test_pentagon_upper_effect_decomposable():
    sp = make_polygon(5)
    g1 = polygon_extreme_odd(5, 1)
    f1 = tuple(u - x for u, x in zip(sp.unit, g1))
    assert not is_indecomposable_effect(sp, f1)  # vanishes at one vertex only


def test_functionals_off_the_dual_cone_not_indecomposable():
    sp = make_square(EXACT)
    # (x + y)/2 vanishes on the facet between (-1, 1) and (1, -1) but changes sign
    assert not is_indecomposable_effect(sp, sp.effect_from_bloch((1, 1), 0))
    # the negative of the ray (1 + y)/2, which vanishes on the facet y = -1
    assert not is_indecomposable_effect(sp, sp.effect_from_bloch((0, -1), -1))
    assert is_indecomposable_effect(sp, sp.effect_from_bloch((0, 1), 1))


def test_zero_effect_rejected():
    sp = make_polygon(6)
    with pytest.raises(ValueError):
        is_indecomposable_effect(sp, sp.zero_effect())


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0), st.integers(1, 6))
def test_indecomposability_scale_invariant(scale, k):
    sp = make_polygon(6)
    e = polygon_extreme_even(6, k)
    scaled = tuple(scale * x for x in e)
    assert is_indecomposable_effect(sp, scaled)


# ---------------------------------------------------------- minimal sufficiency
def test_merge_proportional_halves():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    e4 = polygon_extreme_even(6, 4)
    a = observable(sp, (tuple(0.5 * x for x in e1), tuple(0.5 * x for x in e1), e4))
    rep = minimally_sufficient(a)
    assert rep.n_outcomes == 2
    assert any(all(abs(x - y) < 1e-9 for x, y in zip(e, e1)) for e in rep.effects)


def test_minimal_observable_unchanged():
    _, a = hexagon_pair()
    rep = minimally_sufficient(a)
    assert rep.n_outcomes == 2
    assert set(rep.outcomes) == set(a.outcomes)


def test_trivial_merges_to_single_outcome():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.25, 0.75))
    rep = minimally_sufficient(t)
    assert rep.n_outcomes == 1
    assert all(abs(x - u) < 1e-12 for x, u in zip(rep.effects[0], sp.unit))


def test_zero_effects_dropped():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    e4 = polygon_extreme_even(6, 4)
    a = observable(sp, (e1, sp.zero_effect(), e4))
    assert minimally_sufficient(a).n_outcomes == 2


# ------------------------------------------------------------------ extremality
def test_hexagon_pair_extreme():
    _, a = hexagon_pair()
    assert is_extreme_clean(a)


def test_repeated_direction_not_extreme():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    e4 = polygon_extreme_even(6, 4)
    a = observable(sp, (tuple(0.5 * x for x in e1), tuple(0.5 * x for x in e1), e4))
    assert not is_extreme_clean(a)


def test_pentagon_trichotomic_extreme():
    from gptwb.simulation import enumerate_irreducibles

    sp = make_polygon(5)
    cand = enumerate_irreducibles(sp)[0]
    assert cand.n_outcomes == 3
    assert is_extreme_clean(cand)


def test_extreme_clean_precondition():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.5, 0.5))
    with pytest.raises(PreconditionViolated):
        is_extreme_clean(t)


# ---------------------------------------------------------------- serialization
def test_observable_json_round_trip():
    _, a = hexagon_pair()
    back = observable_from_json(a.to_json_dict())
    assert back.outcomes == a.outcomes
    for e, f in zip(back.effects, a.effects):
        assert all(abs(x - y) < 1e-12 for x, y in zip(e, f))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_observable_json_round_trip_on_labelled_custom_spaces(ctx):
    """A label is written as the space reference only where it rebuilds the
    same space; custom labels, a label borrowed by another space and a label
    read from a space dict round-trip through the space's dict."""
    bit = StateSpace("polytopic", vertices=[(1, 0), (0, 1)], unit=(1, 1), ctx=ctx, label="bit")
    wide = StateSpace("polytopic", vertices=[(2, 2, 1), (-2, 2, 1), (-2, -2, 1), (2, -2, 1)],
                      unit=(0, 0, 1), ctx=ctx, label="square")
    loaded = space_from_json({"kind": "polytopic", "vertices": [[1, 0], [0, 1]],
                              "unit": [1, 1], "label": "custom"}, ctx)
    for sp, ref in ((bit, None), (wide, None), (loaded, None), (make_square(ctx), "square")):
        a = trivial_observable(sp, (Fraction(1, 4), Fraction(3, 4)))
        obj = json.loads(json.dumps(a.to_json_dict()))
        assert obj["space_ref"] == (ref or sp.to_json_dict())
        back = observable_from_json(obj, ctx)
        common_space([back, a])  # the same space
        assert back.space.label == sp.label and back.effects == a.effects


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
@pytest.mark.parametrize("label", ["", "bit"], ids=["unlabelled", "labelled"])
def test_observable_json_round_trip_on_direct_sums_of_custom_spaces(ctx, label):
    """A direct sum whose label is no space reference is written as a dict
    with its summands and read back as the same direct sum."""
    bit = StateSpace("polytopic", vertices=[(1, 0), (0, 1)], unit=(1, 1), ctx=ctx, label=label)
    tri = StateSpace("polytopic", vertices=[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                     unit=(1, 1, 1), ctx=ctx, label=label)
    sp = direct_sum([bit, tri, bit])
    h, q = Fraction(1, 2), Fraction(1, 4)
    a = observable(sp, [[h] * 7, [h, 0, h, 0, q, h, 0], [0, h, 0, h, q, 0, h]])
    obj = json.loads(json.dumps(a.to_json_dict()))
    assert obj["space_ref"] == sp.to_json_dict()
    back = observable_from_json(obj, ctx)
    common_space([back, a])  # the same space
    assert back.space.label == sp.label and back.effects == a.effects
    assert back.outcomes == a.outcomes
    assert [(s.coord_offset, s.coord_dim, s.vertex_indices, s.space.vertices, s.space.unit)
            for s in back.space.summands] == \
        [(s.coord_offset, s.coord_dim, s.vertex_indices, s.space.vertices, s.space.unit)
         for s in sp.summands]
    assert back.space.extreme_effects() == sp.extreme_effects()
    # summands whose direct sum lists the vertices in another order are refused
    obj["space_ref"]["summands"][0]["vertex_indices"] = [1, 0]
    with pytest.raises(ValueError, match="summands"):
        observable_from_json(obj, ctx)
