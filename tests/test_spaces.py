"""State-space construction, dual-cone geometry and serialization."""

import json
import math
import random
from fractions import Fraction

import pytest

from gptwb.communication import space_dims
from gptwb.compatibility import (
    are_compatible,
    construct_joint_unbiased,
    dichotomic_compat_g,
    dichotomic_compat_margin,
    is_nondisturbing,
    psym_compat_test,
)
from gptwb.instruments import is_indecomposable_mp, mp_instrument
from gptwb.numerics import EXACT, FLOAT, LPProblem, dot, rank
from gptwb.observables import is_zero_effect, observable
from gptwb.simulation import (
    effect_in_depolarized_class,
    effect_in_noise_class,
    enumerate_irreducibles,
    is_effectively_dichotomic,
)
from gptwb.spaces import (
    StateSpace,
    UnsupportedSpace,
    direct_sum,
    effect_block,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
    polygon_extreme_odd,
    polygon_radius,
    space_from_json,
    space_from_ref,
)


# frozen from the closed form sqrt(sec(pi/n))
R4 = 1.1892071150027210
R6 = 1.0745699318235423


def test_polygon_radius_values():
    assert abs(polygon_radius(4) - R4) < 1e-12
    assert abs(polygon_radius(6) - R6) < 1e-12
    # independent evaluation
    assert abs(polygon_radius(4) - math.sqrt(1 / math.cos(math.pi / 4))) < 1e-15


def test_polygon_vertices_at_unit_height():
    for n in (3, 4, 5, 6, 9):
        sp = make_polygon(n)
        assert sp.n_vertices == n
        for v in sp.vertices:
            assert abs(dot(sp.unit, v) - 1.0) < 1e-12


def test_polygon_rejects_small_n_and_exact_backend():
    with pytest.raises(ValueError):
        make_polygon(2)
    with pytest.raises(UnsupportedSpace):
        make_polygon(5, EXACT)


def test_polytopic_space_refuses_no_vertices_and_ragged_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        StateSpace("polytopic", vertices=[], unit=[0, 1])
    with pytest.raises(ValueError, match="vertex 0 has 2 coordinates, the unit 3"):
        StateSpace("polytopic", vertices=[[0, 1], [1, 0, 1], [2, 1, 0]], unit=[0, 1, 1])


def test_classical_shapes():
    bit = make_classical(2)
    assert bit.n_vertices == 2 and bit.affine_dim == 1
    point = make_classical(1)
    assert point.affine_dim == 0
    with pytest.raises(ValueError):
        make_classical(0)


def test_classical3_matches_triangle_dimensions():
    tri = make_classical(3)
    poly = make_polygon(3)
    assert tri.affine_dim == poly.affine_dim == 2
    assert tri.n_vertices == poly.n_vertices == 3


def test_ball_effect_validity():
    ball = make_ball(3)
    assert ball.is_valid_effect(ball.effect_from_bloch((1, 0, 0), 1))
    assert not ball.is_valid_effect(ball.effect_from_bloch((1.5, 0, 0), 1))
    assert ball.is_valid_effect(ball.effect_from_bloch((0, 0, 0), 2))
    assert not ball.is_valid_effect(ball.effect_from_bloch((0.5, 0, 0), 1.8))


def test_disc_limit_of_polygons():
    """Effect validity on the 64-gon agrees with the Euclidean disc away from
    the boundary band (the polygon norm converges to the Euclidean one)."""
    disc = make_ball(2)
    poly = make_polygon(64)
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        a = (rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        alpha = rng.uniform(0.0, 2.0)
        na = math.hypot(*a)
        slack = min(alpha - na, 2 - na - alpha)
        if abs(slack) < 0.02:
            continue  # boundary band where the norms may disagree
        checked += 1
        assert disc.is_valid_effect(disc.effect_from_bloch(a, alpha)) == \
            poly.is_valid_effect(poly.effect_from_bloch(a, alpha))
    assert checked > 150


# ------------------------------------------------------------------ dual rays
def test_hexagon_rays_match_closed_form():
    sp = make_polygon(6)
    rays = sp.dual_rays()
    assert len(rays) == 6
    for k in range(1, 7):
        e = polygon_extreme_even(6, k)
        assert any(all(abs(a - b) < 1e-9 for a, b in zip(e, r.direction)) for r in rays)


def test_pentagon_rays_match_closed_form():
    sp = make_polygon(5)
    rays = sp.dual_rays()
    assert len(rays) == 5
    for k in range(1, 6):
        g = polygon_extreme_odd(5, k)
        assert any(all(abs(a - b) < 1e-9 for a, b in zip(g, r.direction)) for r in rays)


def test_simplex_rays_are_indicators():
    tri = make_classical(3, EXACT)
    dirs = {r.direction for r in tri.dual_rays()}
    assert dirs == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_ray_positivity_and_vanishing_rank():
    for n in (4, 5, 6, 7):
        sp = make_polygon(n)
        for ray in sp.dual_rays():
            evals = [dot(ray.direction, v) for v in sp.vertices]
            assert all(e >= -1e-9 for e in evals)
            assert abs(max(evals) - 1.0) < 1e-9
            vanishing = [sp.vertices[j] for j in ray.vanishing_vertices]
            assert rank(vanishing) == sp.affine_dim


def test_even_polygon_antipodal_ray_pairing():
    for n in (4, 6, 8):
        sp = make_polygon(n)
        rays = [r.direction for r in sp.dual_rays()]
        for r in rays:
            comp = tuple(u - x for u, x in zip(sp.unit, r))
            assert any(all(abs(a - b) < 1e-9 for a, b in zip(comp, s)) for s in rays)


def test_dual_rays_unsupported_for_high_dimension():
    # a non-simplex 4-dimensional polytope: cross-polytope-like vertex set
    one = 1.0
    vs = []
    for c in range(4):
        for s in (+one, -one):
            v = [0.0] * 4 + [1.0]
            v[c] = s
            vs.append(tuple(v))
    sp = StateSpace("polytopic", vertices=vs, unit=(0, 0, 0, 0, 1))
    with pytest.raises(UnsupportedSpace):
        sp.dual_rays()


# ---------------------------------------------------------------- direct sums
def test_point_plus_segment_is_triangle():
    s = direct_sum([make_classical(1), make_classical(2)])
    assert s.n_vertices == 3
    assert s.affine_dim == 2
    assert s.is_simplex()


def test_single_summand_is_identity():
    sp = make_polygon(5)
    assert direct_sum([sp]) is sp


def test_pentagon_plus_heptagon():
    s = direct_sum([make_polygon(5), make_polygon(7)])
    assert s.n_vertices == 12
    assert s.ambient_dim == 6
    assert len(s.dual_rays()) == 12


def test_direct_sum_rejects_balls():
    with pytest.raises(UnsupportedSpace):
        direct_sum([make_ball(2), make_classical(2)])


BALL = make_ball(3)
BALL_X = observable(BALL, (BALL.effect_from_bloch((1, 0, 0), 1),
                           BALL.effect_from_bloch((-1, 0, 0), 1)))
BALL_Y = observable(BALL, (BALL.effect_from_bloch((0, 1, 0), 1),
                           BALL.effect_from_bloch((0, -1, 0), 1)))
HEXAGON_PAIR = observable(make_polygon(6), (polygon_extreme_even(6, 1),
                                            polygon_extreme_even(6, 4)))
# the rebit trine: each effect peaks at 2/3 and lambda_max = 2, so neither
# screen of is_effectively_dichotomic decides it
REBIT = make_ball(2)
REBIT_TRINE = observable(REBIT, [REBIT.effect_from_bloch(
    (2 / 3 * math.cos(2 * math.pi * k / 3), 2 / 3 * math.sin(2 * math.pi * k / 3)), 2 / 3)
    for k in range(3)])


@pytest.mark.parametrize("call", [
    lambda: BALL.dual_rays(),
    lambda: BALL.extreme_ray(BALL.unit),
    lambda: BALL.extreme_effects(),
    lambda: BALL.n_vertices,
    lambda: BALL.vertex_index_of((0, 0, 0, 1)),
    lambda: effect_block(LPProblem(n=0), BALL, 2),
    lambda: are_compatible([BALL_X, BALL_Y]),
    lambda: dichotomic_compat_g(BALL_X, BALL_Y),
    lambda: dichotomic_compat_margin(BALL_X, BALL_Y),
    lambda: enumerate_irreducibles(BALL),
    lambda: is_effectively_dichotomic(REBIT_TRINE),
    lambda: is_nondisturbing(BALL_X),
    lambda: space_dims(BALL),
    lambda: is_indecomposable_mp(mp_instrument(HEXAGON_PAIR, [BALL.unit] * 2, BALL)),
    lambda: direct_sum([BALL]),
    lambda: psym_compat_test(make_polygon(5), polygon_extreme_odd(5, 1),
                             polygon_extreme_odd(5, 2)),
    lambda: construct_joint_unbiased(make_polygon(5), polygon_extreme_odd(5, 1),
                                     polygon_extreme_odd(5, 2)),
], ids=["dual_rays", "extreme_ray", "extreme_effects", "n_vertices", "vertex_index_of",
        "effect_block", "are_compatible", "dichotomic_compat_g", "dichotomic_compat_margin",
        "enumerate_irreducibles", "is_effectively_dichotomic", "is_nondisturbing",
        "space_dims", "is_indecomposable_mp", "direct_sum", "psym_compat_test",
        "construct_joint_unbiased"])
def test_vertex_and_psym_operations_refuse_other_spaces(call):
    """Operations that read the vertex list raise UnsupportedSpace on the
    qubit ball, and the point-symmetric criteria on the pentagon."""
    with pytest.raises(UnsupportedSpace):
        call()


@pytest.mark.parametrize("ref, symmetric", [
    ("classical:1", True), ("classical:2", False), ("classical:3", False), ("square", True),
    ("polygon:4", True), ("polygon:5", False), ("polygon:6", True), ("polygon:7", False),
    ("ball:2", True), ("dsum:square+classical:2", False), ("dsum:polygon:6+polygon:6", False),
])
def test_point_symmetry_is_read_off_the_space(ref, symmetric):
    """A ball, or u = (0, ..., 0, 1) with the vertices closed under
    v -> (-v[:-1], 1); a single point (classical:1) is its own mirror image."""
    assert space_from_ref(ref).psym is symmetric


Q, H = Fraction(1, 4), Fraction(1, 2)


def _unlabelled_round_trip(sp):
    bare = StateSpace("polytopic", vertices=sp.vertices, unit=sp.unit, ctx=sp.ctx)
    return space_from_json(json.loads(json.dumps(bare.to_json_dict())), sp.ctx)


@pytest.mark.parametrize("sp, pairs", [
    (make_polygon(6), [(polygon_extreme_even(6, 1), polygon_extreme_even(6, 2)),
                       (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)),
                       ((0.1, 0.2, 0.5), (-0.2, 0.1, 0.5)), ((0.1, 0.0, 0.4), (0.0, 0.1, 0.45))]),
    (make_square(EXACT), [((Q, Q, H), (Q, -Q, H)), ((H, 0, H), (0, H, H)),
                          ((Q / 2, 0, Q), (0, 0, H))]),
], ids=["hexagon", "exact-square"])
def test_point_symmetry_survives_a_json_round_trip(sp, pairs):
    """An unlabelled space read back from its own dict is point-symmetric
    too, and the closed-form criteria answer on it as on the original."""
    back = _unlabelled_round_trip(sp)
    assert back.psym
    for a, b in pairs:
        assert psym_compat_test(back, a, b) == psym_compat_test(sp, a, b)
        assert (effect_in_depolarized_class(back, a, Fraction(1, 2))
                == effect_in_depolarized_class(sp, a, Fraction(1, 2)))


@pytest.mark.parametrize("sp", [make_polygon(5), direct_sum([make_square(), make_square()])],
                         ids=["pentagon", "dsum"])
def test_point_symmetric_criteria_refuse_asymmetric_spaces(sp):
    e = tuple(x / 2 for x in sp.unit)
    for space in (sp, _unlabelled_round_trip(sp)):
        with pytest.raises(UnsupportedSpace):
            psym_compat_test(space, e, e)
        with pytest.raises(UnsupportedSpace):
            effect_in_depolarized_class(space, e, 0.5)


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_single_point_criterion_agrees_with_the_joint_lp(ctx):
    """On classical:1 every effect is p u and every pair is compatible; the
    norm criterion reads 0 there."""
    sp = make_classical(1, ctx)
    half, third = ctx.one() / 2, ctx.one() / 3
    assert psym_compat_test(sp, (half,), (half,)).verdict == "iff_compatible"
    assert psym_compat_test(sp, (half,), (third,)).verdict == "necessary_passed"
    for a, b in (((half,), (half,)), ((half,), (third,))):
        pair = [observable(sp, (e, (ctx.one() - e[0],))) for e in (a, b)]
        assert are_compatible(pair) is not None


def test_effectively_dichotomic_screens_answer_on_balls():
    """The screens hold in any GPT: a two-outcome ball observable is yes by
    screen_a without the vertex list."""
    verdict = is_effectively_dichotomic(BALL_X)
    assert verdict.value and verdict.via == "screen_a"


def test_direct_sum_effect_validity_is_blockwise():
    s = direct_sum([make_classical(2), make_classical(2)])
    e = (0.3, 0.8, 0.1, 0.9)
    assert s.is_valid_effect(e)
    assert not s.is_valid_effect((1.2, 0.8, 0.1, 0.9))


# ------------------------------------------------------------ effect validity
def test_unit_and_zero_effects_valid():
    for sp in (make_polygon(6), make_classical(4)):
        assert sp.is_valid_effect(sp.unit)
        assert sp.is_valid_effect(sp.zero_effect())


def test_hexagon_extreme_effect_validity():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    assert sp.is_valid_effect(e1)
    assert not sp.is_valid_effect(tuple(1.1 * x for x in e1))


def test_effect_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        make_polygon(6).is_valid_effect((0.5, 0.5))


@pytest.mark.parametrize("space", [make_polygon(6), make_ball(2)], ids=["hexagon", "disc"])
@pytest.mark.parametrize("effect", [(0, 0, 0.5, 9.0), (0.0, 0.0)], ids=["long", "short"])
@pytest.mark.parametrize("call", [
    lambda sp, e: sp.is_valid_effect(e),
    lambda sp, e: sp.effect_range(e),
    lambda sp, e: sp.bloch(e),
    lambda sp, e: is_zero_effect(sp, e),
    lambda sp, e: effect_in_noise_class(sp, e, 1),
    lambda sp, e: effect_in_depolarized_class(sp, e, 0.5),
    lambda sp, e: psym_compat_test(sp, e, (0, 0, 0.5)),
    lambda sp, e: psym_compat_test(sp, (0, 0, 0.5), e),
], ids=["is_valid_effect", "effect_range", "bloch", "is_zero_effect", "noise_class",
        "depolarized_class", "psym_compat_first", "psym_compat_second"])
def test_effects_of_the_wrong_length_are_refused(space, effect, call):
    """An effect's geometry is read through effect_range or bloch, and both
    refuse a functional with more or fewer coordinates than the space,
    rather than reading its first coordinates (dot and zip stop at the
    shorter vector)."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        call(space, effect)


# -------------------------------------------------------------- extreme effects
def test_extreme_effect_counts():
    """An even n-gon's extreme effects are the n points
    ``polygon_extreme_even``; an odd one's the n lower points
    ``polygon_extreme_odd`` and their n complements.  Compared as sets."""
    for n in range(3, 13):
        sp = make_polygon(n)
        if n % 2 == 0:
            want = [polygon_extreme_even(n, k) for k in range(1, n + 1)]
        else:
            lower = [polygon_extreme_odd(n, k) for k in range(1, n + 1)]
            want = lower + [tuple(u - x for u, x in zip(sp.unit, g)) for g in lower]
        got = sp.extreme_effects()
        assert len(got) == len(want), n
        for e in want:
            assert sum(all(abs(a - b) <= 1e-12 for a, b in zip(e, f)) for f in got) == 1, n
    assert len(make_classical(3).extreme_effects()) == 6  # cube vertices minus o, u


@pytest.mark.parametrize("ref,ctx", [("dsum:classical:1+square", EXACT),
                                     ("dsum:classical:2+classical:3", EXACT),
                                     ("dsum:classical:2+square", FLOAT),
                                     ("dsum:polygon:5+classical:1", FLOAT)],
                         ids=["1+square-exact", "2+3-exact", "2+square-float", "pentagon+1-float"])
def test_direct_sum_extreme_effects_match_vertex_enumeration(ref, ctx):
    """The blockwise extreme effects of a direct sum are the set that vertex
    enumeration finds on the same vertices without the summand structure (in
    another order, so the sets are compared)."""
    sp = space_from_ref(ref, ctx)
    flat = StateSpace("polytopic", vertices=sp.vertices, unit=sp.unit, ctx=ctx)
    got, want = sp.extreme_effects(), flat.extreme_effects()
    assert len(got) == len(want) == len(set(got))
    for e in want:
        assert any(all(ctx.eq(a, b) for a, b in zip(e, f)) for f in got)


def test_direct_sum_extreme_effect_count():
    # (10 + 2)(14 + 2) - 2: o, u or one of the summand's extreme effects per block
    assert len(space_from_ref("dsum:polygon:5+polygon:7").extreme_effects()) == 190


def test_pentagon_extremes_include_complements():
    sp = make_polygon(5)
    ext = sp.extreme_effects()
    g1 = polygon_extreme_odd(5, 1)
    f1 = tuple(u - x for u, x in zip(sp.unit, g1))
    for target in (g1, f1):
        assert any(all(abs(a - b) < 1e-9 for a, b in zip(target, e)) for e in ext)


# --------------------------------------------------------------- serialization
def test_space_refs_round_trip():
    for ref in ("classical:3", "polygon:6", "ball:3", "square",
                "dsum:polygon:5+polygon:7"):
        sp = space_from_ref(ref)
        assert sp.label in (ref, "square") or sp.label.startswith("dsum")


def test_space_json_round_trip():
    sp = make_square(EXACT)
    obj = sp.to_json_dict()
    back = space_from_json(obj, EXACT)
    assert back.vertices == sp.vertices
    assert back.unit == sp.unit


def test_ball_json_round_trip_and_unknown_norm():
    back = space_from_json(make_ball(3).to_json_dict())
    assert back.kind == "ball" and back.ball_dim == 3
    with pytest.raises(ValueError, match="norm"):
        space_from_json({"kind": "ball", "dim": 3, "norm": "l1"})


def test_contains_state():
    sp = make_polygon(6)
    assert sp.contains_state((0.0, 0.0, 1.0))
    assert sp.contains_state(sp.vertices[0])
    assert not sp.contains_state((polygon_radius(6) * 1.1, 0.0, 1.0))


@pytest.mark.parametrize("space,state", [
    (make_classical(3), (0.5, 0.5)),
    (make_classical(3), (0.25, 0.25, 0.25, 0.25)),
    (make_ball(3), (0.0, 1.0)),
    (make_ball(3), (0.0, 0.0, 0.0, 0.0, 1.0)),
], ids=["classical-short", "classical-long", "ball-short", "ball-long"])
def test_contains_state_checks_the_length(space, state):
    """A state of the wrong length is refused, as an effect is, rather than
    read as a shorter or longer vector."""
    with pytest.raises(ValueError, match="dimension"):
        space.contains_state(state)
    with pytest.raises(ValueError, match="dimension"):
        mp_instrument(observable(space, [space.unit]), [state], space)


def test_triangle_polygon_matches_classical_relations():
    """polygon:3 and classical:3 are linearly isomorphic; mapped observables
    give identical relation verdicts."""
    from gptwb.observables import observable
    from gptwb.postprocess import find_postprocessing
    from gptwb.compatibility import are_compatible
    from conftest import random_observable

    poly = make_polygon(3)
    cl = make_classical(3)
    # effect transport: e'(delta_k) = e(p_k), i.e. e' = P^T e with the polygon
    # vertices as the columns of P
    def transport(e):
        return tuple(dot(e, v) for v in poly.vertices)

    rng = random.Random(19)
    for _ in range(10):
        a = random_observable(poly, 2, rng)
        b = random_observable(poly, 3, rng)
        a_cl = observable(cl, [transport(e) for e in a.effects])
        b_cl = observable(cl, [transport(e) for e in b.effects])
        assert (find_postprocessing(b, a) is None) == \
            (find_postprocessing(b_cl, a_cl) is None)
        assert (are_compatible([a, b]) is None) == \
            (are_compatible([a_cl, b_cl]) is None)


def test_effect_norm_stays_in_the_space_field():
    norm = make_square(EXACT).effect_norm((Fraction(1, 3), Fraction(1, 7)))
    assert isinstance(norm, Fraction) and norm == Fraction(10, 21)
    assert isinstance(make_square().effect_norm((1, 0)), float)


def test_effect_range_on_the_exact_square():
    e = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 2))  # 1/2 + x/4 + y/8 on (+-1, +-1)
    lo, hi = make_square(EXACT).effect_range(e)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert (lo, hi) == (Fraction(1, 8), Fraction(7, 8))
