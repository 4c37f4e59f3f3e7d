"""State-space construction, dual-cone geometry and serialization."""

import math
import random
from fractions import Fraction

import pytest

from gptwb.numerics import EXACT, dot, rank
from gptwb.spaces import (
    StateSpace,
    UnsupportedSpace,
    direct_sum,
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


# -------------------------------------------------------------- extreme effects
def test_extreme_effect_counts():
    assert len(make_polygon(6).extreme_effects()) == 6
    assert len(make_polygon(5).extreme_effects()) == 10   # lower and upper families
    assert len(make_classical(3).extreme_effects()) == 6  # cube vertices minus o, u


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


def test_contains_state():
    sp = make_polygon(6)
    assert sp.contains_state((0.0, 0.0, 1.0))
    assert sp.contains_state(sp.vertices[0])
    assert not sp.contains_state((polygon_radius(6) * 1.1, 0.0, 1.0))


def test_triangle_polygon_matches_classical_relations():
    """polygon:3 and classical:3 are linearly isomorphic; mapped observables
    give identical relation verdicts."""
    from gptwb.numerics import solve_unique
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
