"""Measure-and-prepare instruments and their post-processing order."""

import random

import pytest

from gptwb.instruments import (
    equiv_indecomposable_check,
    is_indecomposable_mp,
    mp_instrument,
    mp_instrument_from_json,
    mp_postprocess_check,
)
from gptwb.observables import is_trivial, observable, trivial_observable
from gptwb.spaces import make_ball, make_polygon, polygon_extreme_even
from conftest import random_observable


def hexagon_setup():
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    preps = (sp.vertices[0], sp.vertices[3])
    return sp, a, preps


def test_trash_and_prepare_is_trivial():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.4, 0.6))
    inst = mp_instrument(t, (sp.vertices[0], sp.vertices[1]), sp)
    assert is_trivial(inst.observable)


def test_prepared_state_outside_the_ball_rejected():
    ball = make_ball(3)
    a = observable(ball, ((0, 0, 0.3, 0.5), (0, 0, -0.3, 0.5)))
    with pytest.raises(ValueError):
        mp_instrument(a, [(0, 0, 1, 1), (0, 0, 2, 1)], ball)


def test_apply_returns_subnormalized_states():
    sp, a, preps = hexagon_setup()
    inst = mp_instrument(a, preps, sp)
    outs = inst.apply(sp.vertices[0])
    # weight of branch 0 at vertex 0 is e_1(s_1) = 1
    assert all(abs(x - y) < 1e-9 for x, y in zip(outs[0], preps[0]))


def test_prepared_state_outside_space_rejected():
    sp, a, _ = hexagon_setup()
    with pytest.raises(ValueError):
        mp_instrument(a, ((9.0, 9.0, 1.0), sp.vertices[0]), sp)


def test_postprocess_into_trash_and_prepare():
    sp, a, preps = hexagon_setup()
    inst = mp_instrument(a, preps, sp)
    trash = mp_instrument(trivial_observable(sp, (0.5, 0.5)),
                          (sp.vertices[1], sp.vertices[2]), sp)
    assert mp_postprocess_check(inst, trash)
    assert mp_postprocess_check(inst, inst)


def test_inequivalent_irreducibles_blocked():
    sp, a, preps = hexagon_setup()
    b = observable(sp, (polygon_extreme_even(6, 2), polygon_extreme_even(6, 5)))
    ia = mp_instrument(a, preps, sp)
    ib = mp_instrument(b, preps, sp)
    assert not mp_postprocess_check(ia, ib)


def test_preparations_do_not_affect_order():
    sp, a, preps = hexagon_setup()
    center = (0.0, 0.0, 1.0)
    ia = mp_instrument(a, preps, sp)
    ib = mp_instrument(a, (center, center), sp)
    assert mp_postprocess_check(ia, ib) and mp_postprocess_check(ib, ia)


def test_indecomposable_requires_pure_preparations():
    sp, a, preps = hexagon_setup()
    assert is_indecomposable_mp(mp_instrument(a, preps, sp))
    center = (0.0, 0.0, 1.0)
    assert not is_indecomposable_mp(mp_instrument(a, (center, preps[1]), sp))
    t = trivial_observable(sp, (0.5, 0.5))
    assert not is_indecomposable_mp(mp_instrument(t, preps, sp))


def test_equivalence_with_indecomposable():
    sp, a, preps = hexagon_setup()
    center = (0.0, 0.0, 1.0)
    mixed_preps = mp_instrument(a, (center, center), sp)
    assert equiv_indecomposable_check(mixed_preps)  # preparations irrelevant
    trash = mp_instrument(trivial_observable(sp, (0.5, 0.5)), preps, sp)
    assert not equiv_indecomposable_check(trash)
    e1, e2 = polygon_extreme_even(6, 1), polygon_extreme_even(6, 2)
    merged = observable(sp, (tuple(0.5 * (x + y) for x, y in zip(e1, e2)),
                             tuple(u - 0.5 * (x + y)
                                   for x, y, u in zip(e1, e2, sp.unit))))
    inst = mp_instrument(merged, preps, sp)
    assert not equiv_indecomposable_check(inst)


def test_indecomposable_implies_equivalent_with_indecomposable():
    rng = random.Random(2)
    sp = make_polygon(6)
    for _ in range(20):
        a = random_observable(sp, 2, rng)
        preps = (sp.vertices[rng.randrange(6)], sp.vertices[rng.randrange(6)])
        inst = mp_instrument(a, preps, sp)
        if is_indecomposable_mp(inst):
            assert equiv_indecomposable_check(inst)


def test_instrument_json_round_trip():
    sp, a, preps = hexagon_setup()
    inst = mp_instrument(a, preps, sp)
    obj = {"observable": a.to_json_dict(),
           "prepared_states": [list(map(float, s)) for s in preps],
           "output_space_ref": "polygon:6"}
    back = mp_instrument_from_json(obj)
    assert back.observable.outcomes == a.outcomes
    assert len(back.prepared_states) == 2
