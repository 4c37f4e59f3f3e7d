"""Post-processing relation: LP witnesses, equivalence, cleanliness."""

import random

import pytest

from gptwb.numerics import EXACT, is_row_stochastic
from gptwb.observables import (
    apply_postprocessing,
    is_trivial,
    minimally_sufficient,
    observable,
    trivial_observable,
)
from gptwb.postprocess import are_pp_equivalent, find_postprocessing, is_pp_clean
from gptwb.spaces import make_classical, make_polygon, make_square, polygon_extreme_even
from conftest import random_observable


def hexagon_pair(k1=1, k2=4):
    sp = make_polygon(6)
    return sp, observable(sp, (polygon_extreme_even(6, k1), polygon_extreme_even(6, k2)))


def assert_witness_ok(nu, source, target):
    assert is_row_stochastic(nu)
    rebuilt = apply_postprocessing(nu, source)
    for e, f in zip(rebuilt.effects, target.effects):
        assert all(abs(x - y) < 1e-8 for x, y in zip(e, f))


def test_postprocessing_needs_one_row_per_source_outcome():
    """One row for a two-outcome source would drop its second effect and
    three rows would read a third that is not there."""
    _, b = hexagon_pair()
    for nu in (((1.0, 0.0),), ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))):
        with pytest.raises(ValueError, match=f"{len(nu)} post-processing rows for 2 outcomes"):
            apply_postprocessing(nu, b)


def test_postprocessing_rows_of_one_length():
    """A longer second row would have its last entry ignored."""
    _, b = hexagon_pair()
    with pytest.raises(ValueError, match="rows differ in length"):
        apply_postprocessing(((1.0, 0.0), (0.0, 0.5, 0.5)), b)


@pytest.mark.parametrize("space", [make_polygon(6), make_square(EXACT)],
                         ids=["polygon6", "exact-square"])
def test_postprocessing_rows_must_not_be_empty(space):
    """A nu with empty rows maps to no outcome: its image has no effects,
    which cannot sum to the unit."""
    with pytest.raises(ValueError, match="rows are empty"):
        apply_postprocessing([[]], observable(space, [space.unit]))


def test_any_observable_reaches_any_trivial():
    sp, a = hexagon_pair()
    t = trivial_observable(sp, (0.3, 0.3, 0.4))
    nu = find_postprocessing(a, t)
    assert nu is not None
    assert_witness_ok(nu, a, t)


def test_identity_postprocessing():
    _, a = hexagon_pair()
    nu = find_postprocessing(a, a)
    assert nu is not None
    assert_witness_ok(nu, a, a)


def test_inequivalent_extreme_pairs():
    sp, a = hexagon_pair(1, 4)
    _, b = hexagon_pair(2, 5)
    assert find_postprocessing(a, b) is None
    assert find_postprocessing(b, a) is None


def test_relabeling_is_equivalence():
    sp, a = hexagon_pair()
    swapped = observable(sp, (a.effects[1], a.effects[0]))
    assert are_pp_equivalent(a, swapped)


def test_equivalence_with_minimally_sufficient():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    e4 = polygon_extreme_even(6, 4)
    a = observable(sp, (tuple(0.5 * x for x in e1), tuple(0.5 * x for x in e1), e4))
    assert are_pp_equivalent(a, minimally_sufficient(a))


def test_proportional_with_mismatched_weights_not_equivalent():
    """Two clean observables with pairwise proportional effects but different
    weight patterns are inequivalent."""
    sp = make_polygon(6)
    e1, e2 = polygon_extreme_even(6, 1), polygon_extreme_even(6, 2)
    e4, e5 = polygon_extreme_even(6, 4), polygon_extreme_even(6, 5)
    half = lambda e: tuple(0.5 * x for x in e)
    third = lambda e: tuple(x / 3 for x in e)
    two_thirds = lambda e: tuple(2 * x / 3 for x in e)
    a = observable(sp, (half(e1), half(e4), half(e2), half(e5)))
    b = observable(sp, (third(e1), third(e4), two_thirds(e2), two_thirds(e5)))
    assert is_pp_clean(a) and is_pp_clean(b)
    assert not are_pp_equivalent(a, b)


def test_pp_clean_examples():
    sp, a = hexagon_pair()
    assert is_pp_clean(a)
    assert not is_pp_clean(trivial_observable(sp, (0.5, 0.5)))
    withu = observable(sp, (tuple(0.5 * u for u in sp.unit),
                            tuple(0.5 * u for u in sp.unit)))
    assert not is_pp_clean(withu)


def test_transitivity_on_random_triples():
    rng = random.Random(21)
    sp = make_polygon(6)
    hits = 0
    for _ in range(30):
        b = random_observable(sp, 3, rng)
        nu1 = [[0.0] * 2 for _ in range(3)]
        for y in range(3):  # random merge of 3 outcomes into 2
            t = rng.random()
            nu1[y][0], nu1[y][1] = t, 1 - t
        a = apply_postprocessing(nu1, b)
        nu2 = [[0.7, 0.3], [0.2, 0.8]]
        c = apply_postprocessing(nu2, a)
        # composition is a witness for b -> c; the LP must agree
        assert find_postprocessing(b, a) is not None
        assert find_postprocessing(a, c) is not None
        assert find_postprocessing(b, c) is not None
        hits += 1
    assert hits == 30


def test_equivalence_implies_proportional_effects():
    """Equivalent observables pair nonzero effects up to positive scale; check
    on witness support."""
    sp, a = hexagon_pair()
    scaledsplit = observable(
        sp, (tuple(0.25 * x for x in a.effects[0]),
             tuple(0.75 * x for x in a.effects[0]), a.effects[1]))
    assert are_pp_equivalent(a, scaledsplit)
    for e in scaledsplit.effects:
        ratios = []
        for f in a.effects:
            j = max(range(3), key=lambda i: abs(f[i]))
            c = e[j] / f[j]
            if c > 1e-12 and all(abs(e[i] - c * f[i]) < 1e-9 for i in range(3)):
                ratios.append(c)
        assert ratios  # every nonzero effect is proportional to some effect of a


def test_postprocessing_of_trivial_stays_trivial():
    sp = make_polygon(6)
    t = trivial_observable(sp, (0.6, 0.4))
    nu = [[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]]
    image = apply_postprocessing(nu, t)
    assert is_trivial(image)


def test_exact_backend_agreement_on_classical():
    from gptwb.numerics import EXACT
    from conftest import random_rational_observable

    rng = random.Random(8)
    spf = make_classical(3)
    spe = make_classical(3, EXACT)
    for _ in range(20):
        a_e = random_rational_observable(spe, 2, rng)
        b_e = random_rational_observable(spe, 3, rng)
        a_f = observable(spf, [[float(x) for x in e] for e in a_e.effects])
        b_f = observable(spf, [[float(x) for x in e] for e in b_e.effects])
        assert (find_postprocessing(b_e, a_e) is None) == \
            (find_postprocessing(b_f, a_f) is None)
