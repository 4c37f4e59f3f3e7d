"""Simulation closure, irreducible enumeration, and the noise restrictions."""

import random
from fractions import Fraction

import pytest

from gptwb import simulation
from gptwb.compatibility import is_fully_compatible
from gptwb.numerics import EXACT, FLOAT, LPProblem, lp_solve
from gptwb.observables import (
    apply_postprocessing,
    is_trivial,
    mix_observables,
    noise_content,
    observable,
    trivial_observable,
    uniform_trivial,
)
from gptwb.postprocess import find_postprocessing
from gptwb.simulation import (
    SimWitness,
    dichotomic_generators,
    effect_in_depolarized_class,
    effect_in_noise_class,
    enumerate_irreducibles,
    is_effectively_dichotomic,
    is_simulable,
    is_simulation_irreducible,
    noise_class_gap_observable,
    ntomic_screen,
    observable_in_noise_class,
    range_in_effect_class,
    unambiguous_qubit_bounds,
    verify_sim_witness,
)
from gptwb.spaces import (
    StateSpace,
    UnsupportedSpace,
    effect_block,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
    polygon_extreme_odd,
    space_from_ref,
)
from conftest import cube4, padded_square, random_observable, random_rational_observable


def hexagon_pair(k1=1, k2=4):
    sp = make_polygon(6)
    return sp, observable(sp, (polygon_extreme_even(6, k1), polygon_extreme_even(6, k2)))


# -------------------------------------------------------------- simulability
def test_self_simulation():
    _, a = hexagon_pair()
    w = is_simulable(a, [a])
    assert w is not None and verify_sim_witness(a, [a], w)


def test_simulation_needs_one_space_whatever_the_labels():
    """An unlabelled square and an unlabelled triangle share the empty label
    and both admit these effects, but they are two spaces."""
    effects = ((0.2, 0, 0.4), (-0.2, 0, 0.6))
    square = StateSpace("polytopic", vertices=[(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                        unit=(0, 0, 1))
    triangle = StateSpace("polytopic", vertices=[(2, 0, 1), (-1, 2, 1), (-1, -2, 1)],
                          unit=(0, 0, 1))
    with pytest.raises(ValueError, match="different spaces"):
        is_simulable(observable(square, effects), [observable(triangle, effects)])


def test_square_random_observables_from_two_irreducibles():
    sp = make_polygon(4)
    irr = enumerate_irreducibles(sp)
    assert len(irr) == 2
    rng = random.Random(42)
    for _ in range(50):
        target = random_observable(sp, rng.randint(2, 4), rng)
        w = is_simulable(target, irr)
        assert w is not None and verify_sim_witness(target, irr, w)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_witness_resubstitutes_every_outcome(n):
    """The last column of each witness matrix is rebuilt from p_i and the
    others, and the target's last outcome has no LP row: the witness must
    still reproduce every outcome, the last included, with rows summing to
    p_i; so must the witness for the one-outcome target."""
    sp = make_polygon(n)
    irr = enumerate_irreducibles(sp)
    rng = random.Random(n)
    targets = [random_observable(sp, k, rng) for k in (2, 3, 4) for _ in range(3)]
    targets += [observable(sp, (sp.unit,)), *irr]
    for target in targets:
        w = is_simulable(target, irr)
        assert w is not None and verify_sim_witness(target, irr, w)
        last = [sum(m[y][-1] * b.effects[y][c] for m, b in zip(w.matrices, irr)
                    for y in range(b.n_outcomes)) for c in range(sp.ambient_dim)]
        assert all(abs(x - t) <= 1e-9 for x, t in zip(last, target.effects[-1]))
    w = is_simulable(observable(sp, (sp.unit,)), irr)
    assert all(m == tuple((p,) for _ in m) for p, m in zip(w.weights, w.matrices))


def test_unnormalized_targets_and_simulators():
    """The simulation LP leaves out the target's last outcome, which
    normalization implies; effects that do not sum to u are refused where
    they are built, on both backends, so they reach it as neither target
    nor simulator."""
    for sp in (make_polygon(6), make_square(EXACT)):
        a = dichotomic_generators(sp)[0]
        assert is_simulable(a, [a]) is not None
        assert find_postprocessing(a, a) is not None
        nine_tenths = sp.ctx.scalar("0.9")
        with pytest.raises(ValueError, match="do not sum to the unit functional"):
            observable(sp, (a.effects[0], tuple(nine_tenths * x for x in a.effects[1])))


def _pose_sizes(target, simulators):
    n_t, dim = target.n_outcomes, target.space.ambient_dim
    return (sum(n_t + (b.n_outcomes - 1) * (n_t - 1) for b in simulators),
            sum(b.n_outcomes - 1 for b in simulators), 1 + dim * (n_t - 1))


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_simulation_lp_reads_each_weight_off_row_zero(ctx, monkeypatch):
    """p_i is the sum of M^(i)'s row 0, a full row of LP variables, so the
    LP has no weight column: one >= row per later row of each M^(i), the
    sum row, and dim (n_t - 1) target rows.  Every >= row holds at y = 0,
    and on the exact backend every witness row sums exactly to its weight."""
    posed = []
    monkeypatch.setattr(simulation, "lp_solve", lambda p, c: posed.append(p) or lp_solve(p, c))
    rng = random.Random(53)
    sp = make_square(ctx) if ctx.exact else make_polygon(6)
    obs = random_rational_observable if ctx.exact else random_observable
    irr = enumerate_irreducibles(sp)
    for _ in range(6):
        target = obs(sp, rng.randint(1, 4), rng)
        sims = list(irr) + [obs(sp, rng.randint(2, 3), rng)]
        posed.clear()
        w = is_simulable(target, sims)
        (p,) = posed
        assert (p.n, len(p.ge), len(p.eq)) == _pose_sizes(target, sims)
        assert all(rhs <= 0 for _, rhs in p.ge)
        assert w is not None and verify_sim_witness(target, sims, w)
        if ctx.exact:
            assert all(isinstance(v, Fraction) and sum(row) == q
                       for q, m in zip(w.weights, w.matrices) for row in m for v in row)


def test_verify_sim_witness_compares_exactly_on_exact():
    """A stochastic witness whose reconstruction is off by 1e-10 is no
    witness on the exact backend."""
    sp = make_square(EXACT)
    a = observable(sp, ((Fraction(1, 2), 0, Fraction(1, 2)), (Fraction(-1, 2), 0, Fraction(1, 2))))
    one, zero, off = Fraction(1), Fraction(0), Fraction(1, 10**10)
    assert verify_sim_witness(a, [a], SimWitness((one,), (((one, zero), (zero, one)),)))
    moved = SimWitness((one,), (((one - off, off), (zero, one)),))
    assert not verify_sim_witness(a, [a], moved)


def test_verify_sim_witness_refuses_a_wrong_shape():
    """One matrix per simulator, each with |Omega_i| rows of |Omega_target|
    entries: a missing matrix or an extra target column is no witness."""
    _, a = hexagon_pair()
    _, b = hexagon_pair(2, 5)
    ident = ((1.0, 0.0), (0.0, 1.0))
    assert verify_sim_witness(a, [a, b], SimWitness((1.0, 0.0), (ident, ((0.0, 0.0),) * 2)))
    assert not verify_sim_witness(a, [a, b], SimWitness((1.0, 0.0), (ident,)))
    assert not verify_sim_witness(a, [a], SimWitness((1.0,), (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),)))


def test_pentagon_irreducibles_mutually_unsimulable():
    irr = enumerate_irreducibles(make_polygon(5))
    assert is_simulable(irr[0], [irr[1]]) is None


def test_empty_simulator_list_rejected():
    _, a = hexagon_pair()
    with pytest.raises(ValueError):
        is_simulable(a, [])


@pytest.mark.parametrize("ref", ["polygon:5", "classical:2"])
def test_simulators_on_another_space_rejected(ref):
    """A pentagon simulator has the hexagon's ambient dimension, a classical
    bit a smaller one; both live on another space."""
    _, a = hexagon_pair()
    other = enumerate_irreducibles(space_from_ref(ref))
    with pytest.raises(ValueError):
        is_simulable(a, other)
    with pytest.raises(ValueError):
        find_postprocessing(other[0], a)


def test_closure_laws_on_samples():
    """Members are simulable; witnesses compose, so sim(sim(B)) = sim(B)."""
    sp = make_polygon(6)
    rng = random.Random(9)
    base = [random_observable(sp, 2, rng), random_observable(sp, 3, rng)]
    for b in base:
        assert is_simulable(b, base) is not None
    derived = mix_observables(
        (0.4, 0.6),
        (apply_postprocessing([[1, 0], [0, 1]], base[0]),
         apply_postprocessing([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]], base[1])))
    assert is_simulable(derived, base) is not None
    second = mix_observables((0.5, 0.5), (derived, base[0]))
    assert is_simulable(second, base) is not None


# --------------------------------------------------------------- irreducibles
def test_irreducible_predicate_examples():
    sp, a = hexagon_pair()
    assert is_simulation_irreducible(a)
    assert not is_simulation_irreducible(trivial_observable(sp, (0.5, 0.5)))
    _, b = hexagon_pair(2, 5)
    mixed = mix_observables((0.5, 0.5), (a, b))
    assert not is_simulation_irreducible(mixed)


EXPECTED_COUNTS = {  # n -> (dichotomic, trichotomic)
    4: (2, 0), 5: (0, 5), 6: (3, 2), 7: (0, 14), 8: (4, 8), 9: (0, 30)}


def test_polygon_irreducible_counts_match_formulas():
    for n, (want_di, want_tri) in EXPECTED_COUNTS.items():
        m = n // 2
        if n % 2 == 0:
            assert want_di == m and want_tri == m * (m - 1) * (m - 2) // 3
        else:
            assert want_di == 0 and want_tri == m * (m + 1) * (2 * m + 1) // 6
        irr = enumerate_irreducibles(make_polygon(n))
        di = sum(1 for o in irr if o.n_outcomes == 2)
        tri = sum(1 for o in irr if o.n_outcomes == 3)
        assert (di, tri) == (want_di, want_tri)


def test_every_enumerated_candidate_is_irreducible():
    for n in (4, 5, 6):
        for g in enumerate_irreducibles(make_polygon(n)):
            assert is_simulation_irreducible(g)


def test_classical_spaces_have_single_class():
    for d in (1, 2, 3, 4):
        irr = enumerate_irreducibles(make_classical(d))
        assert len(irr) == 1
    assert len(enumerate_irreducibles(make_polygon(3))) == 1


def test_random_polygon_observables_simulable_from_irreducibles():
    rng = random.Random(77)
    for n in (5, 6, 7):
        sp = make_polygon(n)
        irr = enumerate_irreducibles(sp)
        for _ in range(15):
            target = random_observable(sp, rng.randint(2, 3), rng)
            assert is_simulable(target, irr) is not None


# ------------------------------------------------------ effectively dichotomic
def test_trivial_is_effectively_dichotomic():
    sp = make_polygon(6)
    v = is_effectively_dichotomic(trivial_observable(sp, (0.2, 0.5, 0.3)))
    assert v.value


def test_split_outcome_screen_a():
    sp, a = hexagon_pair()
    e1, e4 = a.effects
    split = observable(sp, (e1, tuple(0.4 * x for x in e4), tuple(0.6 * x for x in e4)))
    v = is_effectively_dichotomic(split)
    assert v.value and v.via == "screen_a"


def test_three_outcome_classical_distinguisher_not_dichotomic():
    sp = make_classical(3)
    ind = observable(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    v = is_effectively_dichotomic(ind)
    assert not v.value and v.via == "screen_b"


def test_lp_verdict_carries_verified_witness():
    sp = make_polygon(4)
    rng = random.Random(5)
    target = random_observable(sp, 3, rng)
    v = is_effectively_dichotomic(target)
    if v.via == "lp" and v.value:
        assert verify_sim_witness(target, list(dichotomic_generators(sp)), v.witness)
    assert v.value  # the square state space is two-outcome simulable
    # an even mixture of two sharp dichotomic observables on four outcomes:
    # every outcome peaks at 1/2, so the max monotone is 2 and no screen applies
    x, y = (0.5, 0, 0.5), (0, 0.5, 0.5)
    sq = make_square()
    mixed = observable(sq, [tuple(0.5 * c for c in e)
                            for e in (x, (-0.5, 0, 0.5), y, (0, -0.5, 0.5))])
    v = is_effectively_dichotomic(mixed)
    assert v.via == "lp" and v.value
    assert verify_sim_witness(mixed, list(dichotomic_generators(sq)), v.witness)


@pytest.mark.parametrize("ref,ctx,count", [("polygon:5", FLOAT, 5), ("polygon:6", FLOAT, 3),
                                           ("square", EXACT, 2), ("classical:3", EXACT, 3)],
                         ids=["polygon:5", "polygon:6", "square-exact", "classical:3-exact"])
def test_dichotomic_generators_keep_one_of_each_complementary_pair(ref, ctx, count):
    """Each generator (f, u-f) stands for itself and its relabelling
    (u-f, f): together they hold every extreme effect once as the first
    effect."""
    sp = space_from_ref(ref, ctx)
    gens = dichotomic_generators(sp)
    assert len(gens) == count
    firsts = [e for g in gens for e in (g.effects, g.effects[::-1])]
    assert len(firsts) == len(sp.extreme_effects())
    for f in sp.extreme_effects():
        assert sum(all(map(ctx.eq, f, e[0])) for e in firsts) == 1


def test_dropping_relabelled_generators_keeps_every_verdict():
    """Simulation by the generators and by them with their relabellings
    gives the same verdict on noisy random observables and on noisy
    trichotomic irreducibles, some simulable and some not (on the square
    every observable is)."""
    rng = random.Random(33)
    verdicts = []
    for ref in ("polygon:5", "polygon:6", "square", "classical:3"):
        sp = space_from_ref(ref)
        gens = dichotomic_generators(sp)
        both = list(gens) + [observable(sp, g.effects[::-1]) for g in gens]
        irr = [o for o in enumerate_irreducibles(sp) if o.n_outcomes == 3][:2]
        for _ in range(10):
            targets = [random_observable(sp, rng.choice((3, 4)), rng, margin=1.0)]
            for o in irr:
                w = rng.uniform(0.3, 1.0)
                targets.append(mix_observables((w, 1 - w), (o, uniform_trivial(sp, 3))))
            for a in targets:
                verdict = is_simulable(a, gens) is not None
                assert verdict == (is_simulable(a, both) is not None)
                verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("ctx", [FLOAT, EXACT], ids=["float", "exact"])
def test_verdicts_that_need_generating_geometry_refuse_a_padded_space(ctx):
    """The padded square's vertices span a proper subspace, so it has no
    extreme effects and no dual rays: the dichotomic generators and the
    irreducibles would be empty, and the verdicts built on them wrong (False
    and True, where the square answers True and False)."""
    sq, pad = make_square(ctx), padded_square(ctx)
    q = ctx.scalar(Fraction(1, 4))
    mixed = [(q, 0, q), (-q, 0, q), (0, q, q), (0, -q, q)]  # no screen applies
    sharp = [(2 * q, 0, 2 * q), (-2 * q, 0, 2 * q)]
    v = is_effectively_dichotomic(observable(sq, mixed))
    assert v.via == "lp" and v.value
    assert not is_fully_compatible(observable(sq, sharp))
    with pytest.raises(UnsupportedSpace):
        is_effectively_dichotomic(observable(pad, [e + (0,) for e in mixed]))
    with pytest.raises(UnsupportedSpace):
        is_fully_compatible(observable(pad, [e + (0,) for e in sharp]))


def test_hexagon_trichotomic_irreducible_needs_three_outcomes():
    """The symmetric trichotomic irreducibles of the hexagon fall outside the
    two-outcome closure; the LP certifies it (no screen applies: the max
    monotone gap is 4/3 per outcome)."""
    irr3 = [o for o in enumerate_irreducibles(make_polygon(6)) if o.n_outcomes == 3]
    assert irr3
    v = is_effectively_dichotomic(irr3[0])
    assert v.via == "lp" and not v.value


def test_ntomic_screens():
    sp = make_classical(3)
    ind = observable(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert ntomic_screen(ind, 3) == "yes"
    lam4 = make_classical(4)
    ind4 = observable(lam4, tuple(tuple(1.0 if i == j else 0.0 for j in range(4))
                                  for i in range(4)))
    assert ntomic_screen(ind4, 3) == "no"
    with pytest.raises(ValueError):
        ntomic_screen(ind, 2)


# ------------------------------------------------------------- noise classes
def test_noise_class_endpoints():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    assert effect_in_noise_class(sp, e1, 1.0)
    assert effect_in_noise_class(sp, tuple(0.3 * u for u in sp.unit), 0.0)
    assert not effect_in_noise_class(sp, e1, 0.0)
    assert not effect_in_noise_class(sp, e1, 0.5)
    for t in (-0.1, 1.5):
        with pytest.raises(ValueError):
            effect_in_noise_class(sp, e1, t)


def noise_class_lp(space, e, t):
    """Reference model: the noise class as an LP.  Variable 0 is p <= 1; e'
    and u - e' are two effects of ``effect_block`` and e = t e' + (1 - t) p u
    holds coordinatewise."""
    ctx = space.ctx
    t = ctx.scalar(t)
    p = LPProblem(n=1, ge=[([(0, -ctx.one())], -ctx.one())])
    eff = effect_block(p, space, 2)
    eff.sum_eq(p, (0, 1), space.unit)
    for c, u in enumerate(space.unit):
        row = [(0, (ctx.one() - t) * u)] + eff.terms(0, [t * a for a in eff.cols[c]])
        p.add_eq(row, ctx.scalar(e[c]))
    return lp_solve(p, ctx).feasible


def test_noise_class_range_test_matches_the_effect_lp():
    """e = a f + b u with f a random functional rescaled to the range [0, 1]
    spreads by a over the states; a and t run over twelfths and t = a in
    about a third of the draws, so ties are common, and b puts the range
    inside [0, 1] or just past either end."""
    twelfths = [Fraction(k, 12) for k in range(13)]
    spaces = [make_polygon(n) for n in (5, 6, 7, 8)] + [cube4(FLOAT)]
    for ctx in (FLOAT, EXACT):
        spaces += [make_square(ctx), make_classical(3, ctx),
                   space_from_ref("dsum:square+classical:2", ctx), padded_square(ctx)]
    rng = random.Random(1500)
    checked, disagree = 0, []
    for sp in spaces:
        ctx, unit = sp.ctx, sp.unit
        for _ in range(120):
            while True:
                g = [ctx.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 6))) for _ in unit]
                lo, hi = sp.effect_range(g)
                if not ctx.is_zero(hi - lo):
                    break
            f = [(x - lo * y) / (hi - lo) for x, y in zip(g, unit)]
            a, t = rng.choice(twelfths), rng.choice(twelfths)
            if rng.random() < 0.3:
                t = a
            b = rng.choice([Fraction(-1, 12), 0, (1 - a) / 2, 1 - a, Fraction(13, 12) - a])
            e = tuple(ctx.scalar(a) * x + ctx.scalar(b) * y for x, y in zip(f, unit))
            checked += 1
            if effect_in_noise_class(sp, e, t) != noise_class_lp(sp, e, t):
                disagree.append((sp.label, a, b, t))
    assert checked >= 1500
    assert disagree == []


def test_depolarized_class():
    sp = make_polygon(6)
    e1 = polygon_extreme_even(6, 1)
    assert effect_in_depolarized_class(sp, e1, 1.0)
    half_u = tuple(0.5 * u for u in sp.unit)
    for t in (0.0, 0.3, 0.7, 1.0):
        assert effect_in_depolarized_class(sp, half_u, t)
    # unbiased effect with Bloch norm s is in the class exactly when s <= t
    for s, t, want in ((0.3, 0.5, True), (0.6, 0.5, False), (0.5, 0.5, True)):
        direction = (1.0, 0.0)
        scale = s / sp.effect_norm(direction)
        a = sp.effect_from_bloch((scale, 0.0), 1)
        assert effect_in_depolarized_class(sp, a, t) == want
    for t in (-0.1, 1.5):  # at 1.5 the sharp e1 would pass
        with pytest.raises(ValueError):
            effect_in_depolarized_class(sp, e1, t)


def assert_depolarized_in_noise_class(sp):
    """Random effects of the depolarized class lie in the noise class."""
    rng = random.Random(13)
    members = 0
    for _ in range(40):
        vec = tuple(rng.uniform(-0.5, 0.5) for _ in range(sp.ambient_dim - 1))
        alpha = rng.uniform(max(0.3, sp.effect_norm(vec)), 2 - sp.effect_norm(vec))
        e = sp.effect_from_bloch(vec, alpha)
        t = rng.uniform(0.1, 1.0)
        if effect_in_depolarized_class(sp, e, t):
            members += 1
            assert effect_in_noise_class(sp, e, t)
    assert members


def test_depolarized_subset_of_noise_class():
    assert_depolarized_in_noise_class(make_polygon(6))


def test_noise_class_answers_on_the_ball():
    """The range test needs no vertex representation."""
    assert_depolarized_in_noise_class(make_ball(3))


def test_observable_noise_class():
    sp, a = hexagon_pair()
    assert observable_in_noise_class(trivial_observable(sp, (1.0,)), 0.7)
    assert not observable_in_noise_class(a, 0.5)
    mixed = mix_observables((0.4, 0.6), (a, uniform_trivial(sp, 2)))
    assert observable_in_noise_class(mixed, 0.4)
    for t in (-0.1, 1.5):  # at 1.5 the sharp a would pass
        with pytest.raises(ValueError):
            observable_in_noise_class(a, t)


def test_noise_class_simulation_closed_on_samples():
    """Mixing and post-processing members keeps the noise content above 1-t."""
    sp = make_polygon(6)
    rng = random.Random(31)
    t = 0.45
    members = []
    for _ in range(6):
        raw = random_observable(sp, 2, rng)
        members.append(mix_observables((t, 1 - t), (raw, uniform_trivial(sp, 2))))
    for m in members:
        assert observable_in_noise_class(m, t)
    mixed = mix_observables((0.5, 0.5), (members[0], members[1]))
    assert observable_in_noise_class(mixed, t)
    post = apply_postprocessing([[0.3, 0.7], [0.8, 0.2]], members[2])
    assert observable_in_noise_class(post, t)


def test_range_membership():
    sp, a = hexagon_pair()
    t = trivial_observable(sp, (0.2, 0.8))
    assert range_in_effect_class(t, lambda e: effect_in_noise_class(sp, e, 0.3))
    assert not range_in_effect_class(a, lambda e: effect_in_noise_class(sp, e, 0.5))


def test_range_membership_outcome_cap():
    sp = make_polygon(6)
    big = trivial_observable(sp, [1.0 / 17] * 17)
    with pytest.raises(ValueError):
        range_in_effect_class(big, lambda e: True)


def test_noise_gap_witness():
    """A fixed hexagon observable separates the effect-level noise class from
    the observable-level one at t = 0.2."""
    a, t = noise_class_gap_observable(0.2)
    assert range_in_effect_class(a, lambda e: effect_in_noise_class(a.space, e, t))
    assert not observable_in_noise_class(a, t)


# ------------------------------------------------- unambiguous discrimination
def test_unambiguous_bounds_endpoints():
    assert unambiguous_qubit_bounds(0.0) == (0.5, 1.0)
    assert unambiguous_qubit_bounds(1.0) == (0.0, 0.0)
    lo, hi = unambiguous_qubit_bounds(0.5)
    assert abs(lo - 0.375) < 1e-12 and abs(hi - 0.5) < 1e-12


def test_unambiguous_strict_gap_inside_interval():
    for i in range(1, 99):
        c = i / 99
        lo, hi = unambiguous_qubit_bounds(c)
        assert lo < hi
