"""Normalization is a fact of the value types: an Observable's effects sum to
u and a CommMatrix is row-stochastic, within the context's tolerance.  So
every construction the library derives from valid inputs must build
normalized values, in floats at the default tolerance and at the floor."""

import random

import pytest

from gptwb.communication import build_comm_matrix, canonical_reduce, comm_matrix
from gptwb.compatibility import (
    are_compatible,
    construct_joint_unbiased,
    marginal,
    noise_sufficient_compat,
)
from gptwb.numerics import MIN_FLOAT_EPS, Context
from gptwb.observables import (
    apply_postprocessing,
    minimally_sufficient,
    mix_observables,
    observable,
    uniform_trivial,
)
from gptwb.postprocess import find_postprocessing
from gptwb.simulation import dichotomic_generators, enumerate_irreducibles
from gptwb.spaces import space_from_ref
from conftest import random_stochastic

SPACES = [f"polygon:{n}" for n in range(3, 13)] + [
    "square", "classical:4", "dsum:polygon:5+classical:2"]
SHARPNESS = (1e-9, 1e-7, 1e-3, 0.2)


def _unbiased_pair(space, rng):
    """Two unbiased effects whose norm criterion is exactly 2 up to rounding."""
    vecs = [[rng.uniform(-1, 1) for _ in range(space.ambient_dim - 1)] for _ in range(2)]
    crit = sum(space.effect_norm([x + s * y for x, y in zip(*vecs)]) for s in (1, -1))
    return [space.effect_from_bloch([2 * x / crit for x in v], 1) for v in vecs]


@pytest.mark.parametrize("eps", [1e-9, MIN_FLOAT_EPS])
def test_derived_constructions_stay_normalized(eps):
    """Irreducibles, dichotomic generators, post-processings found and
    applied back, joints and their marginals, minimally sufficient
    representatives, the noise condition's simulators, unbiased joints and
    reduced matrices all build: no construction drifts past the tolerance."""
    ctx = Context("float", eps)
    rng = random.Random(29)
    for ref in SPACES:
        sp = space_from_ref(ref, ctx)
        irr = enumerate_irreducibles(sp)
        gens = dichotomic_generators(sp)
        for o in irr + gens:
            minimally_sufficient(o)
        src = rng.choice(irr)
        tgt = apply_postprocessing(random_stochastic(src.n_outcomes, 3, rng), src)
        nu = find_postprocessing(src, tgt)
        assert nu is not None
        minimally_sufficient(apply_postprocessing(nu, src))
        a, b = rng.choice(gens), rng.choice(irr)
        joint = are_compatible([mix_observables((0.5, 0.5), (a, uniform_trivial(sp, 2))),
                                mix_observables((0.5, 0.5), (b, uniform_trivial(sp, b.n_outcomes)))])
        assert joint is not None
        for i in (0, 1):
            marginal(joint, i)
        for s in SHARPNESS:
            noisy = [mix_observables((t, 1 - t), (g, uniform_trivial(sp, 2)))
                     for g, t in ((a, s), (rng.choice(gens), 1 - s))]
            assert noise_sufficient_compat(noisy).verdict == "compatible"
        canonical_reduce(build_comm_matrix(sp.vertices, src))
        if sp.psym:
            construct_joint_unbiased(sp, *_unbiased_pair(sp, rng))


def test_noise_condition_builds_normalized_simulators_from_sharp_inputs():
    """An input of sharpness 1e-9 has weight p = 1e-9 in the noise
    condition, and its simulator is (A - (1 - p) T) / p: dividing each
    effect by p would blow the float rounding of their sum up past the
    tolerance, so the last effect is u minus the others."""
    sp = space_from_ref("polygon:7")
    gens = dichotomic_generators(sp)
    t = uniform_trivial(sp, 2)
    for s in (1e-9, 3e-9, 1e-8, 1e-7):
        obs = [mix_observables((s, 1 - s), (gens[0], t)),
               mix_observables((0.2, 0.8), (gens[3], t))]
        report = noise_sufficient_compat(obs)
        assert report.verdict == "compatible"
        assert abs(report.weights[0] - s) < 1e-12


def test_zero_effects_that_sum_past_the_tolerance_keep_the_sum():
    """Four effects each zero within 1e-9 but summing to (1.2e-9, 0, 1.6e-9)
    fold into the kept class, so the representative still sums to u and has
    one outcome; a matrix with such columns reduces likewise."""
    sp = space_from_ref("polygon:6")
    tiny = (3e-10, 0.0, 4e-10)
    rest = tuple(u - 4 * x for u, x in zip(sp.unit, tiny))
    rep = minimally_sufficient(observable(sp, [tiny] * 4 + [rest]))
    assert rep.n_outcomes == 1 and rep.outcomes == (4,)
    assert all(abs(x - u) <= 1e-15 for x, u in zip(rep.effects[0], sp.unit))
    rows = [[1 - 4 * v] + [v] * 4 for v in (3e-10, 4e-10)]
    reduced = canonical_reduce(comm_matrix(rows))
    assert reduced.shape == (1, 1) and abs(reduced.matrix[0][0] - 1) <= 1e-15
