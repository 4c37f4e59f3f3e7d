"""Joint measurability: product-outcome LPs, closed-form point-symmetric
criteria, the noise-based sufficient condition, and the fully-compatible /
non-disturbing observable classes.  Inputs sum to u (``Observable``).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .numerics import LPProblem, dot, lp_solve, mat_mul, total
from .observables import (
    Observable,
    common_space,
    is_trivial,
    mix_observables,
    noise_content,
    uniform_trivial,
)
from .postprocess import find_postprocessing
from .simulation import SimWitness, enumerate_irreducibles, verify_sim_witness
from .spaces import StateSpace, UnsupportedSpace, effect_block


MAX_PRODUCT_OUTCOMES = 10_000
FC_BISECTION_STEPS = 9  # halvings of t per irreducible in find_nontrivial_fully_compatible
FC_MIN_T = 1e-3         # smallest irreducible weight t it returns


def are_compatible(obs: Sequence[Observable]) -> Optional[Observable]:
    """Joint observable on the product outcome set with matching marginals,
    or None when the LP is infeasible.

    The first input's marginals make the joint effects sum to u; given that,
    each later input's last marginal follows from its others, so its rows
    are left out."""
    space = common_space(obs)
    sizes = [o.n_outcomes for o in obs]
    n_joint = math.prod(sizes)
    if n_joint > MAX_PRODUCT_OUTCOMES:
        raise ValueError("product outcome set too large")
    cells = list(itertools.product(*[range(s) for s in sizes]))
    p = LPProblem(n=0)
    joint = effect_block(p, space, n_joint)
    for i, o in enumerate(obs):  # marginals reproduce the inputs
        for x in range(sizes[i] if i == 0 else sizes[i] - 1):
            joint.sum_eq(p, [z for z, cell in enumerate(cells) if cell[i] == x], o.effects[x])
    res = lp_solve(p, space.ctx)
    if not res.feasible:
        return None
    labels = tuple(tuple(o.outcomes[cell[i]] for i, o in enumerate(obs)) for cell in cells)
    return Observable(space, joint.effects(res.x), labels)


def marginal(joint: Observable, which: int) -> Observable:
    """Marginal of a product-outcome joint observable along one slot."""
    ctx = joint.space.ctx
    labels = tuple(sorted({z[which] for z in joint.outcomes}, key=str))
    rows = [[ctx.one() if z[which] == lbl else ctx.zero() for z in joint.outcomes]
            for lbl in labels]
    return Observable(joint.space, mat_mul(rows, joint.effects), labels)


# ---------------------------------------------------------------- dichotomic
def dichotomic_compat_g(a_obs: Observable, b_obs: Observable) -> Optional[tuple]:
    """Single dual vector deciding compatibility of two dichotomic observables:
    g with g >= 0, a >= g, b >= g, u >= a + b - g on all states, so that
    g, a - g, b - g and u - a - b + g form a joint observable.  It is the g
    of the margin LP (``_dichotomic_margin_lp``), which meets all four
    constraints whenever the optimal margin is >= 0; None otherwise."""
    g, delta = _dichotomic_margin_lp(a_obs, b_obs)
    ctx = a_obs.space.ctx
    return g if ctx.ge(delta, ctx.zero()) else None


def dichotomic_compat_margin(a_obs: Observable, b_obs: Observable):
    """Largest slack delta in [-1, 1/4] so all four cone constraints of g
    hold with margin delta on every vertex; positive iff strictly
    compatible, used to flag boundary instances."""
    return _dichotomic_margin_lp(a_obs, b_obs)[1]


def _dichotomic_margin_lp(a_obs: Observable, b_obs: Observable) -> tuple:
    """(g, delta) from the margin LP, the one LP of both dichotomic
    decisions on every space: delta maximized, with g >= delta,
    a - g >= delta, b - g >= delta and u - a - b + g >= delta on every
    vertex v.  Of these four rows only two can bind, so each vertex has two:
    g(v) - delta >= max(0, a(v) + b(v) - 1) and
    -g(v) - delta >= -min(a(v), b(v)).  On the LP's nonnegative columns y,
    g = y[2c] - y[2c+1] coordinate by coordinate and delta = y[2 dim] - 1,
    so delta >= -1 is its column's bound.  A vertex's two rows add up to
    2 delta <= min(a(v), b(v)) - max(0, a(v) + b(v) - 1) <= 1/2, so
    delta <= 1/4 needs no row.  For effects a and b, g = 0 meets every row
    at delta = -1 (y = 0), so the lower bound leaves the optimum alone and
    every row starts on its slack; inputs that leave the LP infeasible are
    no effects: ValueError, as are inputs on two spaces or with other than
    two outcomes."""
    space = common_space([a_obs, b_obs])
    if a_obs.n_outcomes != 2 or b_obs.n_outcomes != 2:
        raise ValueError("both observables must be dichotomic")
    a, b = a_obs.effects[0], b_obs.effects[0]
    ctx = space.ctx
    dim = space.ambient_dim
    zero, one = ctx.zero(), ctx.one()
    d = 2 * dim  # delta's column
    p = LPProblem(n=d + 1, objective=[(d, one)])
    for v in space.vertices:
        gv = [t for c, x in enumerate(v) if x for t in ((2 * c, x), (2 * c + 1, -x))]
        av, bv = dot(a, v), dot(b, v)
        p.add_ge(gv + [(d, -one)], max(zero, av + bv - one) - one)
        p.add_ge([(j, -x) for j, x in gv] + [(d, -one)], -min(av, bv) - one)
    res = lp_solve(p, ctx)
    if not res.feasible:  # y = 0 meets every row when a and b are effects
        raise ValueError("the dichotomic margin LP needs effects")
    y = res.x
    return tuple(y[2 * c] - y[2 * c + 1] for c in range(dim)), y[d] - one


# ------------------------------------------------------------ point-symmetric
class PsymVerdict(NamedTuple):
    verdict: str       # "incompatible" | "iff_compatible" | "necessary_passed"
    criterion: object  # ||a+b||_E + ||a-b||_E, in the space's field
    boundary: bool     # |criterion - 2| below the boundary band


PSYM_BOUNDARY_BAND = 1e-7


def psym_compat_test(space: StateSpace, a, b) -> PsymVerdict:
    """Norm criterion ||a+b||_E + ||a-b||_E <= 2 on a point-symmetric space:
    necessary in general, necessary and sufficient for unbiased effects."""
    avec, alpha = space.bloch(a)
    bvec, beta = space.bloch(b)
    plus = space.effect_norm([x + y for x, y in zip(avec, bvec)])
    minus = space.effect_norm([x - y for x, y in zip(avec, bvec)])
    crit = plus + minus
    boundary = abs(crit - 2) <= PSYM_BOUNDARY_BAND
    if space.ctx.gt(crit, 2):
        return PsymVerdict("incompatible", crit, boundary)
    unbiased = space.ctx.eq(alpha, space.ctx.one()) and space.ctx.eq(beta, space.ctx.one())
    if unbiased:
        return PsymVerdict("iff_compatible", crit, boundary)
    return PsymVerdict("necessary_passed", crit, boundary)


def construct_joint_unbiased(space: StateSpace, a, b) -> Observable:
    """Explicit four-effect joint observable for two unbiased effects passing
    the norm criterion; degenerate directions fall back to zero components."""
    ctx = space.ctx
    avec, alpha = space.bloch(a)
    bvec, beta = space.bloch(b)
    if not (ctx.eq(alpha, ctx.one()) and ctx.eq(beta, ctx.one())):
        raise ValueError("effects must be unbiased")
    plus_vec = [x + y for x, y in zip(avec, bvec)]
    minus_vec = [x - y for x, y in zip(avec, bvec)]
    np_, nm = space.effect_norm(plus_vec), space.effect_norm(minus_vec)
    if ctx.gt(np_ + nm, 2):  # the test psym_compat_test calls incompatible
        raise ValueError("norm criterion violated")
    d = space.ambient_dim - 1
    cplus = [x / np_ for x in plus_vec] if np_ > 0 else [ctx.zero()] * d
    cminus = [x / nm for x in minus_vec] if nm > 0 else [ctx.zero()] * d
    t_plus, t_minus = np_ / 2, nm / 2
    t = 1 - t_plus - t_minus
    def eff(vec, tv):
        return space.effect_from_bloch([tv * x for x in vec], tv + t / 2)
    effects = (eff(cplus, t_plus), eff(cminus, t_minus),
               eff([-x for x in cminus], t_minus), eff([-x for x in cplus], t_plus))
    labels = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
    return Observable(space, effects, labels)


# ------------------------------------------------------------ noise condition
class NoiseCompatReport(NamedTuple):
    verdict: str                     # "compatible" | "inconclusive"
    noise_sum: object
    weights: Optional[tuple] = None
    simulators: Optional[tuple] = None
    witnesses: Optional[tuple] = None  # one SimWitness per input observable


def noise_sufficient_compat(obs: Sequence[Observable]) -> NoiseCompatReport:
    """Compatibility from intrinsic noise: when the noise contents sum to at
    least m - 1 the inputs are simulable from one simulator set under a shared
    weight distribution, hence compatible.  The witness is built explicitly
    and re-verified."""
    space = common_space(obs)
    ctx = space.ctx
    m = len(obs)
    reports = [noise_content(o) for o in obs]
    ws = [r.w_trivial for r in reports]
    noise = total(ws)
    if not ctx.ge(noise, (m - 1) * ctx.one()):
        return NoiseCompatReport("inconclusive", noise)
    one = ctx.one()
    p = [one - w for w in ws[:-1]]
    p.append(one - total(p))
    trivials = []
    for o, rep, w in zip(obs, reports, ws):
        if ctx.pos(w):
            trivials.append(tuple(mn / w for mn in rep.per_outcome_min))
        else:
            q = ctx.one() / o.n_outcomes
            trivials.append(tuple([q] * o.n_outcomes))
    sims = []
    for i, o in enumerate(obs):
        pi = p[i]
        if ctx.pos(pi):
            # the last effect is u minus the others: a small p_i amplifies rounding
            effects = [tuple((ox - (one - pi) * trivials[i][x] * u) / pi
                             for ox, u in zip(o.effects[x], space.unit))
                       for x in range(o.n_outcomes - 1)]
            effects.append(tuple(u - total(e[c] for e in effects)
                                 for c, u in enumerate(space.unit)))
            sims.append(Observable(space, tuple(effects), o.outcomes))
        else:
            sims.append(o)
    witnesses = []
    for i, o in enumerate(obs):
        mats = []
        for j, b in enumerate(sims):
            if j == i:
                mat = tuple(tuple(p[j] if y == x else ctx.zero()
                                  for x in range(o.n_outcomes))
                            for y in range(b.n_outcomes))
            else:
                mat = tuple(tuple(p[j] * trivials[i][x] for x in range(o.n_outcomes))
                            for y in range(b.n_outcomes))
            mats.append(mat)
        witnesses.append(SimWitness(tuple(p), tuple(mats)))
    for o, w in zip(obs, witnesses):
        if not verify_sim_witness(o, sims, w):
            return NoiseCompatReport("inconclusive", noise)
    return NoiseCompatReport("compatible", noise, tuple(p), tuple(sims), tuple(witnesses))


# ------------------------------------------------------- fully compatible set
def is_fully_compatible(a: Observable) -> bool:
    """Compatible with every observable: post-processable from every extreme
    simulation-irreducible observable of the space."""
    space = a.space
    for b in enumerate_irreducibles(space):
        if find_postprocessing(b, a) is None:
            return False
    return True


def find_nontrivial_fully_compatible(space: StateSpace) -> Optional[Observable]:
    """Bisection along t G + (1-t) T over the enumerated irreducibles G: the
    fully compatible region clusters around the trivial segment, so the first
    success going down the t ladder is returned."""
    for g in enumerate_irreducibles(space):
        t_uniform = uniform_trivial(space, g.n_outcomes)
        lo, hi = 0.0, 1.0
        for _ in range(FC_BISECTION_STEPS):
            mid = (lo + hi) / 2
            cand = mix_observables((mid, 1 - mid), (g, t_uniform))
            if is_fully_compatible(cand):
                if mid >= FC_MIN_T and not is_trivial(cand):
                    return cand
                lo = mid
            else:
                hi = mid
    return None


def pure_state_decomposition(space: StateSpace) -> tuple[tuple[int, ...], ...]:
    """Singleton blocks, the canonical decomposition of a simplex."""
    if not space.is_simplex():
        raise UnsupportedSpace("pure-state decomposition needs a simplex")
    return tuple((i,) for i in range(space.n_vertices))


def is_nondisturbing(a: Observable, blocks: Sequence[Sequence[int]] | None = None) -> bool:
    """Measurable without disturbance: every effect is constant on each summand
    of the given (or stored) direct-sum decomposition of the state space."""
    space = a.space
    if blocks is None:
        if space.summands:
            blocks = [s.vertex_indices for s in space.summands]
        elif space.is_simplex():
            blocks = pure_state_decomposition(space)
        else:
            blocks = [tuple(range(space.n_vertices))]
    seen = sorted(i for blk in blocks for i in blk)
    if seen != list(range(space.n_vertices)):
        raise ValueError("decomposition blocks must partition the vertex set")
    ctx = space.ctx
    for e in a.effects:
        for blk in blocks:
            vals = [dot(e, space.vertices[i]) for i in blk]
            if any(not ctx.eq(v, vals[0]) for v in vals[1:]):
                return False
    return True


def fc_noise_lower_bound(n: int) -> float:
    """Noise-content lower bound for fully compatible observables on odd
    polygons.  For n = 4l+1 the bound is evaluated in the form
    1 - sin(pi/(2n)) / cos^2(pi/n), which reproduces the reference values
    (the alternative printed form does not); for n = 4l+3 it is
    1 - sin(pi/(2n)) / cos(pi/n).
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("bound defined for odd n >= 3")
    s = math.sin(math.pi / (2 * n))
    c = math.cos(math.pi / n)
    if n % 4 == 3:
        return 1.0 - s / c
    return 1.0 - s / (c * c)
