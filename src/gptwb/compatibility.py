"""Joint measurability: product-outcome LPs, closed-form point-symmetric
criteria, the noise-based sufficient condition, and the fully-compatible /
non-disturbing observable classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import LPProblem, dot, lp_solve
from .observables import (
    Observable,
    is_trivial,
    mix_observables,
    noise_content,
    observable,
    trivial_observable,
    uniform_trivial,
)
from .postprocess import find_postprocessing
from .simulation import SimWitness, enumerate_irreducibles, verify_sim_witness
from .spaces import StateSpace, UnsupportedSpace


MAX_PRODUCT_OUTCOMES = 10_000


def _common_space(obs: Sequence[Observable]) -> StateSpace:
    space = obs[0].space
    for o in obs[1:]:
        if o.space is not space:
            raise ValueError("observables live on different spaces")
    return space


def are_compatible(obs: Sequence[Observable]) -> Optional[Observable]:
    """Joint observable on the product outcome set with matching marginals,
    or None when the LP is infeasible."""
    space = _common_space(obs)
    if space.kind != "polytopic":
        raise UnsupportedSpace("joint-observable LP needs a vertex representation")
    ctx = space.ctx
    dim = space.ambient_dim
    sizes = [o.n_outcomes for o in obs]
    total = 1
    for s in sizes:
        total *= s
    if total > MAX_PRODUCT_OUTCOMES:
        raise ValueError("product outcome set too large")
    cells = list(itertools.product(*[range(s) for s in sizes]))
    cell_index = {z: i for i, z in enumerate(cells)}
    nvar = total * dim

    def var(z: int, c: int) -> int:
        return z * dim + c

    p = LPProblem(n=nvar, bounds=[(None, None)] * nvar)
    zero, one = ctx.zero(), ctx.one()
    for v in space.vertices:  # positivity of every joint effect on every vertex
        for z in range(total):
            row = [zero] * nvar
            for c in range(dim):
                row[var(z, c)] = v[c]
            p.add_ge(row, zero)
    for i, o in enumerate(obs):  # marginals reproduce the inputs
        for x in range(sizes[i]):
            for c in range(dim):
                row = [zero] * nvar
                for z, cell in enumerate(cells):
                    if cell[i] == x:
                        row[var(z, c)] = one
                p.add_eq(row, o.effects[x][c])
    res = lp_solve(p, ctx)
    if not res.feasible:
        return None
    effects = tuple(tuple(res.x[var(z, c)] for c in range(dim)) for z in range(total))
    labels = tuple(tuple(o.outcomes[cell[i]] for i, o in enumerate(obs)) for cell in cells)
    return Observable(space, effects, labels)


def marginal(joint: Observable, which: int, arity: int | None = None) -> Observable:
    """Marginal of a product-outcome joint observable along one slot."""
    space = joint.space
    ctx = space.ctx
    labels = sorted({z[which] for z in joint.outcomes}, key=str)
    effects = []
    for lbl in labels:
        acc = [ctx.zero()] * space.ambient_dim
        for z, e in zip(joint.outcomes, joint.effects):
            if z[which] == lbl:
                acc = [a + b for a, b in zip(acc, e)]
        effects.append(tuple(acc))
    return Observable(space, tuple(effects), tuple(labels))


# ---------------------------------------------------------------- dichotomic
def dichotomic_compat_g(a_obs: Observable, b_obs: Observable) -> Optional[tuple]:
    """Single dual vector deciding compatibility of two dichotomic observables:
    find g with g >= 0, a >= g, b >= g, u >= a + b - g on all vertices."""
    space = _common_space([a_obs, b_obs])
    if a_obs.n_outcomes != 2 or b_obs.n_outcomes != 2:
        raise ValueError("both observables must be dichotomic")
    res = _dichotomic_margin_lp(space, a_obs.effects[0], b_obs.effects[0], maximize=False)
    return res


def dichotomic_compat_margin(a_obs: Observable, b_obs: Observable):
    """Largest slack delta so all four cone constraints hold with margin delta;
    positive iff strictly compatible, used to flag boundary instances."""
    space = _common_space([a_obs, b_obs])
    if a_obs.n_outcomes != 2 or b_obs.n_outcomes != 2:
        raise ValueError("both observables must be dichotomic")
    return _dichotomic_margin_lp(space, a_obs.effects[0], b_obs.effects[0], maximize=True)


def _dichotomic_margin_lp(space: StateSpace, a, b, maximize: bool):
    if space.kind != "polytopic":
        raise UnsupportedSpace("the dichotomic LP needs a vertex representation")
    ctx = space.ctx
    dim = space.ambient_dim
    nvar = dim + (1 if maximize else 0)
    zero, one = ctx.zero(), ctx.one()
    bounds = [(None, None)] * dim + ([(None, one)] if maximize else [])
    p = LPProblem(n=nvar, objective=([zero] * dim + [one]) if maximize else None,
                  bounds=bounds)
    for v in space.vertices:
        grow = list(v) + ([-one] if maximize else [])
        p.add_ge(grow, zero)                                   # g(v) >= delta
        p.add_ge([-x for x in grow[:dim]] + ([-one] if maximize else []),
                 -dot(a, v))                                   # a(v) - g(v) >= delta
        p.add_ge([-x for x in grow[:dim]] + ([-one] if maximize else []),
                 -dot(b, v))
        p.add_ge(list(v) + ([-one] if maximize else []),
                 dot(a, v) + dot(b, v) - one)                  # u - a - b + g >= delta
    res = lp_solve(p, ctx)
    if maximize:
        return res.value
    if not res.feasible:
        return None
    return tuple(res.x[:dim])


# ------------------------------------------------------------ point-symmetric
@dataclass(frozen=True)
class PsymVerdict:
    verdict: str       # "incompatible" | "iff_compatible" | "necessary_passed"
    criterion: object  # ||a+b||_E + ||a-b||_E, in the space's field
    boundary: bool     # |criterion - 2| below the boundary band


PSYM_BOUNDARY_BAND = 1e-7


def psym_compat_test(space: StateSpace, a, b) -> PsymVerdict:
    """Norm criterion ||a+b||_E + ||a-b||_E <= 2 on a point-symmetric space:
    necessary in general, necessary and sufficient for unbiased effects."""
    if not space.psym:
        raise UnsupportedSpace("criterion needs a point-symmetric embedding")
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
    if not space.psym:
        raise UnsupportedSpace("construction needs a point-symmetric embedding")
    ctx = space.ctx
    avec, alpha = space.bloch(a)
    bvec, beta = space.bloch(b)
    if not (ctx.eq(alpha, ctx.one()) and ctx.eq(beta, ctx.one())):
        raise ValueError("effects must be unbiased")
    plus_vec = [x + y for x, y in zip(avec, bvec)]
    minus_vec = [x - y for x, y in zip(avec, bvec)]
    np_, nm = space.effect_norm(plus_vec), space.effect_norm(minus_vec)
    if np_ + nm > 2 + (0 if ctx.exact else 1e-7):
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
@dataclass(frozen=True)
class NoiseCompatReport:
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
    space = _common_space(obs)
    ctx = space.ctx
    m = len(obs)
    reports = [noise_content(o) for o in obs]
    ws = [r.w_trivial for r in reports]
    total = sum(ws)
    if not ctx.ge(total, (m - 1) * ctx.one()):
        return NoiseCompatReport("inconclusive", total)
    one = ctx.one()
    p = [one - w for w in ws[:-1]]
    p.append(one - sum(p))
    trivials = []
    for o, rep, w in zip(obs, reports, ws):
        if ctx.pos(w):
            trivials.append(tuple(mn / w for mn in rep.per_outcome_min))
        else:
            q = Fraction(1, o.n_outcomes) if ctx.exact else 1.0 / o.n_outcomes
            trivials.append(tuple([q] * o.n_outcomes))
    sims = []
    for i, o in enumerate(obs):
        pi = p[i]
        if ctx.pos(pi):
            effects = tuple(
                tuple((ox - (one - pi) * trivials[i][x] * u) / pi
                      for ox, u in zip(o.effects[x], space.unit))
                for x in range(o.n_outcomes))
            sims.append(Observable(space, effects, o.outcomes))
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
            return NoiseCompatReport("inconclusive", total)
    return NoiseCompatReport("compatible", total, tuple(p), tuple(sims), tuple(witnesses))


# ------------------------------------------------------- fully compatible set
def is_fully_compatible(a: Observable) -> bool:
    """Compatible with every observable: post-processable from every extreme
    simulation-irreducible observable of the space."""
    space = a.space
    for b in enumerate_irreducibles(space):
        if find_postprocessing(b, a) is None:
            return False
    return True


def find_nontrivial_fully_compatible(space: StateSpace, *, steps: int = 9,
                                     min_t: float = 1e-3) -> Optional[Observable]:
    """Bisection along t G + (1-t) T over the enumerated irreducibles G: the
    fully compatible region clusters around the trivial segment, so the first
    success going down the t ladder is returned."""
    for g in enumerate_irreducibles(space):
        t_uniform = uniform_trivial(space, g.n_outcomes)
        lo, hi = 0.0, 1.0
        for _ in range(steps):
            mid = (lo + hi) / 2
            cand = mix_observables((mid, 1 - mid), (g, t_uniform))
            if is_fully_compatible(cand):
                if mid >= min_t and not is_trivial(cand):
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
    if space.kind != "polytopic":
        raise UnsupportedSpace("non-disturbance test needs a vertex representation")
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
