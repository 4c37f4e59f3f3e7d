"""Simulation of observables: mixing plus classical post-processing.

Membership in the simulation closure of a finite simulator set is an LP after
the standard linearization M^(i) = p_i nu^(i): the sub-stochastic matrices
M^(i), each with rows summing to a common weight p_i, sum_i p_i = 1, are
feasible iff the target is simulable.  The weights are no LP variables:
p_i is the sum of M^(i)'s row 0, a full row of variables.  In each later
row the last column is no LP variable but the slack of
p_i - sum_{x < last} M^(i)[y][x] >= 0, so the row sums hold by construction
and these rows start on their slacks.  The target's last outcome has no rows
either: every observable's effects sum to u (``Observable`` refuses any
other), so the other outcomes and sum_i p_i = 1 imply them.
The module also enumerates the extreme simulation-irreducible observables of
a polytopic space and implements the simulation-closed noise restrictions:
an effect's noise class is read off its range over the states and an
observable's off its noise content, so neither solves an LP.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional, Sequence

from .numerics import LPProblem, independent_subsets, lp_solve, mat_mul, total
from .observables import (
    Observable,
    common_space,
    is_extreme_clean,
    lambda_max_obs,
    minimally_sufficient,
    noise_content,
    observable,
)
from .postprocess import is_pp_clean
from .spaces import StateSpace, UnsupportedSpace, make_polygon, polygon_extreme_even


class SimWitness(NamedTuple):
    """weights p_i and per-simulator matrices M^(i) (rows sum to p_i) with
    target_x = sum_i sum_y M^(i)[y][x] * simulator_i_effect_y."""

    weights: tuple
    matrices: tuple  # one |Omega_i| x |Omega_target| matrix per simulator


def is_simulable(target: Observable, simulators: Sequence[Observable]) -> Optional[SimWitness]:
    """LP membership of ``target`` in the simulation closure of ``simulators``;
    all of them must live on the target's space (``common_space``).

    The LP's variables are the entries of each M^(i): all of row 0, whose
    sum is the weight p_i, and all but the last column of every later row,
    whose last entry is the slack of its >= row (module docstring)."""
    if not simulators:
        raise ValueError("empty simulator list")
    space = common_space([target, *simulators])
    ctx = space.ctx
    zero, one = ctx.zero(), ctx.one()
    w = target.n_outcomes - 1  # columns of a later row of M^(i) that are LP variables
    sizes = [b.n_outcomes for b in simulators]
    offsets = []
    off = 0
    for s in sizes:
        offsets.append(off)
        off += s * w + 1  # row 0 has all w + 1 columns

    def idx(i: int, y: int, x: int) -> int:
        return offsets[i] + y * w + x + (y > 0)

    prob = LPProblem(n=off)
    for i in range(len(simulators)):  # each later row: p_i - sum_{x < last} M[y][x] >= 0
        p_i = [(idx(i, 0, x), one) for x in range(w + 1)]
        for y in range(1, sizes[i]):
            prob.add_ge(p_i + [(idx(i, y, x), -one) for x in range(w)], zero)
    prob.add_eq([(idx(i, 0, x), one) for i in range(len(simulators)) for x in range(w + 1)], one)
    for x in range(w):
        for c in range(space.ambient_dim):
            prob.add_eq([(idx(i, y, x), e[c]) for i, b in enumerate(simulators)
                         for y, e in enumerate(b.effects) if e[c]], target.effects[x][c])
    res = lp_solve(prob, ctx)
    if not res.feasible:
        return None
    rows0 = [res.x[o:o + w + 1] for o in offsets]
    weights = tuple(total(row, zero) for row in rows0)

    def matrix_row(i: int, y: int) -> tuple:
        if y == 0:
            return rows0[i]
        head = tuple(res.x[idx(i, y, x)] for x in range(w))
        return head + (weights[i] - total(head, zero),)

    matrices = tuple(tuple(matrix_row(i, y) for y in range(sizes[i]))
                     for i in range(len(simulators)))
    return SimWitness(weights, matrices)


def verify_sim_witness(target: Observable, simulators: Sequence[Observable],
                       witness: SimWitness) -> bool:
    """Re-substitute a witness: one weight and one |Omega_i| x |Omega_target|
    matrix per simulator, stochasticity within the context's tolerance, and
    the reconstruction within it (exactly on the exact backend; at least
    1e-9 on floats)."""
    ctx = target.space.ctx
    tol = ctx.eps
    n = target.n_outcomes
    if len(witness.weights) != len(simulators) or len(witness.matrices) != len(simulators):
        return False
    if any(len(m) != b.n_outcomes or any(len(row) != n for row in m)
           for m, b in zip(witness.matrices, simulators)):
        return False
    if abs(total(witness.weights) - 1) > tol:
        return False
    for p, m in zip(witness.weights, witness.matrices):
        if p < -tol:
            return False
        for row in m:
            if any(v < -tol for v in row) or abs(total(row) - p) > tol:
                return False
    fit = tol if ctx.exact else max(tol, 1e-9)
    stacked = list(zip(*[row for m in witness.matrices for row in m]))
    rebuilt = mat_mul(stacked, [e for b in simulators for e in b.effects])
    return all(abs(a - t) <= fit for r, e in zip(rebuilt, target.effects) for a, t in zip(r, e))


def is_simulation_irreducible(a: Observable) -> bool:
    """Indecomposable and equivalent to an extreme observable: check the
    minimally sufficient representative for cleanliness and extremality."""
    rep = minimally_sufficient(a)
    if not is_pp_clean(rep):
        return False
    return is_extreme_clean(rep)


def enumerate_irreducibles(space: StateSpace) -> tuple[Observable, ...]:
    """All extreme simulation-irreducible observables up to equivalence, by
    number of outcomes, then by ray indices.

    Every candidate is a linearly independent set of dual-cone rays carrying a
    strictly positive solution of sum(c_i r_i) = u; subsets without one are
    mixtures.  ``independent_subsets`` walks the independent ray sets and
    reads c off each set whose span holds u; it drops dependent sets and
    does not extend a set whose span holds u, since every superset would give
    the added rays zero coefficients.  Results are cached on the space.
    UnsupportedSpace where the vertices do not span: there are no rays.
    """
    key = "irreducibles"
    if key in space._cache:
        return space._cache[key]
    if not space.spans_ambient():
        raise UnsupportedSpace("the vertices do not span the ambient space")
    ctx = space.ctx
    columns = [r.direction for r in space.dual_rays()]
    size = min(space.ambient_dim, len(columns))
    found: list[Observable] = []
    # Equivalent observables have pairwise proportional effects, so they live
    # on identical ray sets; distinct ray subsets therefore never collide and
    # the subset enumeration needs no pairwise-equivalence dedup.
    for subset, ech in independent_subsets(columns, size, ctx, slots=size, target=space.unit):
        coeff = ech.coefficients()
        if coeff is None or not all(ctx.pos(c) for c in coeff):
            continue
        effects = tuple(tuple(c * x for x in columns[j]) for j, c in zip(subset, coeff))
        found.append(observable(space, effects))
    space._cache[key] = tuple(found)
    return space._cache[key]


# ------------------------------------------------------- effectively dichotomic
class DichotomicVerdict(NamedTuple):
    value: bool
    via: str  # "screen_a" | "screen_b" | "lp"
    witness: Optional[SimWitness] = None


def dichotomic_generators(space: StateSpace) -> tuple[Observable, ...]:
    """Generator set for the two-outcome simulation closure: one dichotomic
    observable (f, u-f) per complementary pair {f, u-f} of nontrivial
    extreme effects, f the first of the two.

    Every dichotomic (e, u-e) is a mixture of the observables (f, u-f), f
    extreme, together with (u, o) and (o, u), and the latter two are
    post-processings of any generator, so the closure of those finitely
    many equals the closure of all dichotomic observables on a polytopic
    space.  u - f is extreme whenever f is, and (u-f, f) relabels the
    outcomes of (f, u-f), a post-processing, so one of the two generates
    the other and the closure keeps only the first.  UnsupportedSpace where
    the vertices do not span: there are no extreme effects.
    """
    if not space.spans_ambient():
        raise UnsupportedSpace("the vertices do not span the ambient space")
    ctx, extremes = space.ctx, space.extreme_effects()
    gens = []
    for i, f in enumerate(extremes):
        comp = tuple(u - x for u, x in zip(space.unit, f))
        if not any(all(map(ctx.eq, comp, g)) for g in extremes[:i]):
            gens.append(observable(space, (f, comp)))
    if not gens:
        gens.append(observable(space, (space.unit, space.zero_effect())))
    return tuple(gens)


def is_effectively_dichotomic(a: Observable) -> DichotomicVerdict:
    """Membership in the simulation closure of the two-outcome observables.

    Quick screens first: an outcome whose maximum is within 1 of the whole
    observable's max monotone makes the answer yes; a max monotone above 2
    makes it no.  Both screens hold in any GPT.  Otherwise the generator-set
    LP decides, which needs the extreme effects (``dichotomic_generators``).
    """
    space = a.space
    ctx = space.ctx
    per = [space.effect_range(e)[1] for e in a.effects]
    lmax = total(per)
    if any(ctx.le(lmax - m, ctx.one()) for m in per):
        return DichotomicVerdict(True, "screen_a")
    if ctx.gt(lmax, 2 * ctx.one()):
        return DichotomicVerdict(False, "screen_b")
    witness = is_simulable(a, dichotomic_generators(space))
    if witness is None:
        return DichotomicVerdict(False, "lp")
    return DichotomicVerdict(True, "lp", witness)


def ntomic_screen(a: Observable, n: int) -> str:
    """Sound screens for membership among effectively n-outcome observables
    (n >= 3): "yes", "no" or "inconclusive".  Exact decisions are only
    implemented for n = 2."""
    if n < 3:
        raise ValueError("use is_effectively_dichotomic for n = 2")
    if minimally_sufficient(a).n_outcomes <= n:
        return "yes"
    if a.space.ctx.gt(lambda_max_obs(a), n * a.space.ctx.one()):
        return "no"
    return "inconclusive"


# ------------------------------------------------------------- noise classes
def _noise_weight(ctx, t):
    """The mixing weight t in the context's field; ValueError outside [0, 1]."""
    t = ctx.scalar(t)
    if not 0 <= t <= 1:
        raise ValueError("the noise weight t must lie in [0, 1]")
    return t


def effect_in_noise_class(space: StateSpace, e: Sequence, t) -> bool:
    """Membership of e in N_t = {t e' + (1-t) p u : e' an effect, p in [0,1]}
    for a mixing weight t in [0, 1], read off e's range [lo, hi] over the
    states.

    With q = (1-t) p in [0, 1-t], e' = (e - q u) / t is an effect iff
    hi - t <= q <= lo, and such a q exists iff lo >= 0, hi <= 1 and
    hi - lo <= t; at t = 0 that says e = q u.
    """
    ctx = space.ctx
    t = _noise_weight(ctx, t)
    lo, hi = space.effect_range(e)
    return ctx.ge(lo, ctx.zero()) and ctx.le(hi, ctx.one()) and ctx.le(hi - lo, t)


def effect_in_depolarized_class(space: StateSpace, e: Sequence, t) -> bool:
    """Membership of e in {t e' + (1-t) e'(s0) u}: on a point-symmetric space the
    center state forces the mixing coefficient, so the test is closed-form."""
    if not space.psym:
        raise UnsupportedSpace("depolarized class needs a point-symmetric embedding")
    ctx = space.ctx
    t = _noise_weight(ctx, t)
    if ctx.is_zero(t):
        # degenerate family {p u}: same as the noise class at t = 0
        return effect_in_noise_class(space, e, 0)
    # alpha / 2, the value at the center (0, ..., 0, 1); bloch refuses an
    # effect of the wrong length
    e_s0 = space.bloch(e)[1] * (ctx.one() / 2)
    eprime = tuple((x - (ctx.one() - t) * e_s0 * u) / t for x, u in zip(e, space.unit))
    return space.is_valid_effect(eprime)


def observable_in_noise_class(a: Observable, t) -> bool:
    """Membership of a in {t B + (1-t) T}: noise content at least 1 - t."""
    ctx = a.space.ctx
    return ctx.ge(noise_content(a).w_trivial, ctx.one() - _noise_weight(ctx, t))


def range_in_effect_class(a: Observable, predicate: Callable[[Sequence], bool]) -> bool:
    """Every partial sum of effects (the observable's range) satisfies the
    effect predicate; the outcome set is capped at 16."""
    n = a.n_outcomes
    if n > 16:
        raise ValueError("outcome set too large for range enumeration")
    ctx = a.space.ctx
    subsets = [[ctx.one() if i in combo else ctx.zero() for i in range(n)]
               for r in range(n + 1) for combo in itertools.combinations(range(n), r)]
    return all(predicate(e) for e in mat_mul(subsets, a.effects))


def noise_class_gap_observable(t: float = 0.2) -> tuple[Observable, float]:
    """A hexagon observable whose range lies in the effect-level noise class at
    parameter t although the observable itself is not a noisy observable at t.

    The effects are A_k = t a_k + (1-t) (r/6) u with r = 1/2 and
    a_k = 0.4 (e_k + e_{k+2}) + 0.1 u built from the six extreme effects; the
    a_k sum to 3u, every partial sum stays inside the noise class with margin,
    and the noise content lands at (1-t) r + t sum_min < 1 - t.
    """
    space = make_polygon(6)
    r_total = 0.5
    ext = [polygon_extreme_even(6, k) for k in range(1, 7)]
    effects = []
    for k in range(6):
        a_k = tuple(0.8 * 0.5 * (x + y) + 0.1 * u
                    for x, y, u in zip(ext[k], ext[(k + 2) % 6], space.unit))
        effects.append(tuple(t * ax + (1 - t) * (r_total / 6) * u
                             for ax, u in zip(a_k, space.unit)))
    return observable(space, effects), t


def unambiguous_qubit_bounds(c) -> tuple[float, float]:
    """(best two-outcome-simulable success, unrestricted optimum) for
    unambiguous discrimination of two pure qubit states with overlap c."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    return (1.0 - c * c) / 2.0, 1.0 - c
