"""Observables: normalized finite effect families on a state space.

Carries the structural predicates (triviality, indecomposable effects,
extremality of clean observables), the noise content and the per-observable
max/min monotones, plus the minimally sufficient representative used to
canonicalize post-processing equivalence classes.  The predicates and
monotones read each effect's range over the states
(``StateSpace.effect_range``) and the dual-ray test
(``StateSpace.extreme_ray``) from the space, whatever its kind.  No
observable can be built whose effects do not sum to u within the tolerance,
nor on the exact backend one with an invalid effect; on floats effect
validity is a tolerance judgement that ``validate`` reports.

An ``Observable`` is a NamedTuple ``(space, effects, outcomes)``: it
compares equal to the plain tuple of those three fields, and ``len()``
counts the fields, not the outcomes; the outcome count is ``n_outcomes``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .numerics import DEFAULT, Context, Validated, dot, mat_mul, rank, total
from .spaces import StateSpace, UnsupportedSpace, Vector, space_from_json, space_from_ref


class PreconditionViolated(Exception):
    pass


class _ObservableFields(NamedTuple):
    space: StateSpace
    effects: tuple[Vector, ...]
    outcomes: tuple


class Observable(Validated, _ObservableFields):
    __slots__ = ()

    def __new__(cls, space: StateSpace, effects: tuple[Vector, ...], outcomes: tuple):
        self = tuple.__new__(cls, (space, effects, outcomes))
        if len(self.effects) != len(self.outcomes):
            raise ValueError("one effect per outcome required")
        dim = self.space.ambient_dim
        for lbl, e in zip(self.outcomes, self.effects):
            if len(e) != dim:
                raise ValueError(f"invalid observable: effect {lbl!r} has {len(e)} "
                                 f"coordinates, the space {dim}")
        if not sums_to_unit(self):
            raise ValueError("invalid observable: effects do not sum to the unit functional")
        if self.space.ctx.exact:
            errors = validation_errors(self)
            if errors:
                raise ValueError("invalid observable: " + "; ".join(errors))
        return self

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def probabilities(self, state: Sequence) -> tuple:
        return tuple(dot(e, state) for e in self.effects)

    def to_json_dict(self) -> dict:
        def enc(x):
            return str(x) if isinstance(x, Fraction) else x
        return {"space_ref": _space_ref(self.space),
                "outcomes": list(self.outcomes),
                "effects": [[enc(x) for x in e] for e in self.effects]}


def observable(space: StateSpace, effects: Sequence[Sequence], outcomes=None) -> Observable:
    ctx = space.ctx
    effs = tuple(tuple(ctx.scalar(x) for x in e) for e in effects)
    if outcomes is None:
        outcomes = tuple(range(len(effs)))
    return Observable(space, effs, tuple(outcomes))


def trivial_observable(space: StateSpace, probs: Sequence) -> Observable:
    """Effects p_x u; the probabilities must sum to 1, so that they sum to u."""
    ctx = space.ctx
    return observable(space, [tuple(ctx.scalar(p) * x for x in space.unit) for p in probs])


def uniform_trivial(space: StateSpace, k: int) -> Observable:
    p = space.ctx.one() / k
    return trivial_observable(space, [p] * k)


def common_space(obs: Sequence[Observable]) -> StateSpace:
    """The state space of all the observables (``StateSpace.__eq__``), or
    ValueError (also for no observables)."""
    if not obs:
        raise ValueError("no observables to share a space")
    space = obs[0].space
    if not all(o.space == space for o in obs[1:]):
        raise ValueError("observables live on different spaces")
    return space


def _space_ref(space: StateSpace):
    """The space's label where ``space_from_ref`` rebuilds the same space
    from it, else the space's JSON dict."""
    try:
        if space.label and space_from_ref(space.label, space.ctx) == space:
            return space.label
    except (ValueError, UnsupportedSpace):  # a label that is no space reference
        pass
    return space.to_json_dict()


def mix_observables(weights: Sequence, parts: Sequence[Observable]) -> Observable:
    """Convex mixture; all parts must share the space and the outcome set,
    and there is one weight per part.  The result must sum to u, so the
    weights must sum to 1."""
    space = common_space(parts)
    ctx = space.ctx
    k = parts[0].n_outcomes
    if any(p.n_outcomes != k for p in parts):
        raise ValueError("mixture needs a common outcome set")
    if len(weights) != len(parts):
        raise ValueError(f"{len(weights)} weights for {len(parts)} parts of a mixture")
    ws = [[ctx.scalar(w) for w in weights]]
    effects = tuple(mat_mul(ws, [part.effects[x] for part in parts])[0] for x in range(k))
    return Observable(space, effects, parts[0].outcomes)


def apply_postprocessing(nu: Sequence[Sequence], source: Observable) -> Observable:
    """Row-stochastic nu (|Lambda| x |Omega|) applied to the source observable:
    the effects are nu's transpose times the source's, and every weight
    counts, however small.  ValueError unless nu has one row per source
    outcome, all of one nonzero length, and unless the result sums to u,
    which needs nu's rows to sum to 1; on floats whether each effect of the
    result is valid is ``validate``'s call."""
    space = source.space
    ctx = space.ctx
    if len(nu) != source.n_outcomes:
        raise ValueError(f"{len(nu)} post-processing rows for {source.n_outcomes} outcomes")
    n_out = len(nu[0])
    if any(len(row) != n_out for row in nu):
        raise ValueError("post-processing rows differ in length")
    if n_out == 0:
        raise ValueError("post-processing rows are empty: no outcome to map to")
    nu_t = [[ctx.scalar(w) for w in col] for col in zip(*nu)]
    return Observable(space, mat_mul(nu_t, source.effects), tuple(range(n_out)))


# ----------------------------------------------------------------- predicates
def validate(a: Observable) -> bool:
    return not validation_errors(a)


def validation_errors(a: Observable) -> list[str]:
    errors = []
    for lbl, e in zip(a.outcomes, a.effects):
        if not a.space.is_valid_effect(e):
            errors.append(f"effect {lbl!r}: not a valid effect")
    return errors


def sums_to_unit(a: Observable) -> bool:
    """The effects sum to u within the context's tolerance (no effects do
    not: u is nonzero)."""
    return bool(a.effects) and all(map(a.space.ctx.eq, map(total, zip(*a.effects)), a.space.unit))


def is_trivial(a: Observable) -> bool:
    """True iff every effect is a scalar multiple of the unit functional."""
    ctx = a.space.ctx
    return all(ctx.eq(*a.space.effect_range(e)) for e in a.effects)


def is_zero_effect(space: StateSpace, e: Sequence) -> bool:
    lo, hi = space.effect_range(e)
    return space.ctx.is_zero(lo) and space.ctx.is_zero(hi)


class NoiseReport(NamedTuple):
    w_trivial: object
    per_outcome_min: tuple


def noise_content(a: Observable) -> NoiseReport:
    """Largest trivial weight in a convex decomposition: sum of per-effect minima."""
    mins = tuple(a.space.effect_range(e)[0] for e in a.effects)
    return NoiseReport(total(mins), mins)


def lambda_max_obs(a: Observable):
    """Sum of per-effect maxima over states (decoding power)."""
    return total(a.space.effect_range(e)[1] for e in a.effects)


def lambda_min_obs(a: Observable):
    """Negative of the summed per-effect minima; equals -noise_content."""
    return -noise_content(a).w_trivial


def is_indecomposable_effect(space: StateSpace, e: Sequence) -> bool:
    """True iff e lies on an extreme ray of the dual cone: it is nonnegative
    and its vanishing vertices span a space of rank equal to the affine
    dimension."""
    ray = space.extreme_ray(e)
    if ray is None and is_zero_effect(space, e):
        raise ValueError("the zero effect is excluded")
    return ray is not None and space.ctx.ge(space.effect_range(e)[0], space.ctx.zero())


def _proportionality(ctx: Context, e: Sequence, f: Sequence) -> Optional[object]:
    """c > 0 with f == c*e, judged by the ratio at e's largest component."""
    j = max(range(len(e)), key=lambda i: abs(e[i]))
    if ctx.is_zero(e[j]):
        return None
    c = f[j] / e[j]
    if not ctx.pos(c):
        return None
    if all(ctx.eq(f[i], c * e[i]) for i in range(len(e))):
        return c
    return None


def minimally_sufficient(a: Observable) -> Observable:
    """Merge positively proportional outcome classes, and fold the zero
    effects into the first class (there is one: the effects sum to u).

    Ties in the merge order resolve to the lowest outcome label, so repeated
    runs give an identical representative.
    """
    space = a.space
    ctx = space.ctx
    kept: list[list[int]] = []
    zeros = []
    for i in range(a.n_outcomes):
        if is_zero_effect(space, a.effects[i]):
            zeros.append(i)
            continue
        for cls in kept:
            if _proportionality(ctx, a.effects[cls[0]], a.effects[i]) is not None:
                cls.append(i)
                break
        else:
            kept.append([i])
    kept[0] += zeros  # each is zero within eps, their sum need not be: keep it
    merge = [[ctx.one() if i in cls else ctx.zero() for i in range(a.n_outcomes)] for cls in kept]
    return Observable(space, mat_mul(merge, a.effects), tuple(a.outcomes[cls[0]] for cls in kept))


def is_extreme_clean(a: Observable) -> bool:
    """For observables whose nonzero effects are all indecomposable: extremality
    is equivalent to linear independence of the nonzero effects."""
    space = a.space
    nonzero = [e for e in a.effects if not is_zero_effect(space, e)]
    for e in nonzero:
        if not is_indecomposable_effect(space, e):
            raise PreconditionViolated("a nonzero effect is decomposable")
    return rank(nonzero, space.ctx) == len(nonzero)


# ----------------------------------------------------------------- serialise
def observable_from_json(obj: dict, ctx: Context = DEFAULT) -> Observable:
    space = space_from_json(obj["space_ref"], ctx)
    return observable(space, obj["effects"], obj.get("outcomes") or None)
