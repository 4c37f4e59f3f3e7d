"""Observables: normalized finite effect families on a state space.

Carries the structural predicates (triviality, indecomposable effects,
extremality of clean observables), the noise content and the per-observable
max/min monotones, plus the minimally sufficient representative used to
canonicalize post-processing equivalence classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import Context, dot, rank
from .spaces import StateSpace, UnsupportedSpace, Vector


class PreconditionViolated(Exception):
    pass


@dataclass(frozen=True)
class Observable:
    space: StateSpace
    effects: tuple[Vector, ...]
    outcomes: tuple

    def __post_init__(self):
        if len(self.effects) != len(self.outcomes):
            raise ValueError("one effect per outcome required")

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def effect(self, outcome) -> Vector:
        return self.effects[self.outcomes.index(outcome)]

    def probabilities(self, state: Sequence) -> tuple:
        return tuple(dot(e, state) for e in self.effects)

    def to_json_dict(self) -> dict:
        def enc(x):
            return str(x) if isinstance(x, Fraction) else x
        return {"space_ref": self.space.label or self.space.to_json_dict(),
                "outcomes": list(self.outcomes),
                "effects": [[enc(x) for x in e] for e in self.effects]}


def observable(space: StateSpace, effects: Sequence[Sequence], outcomes=None) -> Observable:
    ctx = space.ctx
    effs = tuple(tuple(ctx.scalar(x) for x in e) for e in effects)
    if outcomes is None:
        outcomes = tuple(range(len(effs)))
    return Observable(space, effs, tuple(outcomes))


def trivial_observable(space: StateSpace, probs: Sequence) -> Observable:
    ctx = space.ctx
    return observable(space, [tuple(ctx.scalar(p) * x for x in space.unit) for p in probs])


def uniform_trivial(space: StateSpace, k: int) -> Observable:
    p = Fraction(1, k) if space.ctx.exact else 1.0 / k
    return trivial_observable(space, [p] * k)


def mix_observables(weights: Sequence, parts: Sequence[Observable]) -> Observable:
    """Convex mixture; all parts must share the outcome set."""
    space = parts[0].space
    ctx = space.ctx
    k = parts[0].n_outcomes
    if any(p.n_outcomes != k for p in parts):
        raise ValueError("mixture needs a common outcome set")
    effects = []
    for x in range(k):
        acc = [ctx.zero()] * space.ambient_dim
        for w, part in zip(weights, parts):
            w = ctx.scalar(w)
            acc = [a + w * b for a, b in zip(acc, part.effects[x])]
        effects.append(tuple(acc))
    return Observable(space, tuple(effects), parts[0].outcomes)


def apply_postprocessing(nu: Sequence[Sequence], source: Observable,
                         outcomes=None) -> Observable:
    """Row-stochastic nu (|Lambda| x |Omega|) applied to the source observable."""
    space = source.space
    ctx = space.ctx
    n_out = len(nu[0])
    effects = []
    for x in range(n_out):
        acc = [ctx.zero()] * space.ambient_dim
        for y, row in enumerate(nu):
            w = ctx.scalar(row[x])
            if not ctx.is_zero(w):
                acc = [a + w * b for a, b in zip(acc, source.effects[y])]
        effects.append(tuple(acc))
    if outcomes is None:
        outcomes = tuple(range(n_out))
    return Observable(space, tuple(effects), tuple(outcomes))


# ----------------------------------------------------------------- predicates
def validate(a: Observable) -> bool:
    return not validation_errors(a)


def validation_errors(a: Observable) -> list[str]:
    ctx = a.space.ctx
    errors = []
    for lbl, e in zip(a.outcomes, a.effects):
        if len(e) != a.space.ambient_dim:
            errors.append(f"effect {lbl!r}: dimension mismatch")
        elif not a.space.is_valid_effect(e):
            errors.append(f"effect {lbl!r}: not a valid effect")
    total = [sum(col) for col in zip(*a.effects)]
    if not all(ctx.eq(t, u) for t, u in zip(total, a.space.unit)):
        errors.append("effects do not sum to the unit functional")
    return errors


def _is_trivial_effect(space: StateSpace, e: Sequence) -> bool:
    ctx = space.ctx
    if space.kind == "ball":
        avec, _ = space.bloch(e)
        return all(ctx.is_zero(x) for x in avec)
    vals = [dot(e, v) for v in space.vertices]
    return all(ctx.eq(v, vals[0]) for v in vals)


def is_trivial(a: Observable) -> bool:
    """True iff every effect is a scalar multiple of the unit functional."""
    return all(_is_trivial_effect(a.space, e) for e in a.effects)


def is_zero_effect(space: StateSpace, e: Sequence) -> bool:
    ctx = space.ctx
    if space.kind == "ball":
        avec, alpha = space.bloch(e)
        return ctx.is_zero(alpha) and all(ctx.is_zero(x) for x in avec)
    return all(ctx.is_zero(dot(e, v)) for v in space.vertices)


@dataclass(frozen=True)
class NoiseReport:
    w_trivial: object
    per_outcome_min: tuple


def noise_content(a: Observable) -> NoiseReport:
    """Largest trivial weight in a convex decomposition: sum of per-effect minima."""
    space = a.space
    if space.kind == "ball":
        mins = []
        for e in a.effects:
            avec, alpha = space.bloch(e)
            mins.append((alpha - space.effect_norm(avec)) / 2)
        return NoiseReport(sum(mins), tuple(mins))
    mins = tuple(min(dot(e, v) for v in space.vertices) for e in a.effects)
    return NoiseReport(sum(mins), mins)


def lambda_max_obs(a: Observable):
    """Sum of per-effect maxima over states (decoding power)."""
    space = a.space
    if space.kind == "ball":
        tops = []
        for e in a.effects:
            avec, alpha = space.bloch(e)
            tops.append((alpha + space.effect_norm(avec)) / 2)
        return sum(tops)
    return sum(max(dot(e, v) for v in space.vertices) for e in a.effects)


def lambda_min_obs(a: Observable):
    """Negative of the summed per-effect minima; equals -noise_content."""
    return -noise_content(a).w_trivial


def is_indecomposable_effect(space: StateSpace, e: Sequence) -> bool:
    """True iff e lies on an extreme ray of the dual cone: its vanishing
    vertices span a space of rank equal to the affine dimension."""
    ctx = space.ctx
    if space.kind != "polytopic":
        raise UnsupportedSpace("indecomposability test needs a vertex representation")
    if is_zero_effect(space, e):
        raise ValueError("the zero effect is excluded")
    vals = [dot(e, v) for v in space.vertices]
    top = max(vals)
    vanishing = [space.vertices[j] for j, v in enumerate(vals) if ctx.is_zero(v / top)]
    if not vanishing:
        return space.affine_dim == 0
    return rank(vanishing, ctx) == space.affine_dim


def _proportionality(ctx: Context, e: Sequence, f: Sequence) -> Optional[object]:
    """c > 0 with f == c*e, judged by the ratio at e's largest component."""
    if ctx.exact:
        j = next((i for i, x in enumerate(e) if x != 0), None)
    else:
        j = max(range(len(e)), key=lambda i: abs(e[i]))
        if ctx.is_zero(e[j]):
            j = None
    if j is None:
        return None
    c = f[j] / e[j]
    if not ctx.pos(c):
        return None
    if all(ctx.eq(f[i], c * e[i]) for i in range(len(e))):
        return c
    return None


def minimally_sufficient(a: Observable) -> Observable:
    """Drop zero effects and merge positively proportional outcome classes.

    Ties in the merge order resolve to the lowest outcome label, so repeated
    runs give an identical representative.
    """
    space = a.space
    ctx = space.ctx
    kept: list[list[int]] = []
    for i in range(a.n_outcomes):
        if is_zero_effect(space, a.effects[i]):
            continue
        for cls in kept:
            if _proportionality(ctx, a.effects[cls[0]], a.effects[i]) is not None:
                cls.append(i)
                break
        else:
            kept.append([i])
    effects = []
    outcomes = []
    for cls in kept:
        acc = [ctx.zero()] * space.ambient_dim
        for i in cls:
            acc = [x + y for x, y in zip(acc, a.effects[i])]
        effects.append(tuple(acc))
        outcomes.append(a.outcomes[cls[0]])
    if not effects:  # all effects vanished: degenerate, keep the unit outcome
        effects = [tuple(space.unit)]
        outcomes = [a.outcomes[0] if a.outcomes else 0]
    return Observable(space, tuple(effects), tuple(outcomes))


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
def observable_from_json(obj: dict, ctx: Context | None = None,
                         space: StateSpace | None = None) -> Observable:
    from .spaces import space_from_json

    if space is None:
        space = space_from_json(obj["space_ref"], ctx)
    ctxr = space.ctx

    def dec(x):
        return ctxr.scalar(Fraction(x)) if isinstance(x, str) else ctxr.scalar(x)

    effects = [tuple(dec(x) for x in e) for e in obj["effects"]]
    outcomes = tuple(obj.get("outcomes") or range(len(effects)))
    return Observable(space, tuple(effects), outcomes)
