"""Measure-and-prepare instruments: an observable on the input space plus one
prepared output state per outcome.  Their post-processing order is carried
entirely by the induced observables, so the checks delegate to the observable
relations; indecomposability additionally requires pure (vertex) preparations.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .numerics import DEFAULT, Context, Validated, dot
from .observables import (
    Observable,
    is_zero_effect,
    minimally_sufficient,
    observable_from_json,
)
from .postprocess import find_postprocessing, is_pp_clean
from .spaces import StateSpace, space_from_json


class _MPInstrumentFields(NamedTuple):
    observable: Observable
    prepared_states: tuple
    output_space: StateSpace


class MPInstrument(Validated, _MPInstrumentFields):
    __slots__ = ()

    def __new__(cls, observable: Observable, prepared_states: tuple, output_space: StateSpace):
        self = tuple.__new__(cls, (observable, prepared_states, output_space))
        if len(self.prepared_states) != self.observable.n_outcomes:
            raise ValueError("one prepared state per outcome required")
        return self

    def apply(self, state: Sequence) -> tuple:
        """Subnormalized conditional outputs A_x(s) * s'_x."""
        outs = []
        for e, prep in zip(self.observable.effects, self.prepared_states):
            w = dot(e, state)
            outs.append(tuple(w * c for c in prep))
        return tuple(outs)


def mp_instrument(obs: Observable, prepared_states: Sequence[Sequence],
                  output_space: StateSpace) -> MPInstrument:
    ctx = output_space.ctx
    preps = tuple(tuple(ctx.scalar(c) for c in s) for s in prepared_states)
    for s in preps:
        if not output_space.contains_state(s):
            raise ValueError("prepared state outside the output space")
    return MPInstrument(obs, preps, output_space)


def mp_postprocess_check(source: MPInstrument, target: MPInstrument) -> bool:
    """source -> target for measure-and-prepare instruments holds exactly when
    the induced observables are related."""
    return find_postprocessing(source.observable, target.observable) is not None


def is_indecomposable_mp(inst: MPInstrument) -> bool:
    """Indecomposable iff the induced observable is indecomposable and every
    state attached to a nonzero effect is pure."""
    obs = inst.observable
    if not is_pp_clean(obs):
        return False
    for e, prep in zip(obs.effects, inst.prepared_states):
        if is_zero_effect(obs.space, e):
            continue
        if inst.output_space.vertex_index_of(prep) is None:
            return False
    return True


def equiv_indecomposable_check(inst: MPInstrument) -> bool:
    """Post-processing equivalent with an indecomposable instrument iff the
    induced observable's minimally sufficient representative is clean (the
    preparations are irrelevant at the equivalence level)."""
    return is_pp_clean(minimally_sufficient(inst.observable))


def mp_instrument_from_json(obj: dict, ctx: Context = DEFAULT) -> MPInstrument:
    obs = observable_from_json(obj["observable"], ctx)
    out_space = space_from_json(obj["output_space_ref"], ctx) \
        if "output_space_ref" in obj else obs.space
    return mp_instrument(obs, obj["prepared_states"], out_space)
