"""The post-processing preorder on observables, decided by LP feasibility.

``find_postprocessing(B, A)`` searches for a row-stochastic matrix nu with
A_x = sum_y nu_yx B_y.  That is simulation from the single simulator B: the
sum row makes its weight, the sum of the matrix's row 0, equal to 1, so the
simulation LP's one matrix is nu; the solver pivots deterministically, so
witnesses are reproducible.
"""

from __future__ import annotations

from typing import Optional

from .observables import Observable, is_indecomposable_effect, is_zero_effect


def find_postprocessing(source: Observable, target: Observable) -> Optional[tuple]:
    """Row-stochastic nu (|Lambda| x |Omega|) with target = nu o source, or None."""
    from .simulation import is_simulable

    witness = is_simulable(target, [source])
    return None if witness is None else witness.matrices[0]


def are_pp_equivalent(a: Observable, b: Observable) -> bool:
    """Both post-processing directions succeed."""
    return (find_postprocessing(b, a) is not None
            and find_postprocessing(a, b) is not None)


def is_pp_clean(a: Observable) -> bool:
    """Maximal in the post-processing order: every nonzero effect lies on an
    extreme ray of the dual cone."""
    space = a.space
    nonzero = [e for e in a.effects if not is_zero_effect(space, e)]
    if not nonzero:
        return False
    return all(is_indecomposable_effect(space, e) for e in nonzero)
