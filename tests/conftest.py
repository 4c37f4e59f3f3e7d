"""Shared generators for the test suite.

Random objects are built from explicit ``random.Random`` instances so every
test is reproducible; nothing here depends on global RNG state.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gptwb.numerics import dot, lp, total
from gptwb.observables import Observable, observable
from gptwb.spaces import StateSpace


def random_observable(space: StateSpace, n_outcomes: int, rng: random.Random,
                      margin: float = 0.9) -> Observable:
    """Valid observable sampled around the uniform trivial one: directions are
    Gaussian, scaled so every vertex evaluation keeps a positivity margin."""
    k = n_outcomes
    dim = space.ambient_dim
    gs = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(k)]
    gbar = [total(col) / k for col in zip(*gs)]
    dirs = [[a - b for a, b in zip(g, gbar)] for g in gs]
    worst = max((abs(float(dot(d, v))) for d in dirs for v in space.vertices),
                default=0.0)
    if worst == 0.0:
        return observable(space, [tuple(u * (1.0 / k) for u in space.unit)] * k)
    delta = margin * (1.0 / k) / worst
    effs = [tuple(u * (1.0 / k) + delta * dv for u, dv in zip(space.unit, d))
            for d in dirs]
    return observable(space, effs)


def random_rational_observable(space: StateSpace, n_outcomes: int,
                               rng: random.Random) -> Observable:
    """Observable with small-denominator rational effects (exact-backend safe)."""
    k = n_outcomes
    dim = space.ambient_dim
    gs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(dim)]
          for _ in range(k)]
    gbar = [sum(col) / k for col in zip(*gs)]
    dirs = [[a - b for a, b in zip(g, gbar)] for g in gs]
    worst = Fraction(0)
    for d in dirs:
        for v in space.vertices:
            val = abs(dot([Fraction(x) if not isinstance(x, Fraction) else x for x in d],
                          [Fraction(x) if not isinstance(x, Fraction) else x for x in v]))
            worst = max(worst, val)
    base = Fraction(1, k)
    delta = base / worst / 2 if worst > 0 else Fraction(0)
    effs = []
    for d in dirs:
        effs.append(tuple(base * space.ctx.scalar(u) + space.ctx.scalar(delta * dv)
                          for u, dv in zip(space.unit, d)))
    return observable(space, effs)


def random_stochastic(n: int, m: int, rng: random.Random) -> list[list[float]]:
    rows = []
    for _ in range(n):
        raw = [rng.random() + 1e-3 for _ in range(m)]
        s = total(raw)
        rows.append([v / s for v in raw])
    return rows


def padded_square(ctx):
    """The square with a zero coordinate appended: its vertices span only a
    3-dimensional subspace of R^4, so its dual rays do not generate the dual
    cone."""
    one, zero = ctx.one(), ctx.zero()
    vs = [(x * one, y * one, one, zero) for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    return StateSpace("polytopic", vertices=vs, unit=(zero, zero, one, zero), ctx=ctx,
                      label="padded-square")


def cube3(ctx):
    """The rational 3-cube: affine dimension 3, square facets of 4 vertices."""
    one = ctx.one()
    vs = [tuple(s * one for s in signs) + (one,) for signs in itertools.product((1, -1), repeat=3)]
    return StateSpace("polytopic", vertices=vs, unit=(ctx.zero(),) * 3 + (one,), ctx=ctx,
                      label="cube3")


def cube4(ctx):
    """The 4-cube at height 1 (affine dimension 4: no dual-ray enumeration)."""
    one, zero = ctx.one(), ctx.zero()
    vs = [tuple(s * one for s in signs) + (one,)
          for signs in itertools.product((1, -1), repeat=4)]
    return StateSpace("polytopic", vertices=vs, unit=(zero,) * 4 + (one,), ctx=ctx,
                      label="cube4")


def sparse(row) -> list:
    """A dense LP row as the (column, coefficient) pairs of its nonzeros."""
    return [(j, c) for j, c in enumerate(row) if c]


def count_pivots(monkeypatch) -> dict:
    """Patch the LP engine to count its pivots by phase ({1: n, 2: n}); a
    ``_run_simplex`` call with an all-zero cost is phase 1."""
    counts = {1: 0, 2: 0}
    phase = [1]
    run, pivot = lp._run_simplex, lp._pivot

    def counting_run(tableau, basis, cost, ctx):
        phase[0] = 2 if any(cost) else 1
        return run(tableau, basis, cost, ctx)

    def counting_pivot(*args):
        counts[phase[0]] += 1
        return pivot(*args)

    monkeypatch.setattr(lp, "_run_simplex", counting_run)
    monkeypatch.setattr(lp, "_pivot", counting_pivot)
    return counts
