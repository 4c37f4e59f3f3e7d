"""State spaces, effects and the derived dual-cone geometry.

A polytopic state space is stored by its vertex list in R^{d+1} together with
the unit functional u (so u(v) = 1 for every vertex v).  Every positivity test
reduces to vertex evaluations, which turns all downstream relation checks into
finite LPs.  Norm-ball spaces (Euclidean unit balls, the qubit/rebit Bloch
bodies) are kept alongside for the closed-form compatibility criteria; they
have no vertices and support only the operations with closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import Context, DEFAULT, dot, null_space_vector, rank, solve_unique

Vector = tuple


class UnsupportedSpace(Exception):
    """Operation not available for this space kind or size."""


@dataclass(frozen=True)
class DualRay:
    """Extreme ray of the dual cone, scaled so the largest vertex value is 1."""

    direction: Vector
    vanishing_vertices: tuple[int, ...]


@dataclass(frozen=True)
class Summand:
    """One block of a direct-sum decomposition."""

    coord_offset: int
    coord_dim: int
    vertex_indices: tuple[int, ...]
    space: "StateSpace"


class StateSpace:
    """Compact convex base of a cone, vertex-represented or a norm ball."""

    def __init__(self, kind: str, *, vertices=None, unit=None, ball_dim=None,
                 norm: str = "euclidean", summands=None, ctx: Context | None = None,
                 label: str = "", psym: bool = False):
        self.kind = kind
        self.ctx = ctx or DEFAULT
        self.label = label
        self.psym = psym
        self.summands: Optional[tuple[Summand, ...]] = tuple(summands) if summands else None
        if kind == "polytopic":
            vs = tuple(tuple(self.ctx.scalar(x) for x in v) for v in vertices)
            self.vertices = vs
            self.unit = tuple(self.ctx.scalar(x) for x in unit)
            for v in vs:
                if not self.ctx.eq(dot(self.unit, v), self.ctx.one()):
                    raise ValueError("vertex not normalized: u(v) != 1")
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    if all(self.ctx.eq(a, b) for a, b in zip(vs[i], vs[j])):
                        raise ValueError("duplicate vertices")
            self.ball_dim = None
            self.norm_name = None
        elif kind == "ball":
            if ball_dim is None or ball_dim < 1:
                raise ValueError("ball dimension must be >= 1")
            if norm != "euclidean":
                raise ValueError("only the euclidean ball is supported")
            self.vertices = None
            self.ball_dim = ball_dim
            self.norm_name = norm
            self.unit = tuple([self.ctx.scalar(0)] * ball_dim + [self.ctx.scalar(1)])
            self.psym = True
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        self._cache: dict = {}

    # ---------------------------------------------------------------- basics
    @property
    def ambient_dim(self) -> int:
        if self.kind == "ball":
            return self.ball_dim + 1
        return len(self.vertices[0])

    @property
    def affine_dim(self) -> int:
        if self.kind == "ball":
            return self.ball_dim
        key = "affine_dim"
        if key not in self._cache:
            self._cache[key] = rank(self.vertices, self.ctx) - 1
        return self._cache[key]

    @property
    def n_vertices(self) -> int:
        if self.vertices is None:
            raise UnsupportedSpace("norm balls have no vertex list")
        return len(self.vertices)

    def is_simplex(self) -> bool:
        return self.kind == "polytopic" and self.n_vertices == self.affine_dim + 1

    def __repr__(self) -> str:
        return f"StateSpace({self.label or self.kind})"

    # ------------------------------------------------------------- effects
    def zero_effect(self) -> Vector:
        return tuple([self.ctx.zero()] * self.ambient_dim)

    def evaluate(self, effect: Sequence, state: Sequence):
        return dot(effect, state)

    def effect_norm(self, avec: Sequence):
        """Dual norm of a Bloch direction: sup over states of a . s.  A float on
        balls; on polytopes a scalar of the space's field."""
        if self.kind == "ball":
            return math.sqrt(float(sum(x * x for x in avec)))
        if not self.psym:
            raise UnsupportedSpace("effect norm needs a point-symmetric embedding")
        top = max(dot(avec, v[:-1]) for v in self.vertices)
        return top if self.ctx.exact else float(top)

    def bloch(self, effect: Sequence) -> tuple[tuple, object]:
        """(a, alpha) with effect = (a, alpha)/2; canonical embedding only."""
        if not self.psym:
            raise UnsupportedSpace("Bloch form needs a point-symmetric embedding")
        d = self.ambient_dim - 1
        return tuple(2 * x for x in effect[:d]), 2 * effect[d]

    def effect_from_bloch(self, avec: Sequence, alpha) -> Vector:
        if not self.psym:
            raise UnsupportedSpace("Bloch form needs a point-symmetric embedding")
        half = Fraction(1, 2) if self.ctx.exact else 0.5
        return tuple([half * self.ctx.scalar(x) for x in avec] + [half * self.ctx.scalar(alpha)])

    def is_valid_effect(self, effect: Sequence) -> bool:
        if len(effect) != self.ambient_dim:
            raise ValueError("effect dimension mismatch")
        ctx = self.ctx
        if self.kind == "ball":
            avec, alpha = self.bloch(effect)
            na = self.effect_norm(avec)
            return ctx.le(na, alpha) and ctx.le(alpha, 2 - na)
        zero, one = ctx.zero(), ctx.one()
        return all(ctx.ge(dot(effect, v), zero) and ctx.le(dot(effect, v), one)
                   for v in self.vertices)

    # ----------------------------------------------------------- dual rays
    def dual_rays(self) -> tuple[DualRay, ...]:
        """All extreme rays of the dual cone (polytopic spaces)."""
        if self.kind != "polytopic":
            raise UnsupportedSpace("dual rays need a vertex representation")
        key = "dual_rays"
        if key not in self._cache:
            self._cache[key] = self._compute_dual_rays()
        return self._cache[key]

    def _compute_dual_rays(self) -> tuple[DualRay, ...]:
        ctx = self.ctx
        if self.summands:
            rays = []
            for s in self.summands:
                for ray in s.space.dual_rays():
                    direction = [ctx.zero()] * self.ambient_dim
                    for k, x in enumerate(ray.direction):
                        direction[s.coord_offset + k] = x
                    rays.append(self._finish_ray(tuple(direction)))
            return tuple(r for r in rays if r is not None)
        if self.is_simplex():
            # vertex-indicator functionals: solve h_i(v_j) = delta_ij
            n = self.n_vertices
            rays = []
            for i in range(n):
                rhs = [ctx.one() if j == i else ctx.zero() for j in range(n)]
                h = solve_unique(self.vertices, rhs, ctx)
                if h is None:
                    raise UnsupportedSpace("degenerate simplex")
                rays.append(DualRay(h, tuple(j for j in range(n) if j != i)))
            return tuple(rays)
        d = self.affine_dim
        if d > 3:
            raise UnsupportedSpace("dual-ray enumeration supports affine dimension <= 3")
        found: list[DualRay] = []
        for subset in itertools.combinations(range(self.n_vertices), d):
            rows = [self.vertices[i] for i in subset]
            direction = null_space_vector(rows, ctx)
            if direction is None:
                continue
            ray = self._finish_ray(direction)
            if ray is None:
                continue
            if not any(self._same_direction(ray.direction, r.direction) for r in found):
                found.append(ray)
        return tuple(found)

    def _finish_ray(self, direction: Vector) -> Optional[DualRay]:
        ctx = self.ctx
        evals = [dot(direction, v) for v in self.vertices]
        if all(ctx.is_zero(e) for e in evals):
            return None
        if all(ctx.ge(e, ctx.zero()) for e in evals):
            pass
        elif all(ctx.le(e, ctx.zero()) for e in evals):
            direction = tuple(-x for x in direction)
            evals = [-e for e in evals]
        else:
            return None
        top = max(evals)
        direction = tuple(x / top for x in direction)
        vanishing = tuple(j for j, e in enumerate(evals) if ctx.is_zero(e / top))
        if rank([self.vertices[j] for j in vanishing], ctx) != self.affine_dim:
            return None
        return DualRay(direction, vanishing)

    def _same_direction(self, a: Vector, b: Vector) -> bool:
        return all(self.ctx.eq(x, y) for x, y in zip(a, b))

    # ------------------------------------------------- extreme effect points
    def extreme_effects(self) -> tuple[Vector, ...]:
        """Nontrivial extreme points of the effect polytope (o, u excluded)."""
        if self.kind != "polytopic":
            raise UnsupportedSpace("extreme effects need a vertex representation")
        key = "extreme_effects"
        if key not in self._cache:
            self._cache[key] = self._compute_extreme_effects()
        return self._cache[key]

    def _compute_extreme_effects(self) -> tuple[Vector, ...]:
        ctx = self.ctx
        d1 = self.ambient_dim
        n = self.n_vertices
        constraints = [(j, bound) for j in range(n) for bound in (0, 1)]
        points: list[Vector] = []
        for combo in itertools.combinations(constraints, d1):
            rows = [self.vertices[j] for j, _ in combo]
            rhs = [ctx.scalar(bound) for _, bound in combo]
            e = solve_unique(rows, rhs, ctx)
            if e is None or not self.is_valid_effect(e):
                continue
            if all(ctx.is_zero(x) for x in e):
                continue
            if all(ctx.eq(dot(e, v), dot(e, self.vertices[0])) for v in self.vertices):
                continue  # proportional to u (covers u itself)
            if not any(all(ctx.eq(a, b) for a, b in zip(e, p)) for p in points):
                points.append(e)
        return tuple(points)

    # --------------------------------------------------------------- states
    def contains_state(self, state: Sequence) -> bool:
        """Convex-hull membership (LP for polytopes, norm test for balls)."""
        ctx = self.ctx
        if self.kind == "ball":
            if not ctx.eq(state[-1], ctx.one()):
                return False
            return self.effect_norm(state[:-1]) <= 1 + (0 if ctx.exact else ctx.eps)
        from .numerics import LPProblem, lp_solve

        n = self.n_vertices
        p = LPProblem(n=n, bounds=[(ctx.zero(), None)] * n)
        p.add_eq([ctx.one()] * n, ctx.one())
        for c in range(self.ambient_dim):
            p.add_eq([self.vertices[i][c] for i in range(n)], ctx.scalar(state[c]))
        return lp_solve(p, ctx).feasible

    def vertex_index_of(self, state: Sequence) -> Optional[int]:
        for i, v in enumerate(self.vertices):
            if all(self.ctx.eq(a, self.ctx.scalar(b)) for a, b in zip(v, state)):
                return i
        return None

    # -------------------------------------------------------------- serialise
    def to_json_dict(self) -> dict:
        if self.kind == "ball":
            return {"kind": "ball", "dim": self.ball_dim, "norm": "euclidean"}
        def enc(x):
            return str(x) if isinstance(x, Fraction) else x
        out = {"kind": "polytopic", "vertices": [[enc(x) for x in v] for v in self.vertices],
               "unit": [enc(x) for x in self.unit]}
        if self.label:
            out["label"] = self.label
        if self.summands:
            out["summands"] = [{"coord_offset": s.coord_offset, "coord_dim": s.coord_dim,
                                "vertex_indices": list(s.vertex_indices)} for s in self.summands]
        return out


# ------------------------------------------------------------- constructors
def make_classical(d: int, ctx: Context | None = None) -> StateSpace:
    """(d-1)-simplex with standard-basis vertices; u sums the coordinates."""
    if d < 1:
        raise ValueError("classical system needs d >= 1")
    ctx = ctx or DEFAULT
    one, zero = ctx.one(), ctx.zero()
    vertices = [tuple(one if j == i else zero for j in range(d)) for i in range(d)]
    return StateSpace("polytopic", vertices=vertices, unit=tuple([one] * d), ctx=ctx,
                      label=f"classical:{d}")


def polygon_radius(n: int) -> float:
    return math.sqrt(1.0 / math.cos(math.pi / n))


def make_polygon(n: int, ctx: Context | None = None) -> StateSpace:
    """Regular n-gon state space at height 1; float backend only."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    ctx = ctx or DEFAULT
    if ctx.exact:
        raise UnsupportedSpace("polygon coordinates are irrational; use the float backend")
    r = polygon_radius(n)
    vertices = [(r * math.cos(2 * k * math.pi / n), r * math.sin(2 * k * math.pi / n), 1.0)
                for k in range(1, n + 1)]
    return StateSpace("polytopic", vertices=vertices, unit=(0.0, 0.0, 1.0), ctx=ctx,
                      label=f"polygon:{n}", psym=(n % 2 == 0))


def make_ball(d: int, ctx: Context | None = None) -> StateSpace:
    """Euclidean unit-ball state space (d=3: qubit Bloch ball, d=2: rebit)."""
    return StateSpace("ball", ball_dim=d, ctx=ctx or DEFAULT, label=f"ball:{d}")


def make_square(ctx: Context | None = None) -> StateSpace:
    """Rational unit square (linearly isomorphic to polygon:4); exact-friendly."""
    ctx = ctx or DEFAULT
    one = ctx.one()
    vs = [(one, one, one), (-one, one, one), (-one, -one, one), (one, -one, one)]
    return StateSpace("polytopic", vertices=vs, unit=(ctx.zero(), ctx.zero(), one), ctx=ctx,
                      label="square", psym=True)


def direct_sum(spaces: Sequence[StateSpace]) -> StateSpace:
    """Block-coordinate direct sum of polytopic spaces."""
    if not spaces:
        raise ValueError("need at least one summand")
    if any(s.kind != "polytopic" for s in spaces):
        raise UnsupportedSpace("direct sums are defined for polytopic summands")
    if len(spaces) == 1:
        return spaces[0]
    ctx = spaces[0].ctx
    total = sum(s.ambient_dim for s in spaces)
    vertices: list[tuple] = []
    unit: list = []
    summands: list[Summand] = []
    coord = 0
    vtx = 0
    for s in spaces:
        idxs = []
        for v in s.vertices:
            padded = [ctx.zero()] * total
            for k, x in enumerate(v):
                padded[coord + k] = x
            vertices.append(tuple(padded))
            idxs.append(vtx)
            vtx += 1
        unit.extend(s.unit)
        summands.append(Summand(coord, s.ambient_dim, tuple(idxs), s))
        coord += s.ambient_dim
    label = "dsum:" + "+".join(s.label or "space" for s in spaces)
    return StateSpace("polytopic", vertices=vertices, unit=tuple(unit), ctx=ctx,
                      label=label, summands=summands)


# --------------------------------------------------------------- space refs
def space_from_ref(ref: str, ctx: Context | None = None) -> StateSpace:
    """Parse a space literal: classical:d, polygon:n, ball:d, square,
    dsum:<ref>+<ref>."""
    ctx = ctx or DEFAULT
    ref = ref.strip()
    if ref.startswith("dsum:"):
        parts = ref[len("dsum:"):].split("+")
        return direct_sum([space_from_ref(p, ctx) for p in parts])
    if ref == "square":
        return make_square(ctx)
    kind, _, arg = ref.partition(":")
    if kind == "classical":
        return make_classical(int(arg), ctx)
    if kind == "polygon":
        return make_polygon(int(arg), ctx)
    if kind == "ball":
        return make_ball(int(arg), ctx)
    raise ValueError(f"unknown space reference {ref!r}")


def space_from_json(obj, ctx: Context | None = None) -> StateSpace:
    if isinstance(obj, str):
        return space_from_ref(obj, ctx)
    ctx = ctx or DEFAULT
    if obj.get("kind") == "ball":
        return make_ball(int(obj["dim"]), ctx)
    def dec(x):
        return ctx.scalar(Fraction(x)) if isinstance(x, str) else ctx.scalar(x)
    vertices = [tuple(dec(x) for x in v) for v in obj["vertices"]]
    unit = tuple(dec(x) for x in obj["unit"])
    summands = None
    if obj.get("summands"):
        raise UnsupportedSpace("direct sums must be built via space references")
    return StateSpace("polytopic", vertices=vertices, unit=unit, ctx=ctx,
                      label=obj.get("label", ""), summands=summands)


def polygon_extreme_even(n: int, k: int) -> Vector:
    """k-th nontrivial extreme effect of an even n-gon (1-indexed)."""
    r = polygon_radius(n)
    ang = (2 * k - 1) * math.pi / n
    return (0.5 * r * math.cos(ang), 0.5 * r * math.sin(ang), 0.5)


def polygon_extreme_odd(n: int, k: int) -> Vector:
    """k-th lower extreme effect of an odd n-gon (1-indexed); the upper family
    consists of the complements u - g_k."""
    r = polygon_radius(n)
    c = 1.0 / (1.0 + r * r)
    ang = 2 * k * math.pi / n
    return (c * r * math.cos(ang), c * r * math.sin(ang), c)
