"""State spaces, effects and the derived dual-cone geometry.

A polytopic state space is stored by its vertex list in R^{d+1} together with
the unit functional u (so u(v) = 1 for every vertex v).  Every positivity test
reduces to vertex evaluations, which turns all downstream relation checks into
finite LPs; ``effect_block`` is the one way those LPs encode an effect.
Norm-ball spaces (Euclidean unit balls, the qubit/rebit Bloch
bodies) are kept alongside for the closed-form compatibility criteria; they
have no vertices and support only the operations with closed forms: the
others read ``StateSpace.vertices``, which raises ``UnsupportedSpace``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .numerics import (
    DEFAULT,
    Context,
    Echelon,
    LPProblem,
    dot,
    independent_subsets,
    lp_solve,
    mat_mul,
    rank,
    total,
)

Vector = tuple


class UnsupportedSpace(Exception):
    """Operation not available for this space kind or size."""


class DualRay(NamedTuple):
    """Extreme ray of the dual cone, scaled so the largest vertex value is 1."""

    direction: Vector
    vanishing_vertices: tuple[int, ...]


class Summand(NamedTuple):
    """One block of a direct-sum decomposition."""

    coord_offset: int
    coord_dim: int
    vertex_indices: tuple[int, ...]
    space: "StateSpace"


class StateSpace:
    """Compact convex base of a cone, vertex-represented or a norm ball."""

    def __init__(self, kind: str, *, vertices=None, unit=None, ball_dim=None,
                 summands=None, ctx: Context = DEFAULT,
                 label: str = ""):
        self.kind = kind
        self.ctx = ctx
        self.label = label
        self.summands: Optional[tuple[Summand, ...]] = tuple(summands) if summands else None
        if kind == "polytopic":
            vs = tuple(tuple(self.ctx.scalar(x) for x in v) for v in vertices)
            self._vertices = vs
            self.unit = tuple(self.ctx.scalar(x) for x in unit)
            if not vs:
                raise ValueError("a polytopic space needs at least one vertex")
            for i, v in enumerate(vs):
                if len(v) != len(self.unit):
                    raise ValueError(f"vertex {i} has {len(v)} coordinates, "
                                     f"the unit {len(self.unit)}")
                if not self.ctx.eq(dot(self.unit, v), self.ctx.one()):
                    raise ValueError("vertex not normalized: u(v) != 1")
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    if all(self.ctx.eq(a, b) for a, b in zip(vs[i], vs[j])):
                        raise ValueError("duplicate vertices")
            self.ball_dim = None
        elif kind == "ball":
            if ball_dim is None or ball_dim < 1:
                raise ValueError("ball dimension must be >= 1")
            self._vertices = None
            self.ball_dim = ball_dim
            self.unit = tuple([self.ctx.scalar(0)] * ball_dim + [self.ctx.scalar(1)])
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
    def vertices(self) -> tuple:
        """The vertex list, which vertex-only operations read: on a norm
        ball it raises UnsupportedSpace."""
        if self._vertices is None:
            raise UnsupportedSpace("norm balls have no vertex list")
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def psym(self) -> bool:
        """Point symmetry in the canonical embedding, which the Bloch form
        needs: a ball, or u = (0, ..., 0, 1) with v -> (-v[:-1], 1) mapping
        the vertices onto themselves (so a single point is symmetric)."""
        if self.kind == "ball":
            return True
        key = "psym"
        if key not in self._cache:
            ctx, vs = self.ctx, self.vertices
            canonical = (ctx.zero(),) * (len(self.unit) - 1) + (ctx.one(),)
            self._cache[key] = (
                all(map(ctx.eq, self.unit, canonical))
                and all(any(all(ctx.eq(a, -b) for a, b in zip(v[:-1], w[:-1])) for w in vs)
                        for v in vs))
        return self._cache[key]

    def spans_ambient(self) -> bool:
        """Whether the vertices span the ambient space; if not, the dual cone
        holds a line (the direction every state annihilates), so it has no
        extreme rays and the effects have no extreme points."""
        return self.affine_dim + 1 == self.ambient_dim

    def is_simplex(self) -> bool:
        return self.kind == "polytopic" and self.n_vertices == self.affine_dim + 1

    def __repr__(self) -> str:
        return f"StateSpace({self.label or self.kind})"

    def __eq__(self, other) -> bool:
        """One object, or the same context, kind, unit and vertex list (a
        ball's unit fixes its dimension): labels do not count, so a pickled
        or copied space equals its original."""
        return self is other or (isinstance(other, StateSpace) and
                                 (self.ctx, self.kind, self.unit, self._vertices)
                                 == (other.ctx, other.kind, other.unit, other._vertices))

    def __hash__(self) -> int:
        return hash((self.ctx, self.kind, self.unit))

    # ------------------------------------------------------------- effects
    def zero_effect(self) -> Vector:
        return tuple([self.ctx.zero()] * self.ambient_dim)

    def effect_norm(self, avec: Sequence):
        """Dual norm of a Bloch direction: sup over states of a . s.  A float on
        balls; on polytopes a scalar of the space's field."""
        if self.kind == "ball":
            return math.sqrt(float(dot(avec, avec)))
        if not self.psym:
            raise UnsupportedSpace("effect norm needs a point-symmetric embedding")
        if not avec:  # a single point: the only Bloch vector is empty
            return self.ctx.zero()
        return max(dot(avec, v[:-1]) for v in self.vertices)

    def bloch(self, effect: Sequence) -> tuple[tuple, object]:
        """(a, alpha) with effect = (a, alpha)/2; canonical embedding only.
        ValueError for an effect of the wrong length."""
        if not self.psym:
            raise UnsupportedSpace("Bloch form needs a point-symmetric embedding")
        if len(effect) != self.ambient_dim:
            raise ValueError("effect dimension mismatch")
        d = self.ambient_dim - 1
        return tuple(2 * x for x in effect[:d]), 2 * effect[d]

    def effect_from_bloch(self, avec: Sequence, alpha) -> Vector:
        if not self.psym:
            raise UnsupportedSpace("Bloch form needs a point-symmetric embedding")
        half = self.ctx.one() / 2
        return tuple([half * self.ctx.scalar(x) for x in avec] + [half * self.ctx.scalar(alpha)])

    def effect_range(self, effect: Sequence) -> tuple:
        """(min, max) of the effect over the states: the extreme vertex values
        of a polytope, (alpha -/+ ||a||) / 2 in a ball's Bloch form.
        ValueError for an effect of the wrong length."""
        if len(effect) != self.ambient_dim:
            raise ValueError("effect dimension mismatch")
        if self.kind == "ball":
            avec, alpha = self.bloch(effect)
            na = self.effect_norm(avec)
            return (alpha - na) / 2, (alpha + na) / 2
        vals = [dot(effect, v) for v in self.vertices]
        return min(vals), max(vals)

    def is_valid_effect(self, effect: Sequence) -> bool:
        ctx = self.ctx
        if self.kind == "ball":  # the tolerance applies to alpha -/+ ||a||, not their halves
            avec, alpha = self.bloch(effect)
            na = self.effect_norm(avec)
            return ctx.le(na, alpha) and ctx.le(alpha, 2 - na)
        lo, hi = self.effect_range(effect)
        return ctx.ge(lo, ctx.zero()) and ctx.le(hi, ctx.one())

    # ----------------------------------------------------------- dual rays
    def dual_rays(self) -> tuple[DualRay, ...]:
        """All extreme rays of the dual cone (polytopic spaces)."""
        key = "dual_rays"
        if key not in self._cache:
            self._cache[key] = self._compute_dual_rays()
        return self._cache[key]

    def _compute_dual_rays(self) -> tuple[DualRay, ...]:
        """A space whose vertices do not span the ambient space has none.  A
        direct sum's rays are its summands' rays, each padded with zeros.
        A simplex's are the dual basis of its vertices.  Otherwise every facet
        is the zero set of the kernel of d affinely independent vertices (d
        the affine dimension): ``independent_subsets`` reads that kernel off
        each independent d-subset, and a kernel that changes sign on the
        vertices is no ray.  A ray is kept once, at the first subset of its
        vanishing vertices."""
        ctx = self.ctx
        if not self.spans_ambient():
            return ()
        if self.summands:
            rays = []
            for s in self.summands:
                for ray in s.space.dual_rays():
                    direction = [ctx.zero()] * self.ambient_dim
                    for k, x in enumerate(ray.direction):
                        direction[s.coord_offset + k] = x
                    # it vanishes on the other summands' vertices, so its
                    # vanishing vertices span a facet without a rank test
                    rays.append(self._nonnegative_ray(tuple(direction)))
            return tuple(rays)
        if self.is_simplex():  # n independent vertices in R^n
            n = self.n_vertices
            ech = Echelon.of(self.vertices, n, ctx, slots=n)
            return tuple(DualRay(h, tuple(j for j in range(n) if j != i))
                         for i, h in enumerate(ech.dual_basis()))
        d = self.affine_dim
        if d > 3:
            raise UnsupportedSpace("dual-ray enumeration supports affine dimension <= 3")
        rays, facets = [], []
        for subset, ech in independent_subsets(self.vertices, d, ctx):
            # a subset on a facet already found has that facet's ray as kernel
            if len(subset) < d or any(facet.issuperset(subset) for facet in facets):
                continue
            ray = self._nonnegative_ray(ech.kernel())
            if ray is not None:
                facets.append(frozenset(ray.vanishing_vertices))
                rays.append(ray)
        return tuple(rays)

    def extreme_ray(self, direction: Vector) -> Optional[DualRay]:
        """The dual ray through the functional (or through its negative), or
        None when it is zero, changes sign on the vertices, or its vanishing
        vertices do not span a facet."""
        ray = self._nonnegative_ray(direction)
        if ray is None or rank([self.vertices[j] for j in ray.vanishing_vertices],
                               self.ctx) != self.affine_dim:
            return None
        return ray

    def _nonnegative_ray(self, direction: Vector) -> Optional[DualRay]:
        """The functional or its negative, whichever is nonnegative on the
        vertices, scaled to a largest vertex value of 1; None when it is zero
        or changes sign."""
        ctx = self.ctx
        evals, sign = [], 0
        for v in self.vertices:
            e = dot(direction, v)
            if not ctx.is_zero(e):
                if sign and (e > 0) != (sign > 0):
                    return None
                sign = 1 if e > 0 else -1
            evals.append(e)
        if not sign:
            return None
        if sign < 0:
            direction = tuple(-x for x in direction)
            evals = [-e for e in evals]
        top = max(evals)
        direction = tuple(x / top for x in direction)
        vanishing = tuple(j for j, e in enumerate(evals) if ctx.is_zero(e / top))
        return DualRay(direction, vanishing)

    # ------------------------------------------------- extreme effect points
    def extreme_effects(self) -> tuple[Vector, ...]:
        """Nontrivial extreme points of the effect polytope (o, u excluded)."""
        key = "extreme_effects"
        if key not in self._cache:
            self._cache[key] = self._compute_extreme_effects()
        return self._cache[key]

    def _compute_extreme_effects(self) -> tuple[Vector, ...]:
        """An extreme effect meets d+1 independent bound constraints
        e(v_j) = 0 or 1 at equality (d+1 the ambient dimension): it is a 0/1
        sum of the dual basis of d+1 independent vertices, and it counts when
        it stays in [0, 1] on the other vertices.  The sums with all bounds 0
        or all 1 are o and u.  Points come in the order of their first
        constraint combination, each solved from that combination.

        In ambient dimension 3 a nontrivial extreme effect e has three
        independent tight vertices, two of them at the same bound.  Two at 0:
        e vanishes on two independent vertices and is >= 0 on the others, so
        its zero line supports the polygon along a facet and e is a multiple
        of that facet's dual ray; the third tight vertex is at 1 (at 0, e
        would be o), so e is the ray, scaled to a largest value of 1.  Two
        at 1: u - e is the first case.  Conversely a ray and u - ray are
        extreme: the facet's vertices and a vertex where the ray peaks are
        three independent tight vertices.  So ``_ray_triples`` reads every
        point off the dual rays; higher dimensions walk every independent
        vertex set (``_subset_walk``)."""
        if self.summands:
            # the effect polytope is the product of the summands': an extreme
            # point picks o, an extreme effect or u in every block; with o
            # first and u last in each block the product starts at o and
            # ends at u, the two constant choices
            blocks = [(s.space.zero_effect(),) + s.space.extreme_effects() + (s.space.unit,)
                      for s in self.summands]
            return tuple(sum(combo, ()) for combo in itertools.product(*blocks))[1:-1]
        if self.ambient_dim == 3:  # vertices that do not span give no rays, and no triples
            return self._extreme_points(self._ray_triples())
        return self._extreme_points(self._subset_walk())

    def _subset_walk(self):
        """(vertex subset, its ``Echelon``, bound patterns) for every
        independent (d+1)-subset of the vertices, which
        ``independent_subsets`` visits lexicographically, with every bound
        pattern but those of o and u."""
        d1 = self.ambient_dim
        nonconstant = list(itertools.product((0, 1), repeat=d1))[1:-1]
        for subset, ech in independent_subsets(self.vertices, d1, self.ctx, slots=d1):
            if len(subset) == d1:
                yield subset, ech, nonconstant

    def _ray_triples(self):
        """(vertex triple, its ``Echelon``, bound patterns) for every dual
        ray: the lexicographically first independent triple of the ray's
        tight vertices (0 where it vanishes, 1 where it peaks), under the
        ray's bounds and their flip, u - ray.  Vertices added in turn where
        they are independent of those before give that triple, as the
        independent sets of vectors form a matroid."""
        ctx, verts, one = self.ctx, self.vertices, self.ctx.one()
        for ray in self.dual_rays():
            peaks = {j for j, v in enumerate(verts) if ctx.eq(dot(ray.direction, v), one)}
            subset, ech = (), Echelon(3, ctx, slots=3)
            for j in sorted(peaks.union(ray.vanishing_vertices)):
                ext = ech.extend(verts[j])
                if ext is not None:
                    subset, ech = subset + (j,), ext
                    if len(subset) == 3:
                        break
            bounds = tuple(int(j in peaks) for j in subset)
            yield subset, ech, (bounds, tuple(1 - b for b in bounds))

    def _extreme_points(self, candidates) -> tuple[Vector, ...]:
        """The points that (vertex subset, ``Echelon``, bound patterns)
        candidates solve and that stay in [0, 1] on the other vertices, in
        the order of their first constraint combination."""
        ctx, verts = self.ctx, self.vertices
        zero, one = ctx.zero(), ctx.one()
        # the tight constraints of a point determine it, so they key its
        # first constraint combination (vertex j at bound b is constraint
        # 2j + b) and the dual basis and bounds that solve it
        first: dict = {}
        for subset, ech, patterns in candidates:
            basis = ech.dual_basis()
            others = [j for j in range(len(verts)) if j not in subset]
            vals = [[dot(h, verts[j]) for j in others] for h in basis]
            for bounds in patterns:
                evals = [total(col) for col in zip(*(v for v, b in zip(vals, bounds) if b))]
                if not all(ctx.ge(x, zero) and ctx.le(x, one) for x in evals):
                    continue
                tight = frozenset(zip(subset, bounds)) | frozenset(
                    (j, 0 if ctx.is_zero(x) else 1)
                    for j, x in zip(others, evals) if ctx.is_zero(x) or ctx.eq(x, one))
                combo = tuple(2 * j + b for j, b in zip(subset, bounds))
                if tight not in first or combo < first[tight][0]:
                    first[tight] = (combo, bounds, basis)
        return tuple(tuple(total(c) for c in zip(*(h for h, b in zip(basis, bounds) if b)))
                     for _, bounds, basis in sorted(first.values(), key=lambda t: t[0]))

    # --------------------------------------------------------------- states
    def contains_state(self, state: Sequence) -> bool:
        """Convex-hull membership (LP for polytopes, norm test for balls)."""
        if len(state) != self.ambient_dim:
            raise ValueError("state dimension mismatch")
        ctx = self.ctx
        if self.kind == "ball":
            if not ctx.eq(state[-1], ctx.one()):
                return False
            return self.effect_norm(state[:-1]) <= 1 + ctx.eps
        return in_convex_hull(state, self.vertices, ctx)

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


# ------------------------------------------------------------- LP models
def in_convex_hull(point: Sequence, points: Sequence[Sequence], ctx: Context) -> bool:
    """LP feasibility: point is a convex combination of points."""
    n = len(points)
    p = LPProblem(n=n)
    p.add_eq([(j, ctx.one()) for j in range(n)], ctx.one())
    for c, x in enumerate(point):
        p.add_eq([(j, q[c]) for j, q in enumerate(points) if q[c]], ctx.scalar(x))
    return lp_solve(p, ctx).feasible


class EffectBlock:
    """k effects among the variables of an LP: effect i is the sum over j of
    x[start + i * len(gens) + j] * gens[j]."""

    def __init__(self, start: int, gens: tuple, k: int):
        self.start, self.gens, self.k = start, gens, k
        self.cols = tuple(zip(*gens))  # generator coefficients of each coordinate

    def at(self, point: Sequence) -> list:
        """Generator coefficients of an effect's value at a point."""
        return [dot(g, point) for g in self.gens]

    def terms(self, i: int, coeffs: Sequence) -> list:
        """The LP terms of effect i with generator coefficients coeffs (from
        ``at`` or ``cols``): one pair per nonzero coefficient, in column order."""
        base = self.start + i * len(self.gens)
        return [(base + j, a) for j, a in enumerate(coeffs) if a]

    def sum_eq(self, p: LPProblem, members: Sequence[int], target: Sequence) -> None:
        """Rows: the effects in members (in increasing order) sum to the
        functional target."""
        for c, rhs in enumerate(target):
            p.add_eq([t for i in members for t in self.terms(i, self.cols[c])], rhs)

    def effects(self, x: Sequence) -> tuple:
        """The k effects at an LP solution x."""
        w = len(self.gens)
        return mat_mul([x[self.start + i * w:self.start + (i + 1) * w] for i in range(self.k)],
                       self.gens)


def effect_block(p: LPProblem, space: StateSpace, k: int) -> EffectBlock:
    """Append k effects to the variables of p, before or after its rows;
    the block's ``terms`` and ``sum_eq`` pose rows on them as (column,
    coefficient) pairs.

    An effect is a nonnegative combination of generators.  The dual-cone
    rays make it positive by construction wherever they generate the dual
    cone.  Where they do not (no ray enumeration for the space, or vertices
    that do not span the ambient space, which leave no rays) the generators
    are the signed unit vectors e_0, -e_0, e_1, -e_1, ..., which span every
    functional, and one >= row per vertex keeps the effect nonnegative."""
    try:
        rays = tuple(r.direction for r in space.dual_rays())
    except UnsupportedSpace:
        rays = ()
    ctx = space.ctx
    dim = space.ambient_dim
    zero, one = ctx.zero(), ctx.one()
    gens = rays or tuple(tuple(s if j == c else zero for j in range(dim))
                         for c in range(dim) for s in (one, -one))
    blk = EffectBlock(p.n, gens, k)
    p.n += k * len(gens)
    if not rays:
        for v in space.vertices:
            vals = blk.at(v)
            for i in range(k):
                p.add_ge(blk.terms(i, vals), zero)
    return blk


# ------------------------------------------------------------- constructors
def make_classical(d: int, ctx: Context = DEFAULT) -> StateSpace:
    """(d-1)-simplex with standard-basis vertices; u sums the coordinates."""
    if d < 1:
        raise ValueError("classical system needs d >= 1")
    one, zero = ctx.one(), ctx.zero()
    vertices = [tuple(one if j == i else zero for j in range(d)) for i in range(d)]
    return StateSpace("polytopic", vertices=vertices, unit=tuple([one] * d), ctx=ctx,
                      label=f"classical:{d}")


def polygon_radius(n: int) -> float:
    return math.sqrt(1.0 / math.cos(math.pi / n))


def make_polygon(n: int, ctx: Context = DEFAULT) -> StateSpace:
    """Regular n-gon state space at height 1; float backend only."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    if ctx.exact:
        raise UnsupportedSpace("polygon coordinates are irrational; use the float backend")
    r = polygon_radius(n)
    vertices = [(r * math.cos(2 * k * math.pi / n), r * math.sin(2 * k * math.pi / n), 1.0)
                for k in range(1, n + 1)]
    return StateSpace("polytopic", vertices=vertices, unit=(0.0, 0.0, 1.0), ctx=ctx,
                      label=f"polygon:{n}")


def make_ball(d: int, ctx: Context = DEFAULT) -> StateSpace:
    """Euclidean unit-ball state space (d=3: qubit Bloch ball, d=2: rebit)."""
    return StateSpace("ball", ball_dim=d, ctx=ctx, label=f"ball:{d}")


def make_square(ctx: Context = DEFAULT) -> StateSpace:
    """Rational unit square (linearly isomorphic to polygon:4); exact-friendly."""
    one = ctx.one()
    vs = [(one, one, one), (-one, one, one), (-one, -one, one), (one, -one, one)]
    return StateSpace("polytopic", vertices=vs, unit=(ctx.zero(), ctx.zero(), one), ctx=ctx,
                      label="square")


def direct_sum(spaces: Sequence[StateSpace]) -> StateSpace:
    """Block-coordinate direct sum of polytopic spaces."""
    if not spaces:
        raise ValueError("need at least one summand")
    if any(s.kind != "polytopic" for s in spaces):
        raise UnsupportedSpace("direct sums are defined for polytopic summands")
    if len(spaces) == 1:
        return spaces[0]
    ctx = spaces[0].ctx
    width = sum(s.ambient_dim for s in spaces)
    vertices: list[tuple] = []
    unit: list = []
    summands: list[Summand] = []
    coord = 0
    vtx = 0
    for s in spaces:
        idxs = []
        for v in s.vertices:
            padded = [ctx.zero()] * width
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
def space_from_ref(ref: str, ctx: Context = DEFAULT) -> StateSpace:
    """Parse a space literal: classical:d, polygon:n, ball:d, square,
    dsum:<ref>+<ref>."""
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


def space_from_json(obj, ctx: Context = DEFAULT) -> StateSpace:
    if isinstance(obj, str):
        return space_from_ref(obj, ctx)
    if obj.get("kind") == "ball":
        norm = obj.get("norm", "euclidean")
        if norm != "euclidean":
            raise ValueError(f"unsupported ball norm {norm!r}: only the euclidean ball is supported")
        return make_ball(int(obj["dim"]), ctx)
    space = StateSpace("polytopic", vertices=obj["vertices"], unit=obj["unit"], ctx=ctx,
                       label=obj.get("label", ""))
    if not obj.get("summands"):
        return space
    # a direct sum: each summand is its block of the coordinates and its
    # vertices; their direct sum must give back the dict's vertices and unit
    parts = []
    for blk in obj["summands"]:
        lo, hi = blk["coord_offset"], blk["coord_offset"] + blk["coord_dim"]
        parts.append(StateSpace("polytopic", ctx=ctx, unit=space.unit[lo:hi],
                                vertices=[space.vertices[i][lo:hi] for i in blk["vertex_indices"]]))
    dsum = direct_sum(parts)
    if (dsum.vertices, dsum.unit) != (space.vertices, space.unit):
        raise ValueError("the summands do not give back the space's vertices and unit")
    return StateSpace("polytopic", vertices=space.vertices, unit=space.unit, ctx=ctx,
                      label=space.label, summands=dsum.summands)


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
