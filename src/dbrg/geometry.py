"""Projective and affine geometry objects over GF(q).

Provides the point sets and subspace families that feed the graph
builders: hyperovals (conic plus nucleus), Denniston maximal arcs via a
pencil of conics, point/hyperplane duality under the standard dot form,
and the two rulings of totally singular 3-spaces on the hyperbolic
quadric of F_q^6.

Points of PG(n-1, q) are handled as 1-dimensional :class:`Subspace`
values; a maximal arc is a :class:`PointSet` and its dual a
:class:`SpaceFamily` of hyperplanes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .gfcore import (
    FieldContext,
    Subspace,
    dot,
    enumerate_projective_points,
    enumerate_subspaces,
    field,
    orthogonal_complement,
    subspace_make,
    subspace_meet,
    vec_add,
)

__all__ = [
    "PointSet",
    "SpaceFamily",
    "ArcCheckResult",
    "hyperoval",
    "denniston_arc",
    "arc_check",
    "dualize",
    "cone_spaces",
    "field_for_order",
]


def field_for_order(q: int) -> FieldContext:
    """Context for GF(q), factoring q as a prime power."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    t, rest = 0, q
    while rest > 1:
        if rest % p:
            raise ValueError(f"q={q} is not a prime power")
        rest //= p
        t += 1
    return field(p, t)


@dataclass(frozen=True)
class PointSet:
    """A set of projective points (1-dim subspaces) in a common space."""

    ctx: FieldContext
    n: int
    points: frozenset[Subspace]

    def __post_init__(self):
        for pt in self.points:
            if pt.n != self.n or pt.dim != 1:
                raise ValueError("PointSet members must be 1-dim subspaces of the ambient space")

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> list[Subspace]:
        return sorted(self.points, key=lambda s: s.basis)


@dataclass(frozen=True)
class SpaceFamily:
    """A duplicate-free family of equal-dimensional subspaces."""

    ctx: FieldContext
    n: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        if self.members:
            d = self.members[0].dim
            if any(m.dim != d or m.n != self.n for m in self.members):
                raise ValueError("SpaceFamily members must share dimension and ambient space")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members in SpaceFamily")

    def __len__(self) -> int:
        return len(self.members)


def point(ctx: FieldContext, v: Sequence[int]) -> Subspace:
    return subspace_make(ctx, len(v), [tuple(v)])


def hyperoval(q: int) -> PointSet:
    """The q+2 points of a regular hyperoval in PG(2, q), q even.

    Conic {(1, t, t^2)} with its point at infinity (0, 0, 1) and the
    nucleus (0, 1, 0); every line of the plane meets the set in 0 or
    2 points.
    """
    ctx = field_for_order(q)
    if ctx.p != 2:
        raise ValueError(f"no hyperoval exists for odd q={q}")
    pts = [point(ctx, (1, t, ctx.mul(t, t))) for t in ctx.elements()]
    pts.append(point(ctx, (0, 0, 1)))
    pts.append(point(ctx, (0, 1, 0)))
    return PointSet(ctx, 3, frozenset(pts))


def denniston_arc(q: int, r: int) -> PointSet:
    """Degree-r maximal arc in PG(2, q) from a pencil of conics.

    Requires q and r powers of two with 1 < r <= q and r | q.  Uses the
    anisotropic form x^2 + xy + beta*y^2 (trace(beta) = 1) and collects
    the affine points whose form value lies in the additive subgroup
    {0 .. r-1} of GF(q); sizes come out to q*r - q + r (RuntimeError
    if not: the construction is broken).
    """
    for name, val in (("q", q), ("r", r)):
        if val < 2 or val & (val - 1):
            raise ValueError(f"{name}={val} must be a power of two (>= 2)")
    if q % r:
        raise ValueError(f"degree r={r} must divide q={q}")
    ctx = field_for_order(q)
    beta = next(b for b in ctx.nonzero() if _trace(ctx, b) == 1)
    # GF(2^m) elements with encoding < r form an additive subgroup of order r
    group = set(range(r))
    pts = []
    for x in ctx.elements():
        x2 = ctx.mul(x, x)
        for y in ctx.elements():
            val = ctx.add(ctx.add(x2, ctx.mul(x, y)), ctx.mul(beta, ctx.mul(y, y)))
            if val in group:
                pts.append(point(ctx, (1, x, y)))
    arc = PointSet(ctx, 3, frozenset(pts))
    if len(arc) != q * r - q + r:
        raise RuntimeError(f"arc of size {len(arc)}, expected {q * r - q + r}")
    return arc


def _trace(ctx: FieldContext, a: int) -> int:
    acc, cur = 0, a
    for _ in range(ctx.t):
        acc = ctx.add(acc, cur)
        cur = ctx.mul(cur, cur)
    return acc


@dataclass(frozen=True)
class ArcCheckResult:
    ok: bool
    degree: int
    violating_line: tuple[int, ...] | None = None
    count: int | None = None


def arc_check(arc: PointSet, r: int) -> ArcCheckResult:
    """Does every line of the plane meet the point set in 0 or r points?

    Violations are reported, not raised: the first offending line (as a
    normal vector, lex order) comes back with its intersection count.
    """
    ctx = arc.ctx
    reps = [pt.basis[0] for pt in arc.sorted_points()]
    for w in enumerate_projective_points(ctx, arc.n):
        cnt = sum(1 for v in reps if dot(ctx, w, v) == 0)
        if cnt not in (0, r):
            return ArcCheckResult(False, r, w, cnt)
    return ArcCheckResult(True, r)


def dualize(obj):
    """Duality under the standard dot form; applying it twice is identity.

    Subspace -> orthogonal complement; PointSet -> SpaceFamily of the
    point-perp hyperplanes; SpaceFamily -> family of complements (a
    PointSet again when the complements are 1-dimensional).
    """
    if isinstance(obj, Subspace):
        return orthogonal_complement(obj)
    if isinstance(obj, PointSet):
        members = tuple(
            orthogonal_complement(pt) for pt in obj.sorted_points()
        )
        return SpaceFamily(obj.ctx, obj.n, members)
    if isinstance(obj, SpaceFamily):
        duals = [orthogonal_complement(m) for m in obj.members]
        if duals and duals[0].dim == 1:
            return PointSet(obj.ctx, obj.n, frozenset(duals))
        return SpaceFamily(obj.ctx, obj.n, tuple(duals))
    raise TypeError(f"cannot dualize {type(obj).__name__}")


def _quadric_value(ctx: FieldContext, v: Sequence[int]) -> int:
    # X1*X2 - X3*X4 + X5*X6 in 1-based coordinates
    return ctx.add(
        ctx.sub(ctx.mul(v[0], v[1]), ctx.mul(v[2], v[3])),
        ctx.mul(v[4], v[5]),
    )


def _polar_value(ctx: FieldContext, u: Sequence[int], v: Sequence[int]) -> int:
    s = _quadric_value(ctx, vec_add(ctx, u, v))
    return ctx.sub(ctx.sub(s, _quadric_value(ctx, u)), _quadric_value(ctx, v))


def cone_spaces(q: int) -> tuple[SpaceFamily, SpaceFamily]:
    """Totally singular 3-spaces of the quadric X1X2 - X3X4 + X5X6 on F_q^6.

    Returns (all of them, the ruling through <e1, e3, e5>): sizes
    2(q+1)(q^2+1) and (q+1)(q^2+1).  The second family is selected by
    dim(M  meet  M0) being odd, which picks exactly one of the two rulings.
    RuntimeError if either family has another size (a broken construction).
    """
    ctx = field_for_order(q)
    singular = []
    for s in enumerate_subspaces(ctx, 6, 3):
        rows = s.basis
        if any(_quadric_value(ctx, row) != 0 for row in rows):
            continue
        if any(
            _polar_value(ctx, rows[i], rows[j]) != 0
            for i, j in itertools.combinations(range(3), 2)
        ):
            continue
        singular.append(s)
    r_star = SpaceFamily(ctx, 6, tuple(singular))
    m0 = subspace_make(
        ctx, 6, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)]
    )
    s_star = SpaceFamily(
        ctx, 6, tuple(m for m in singular if subspace_meet(m, m0).dim in (1, 3))
    )
    if (len(r_star), len(s_star)) != (2 * (q + 1) * (q * q + 1), (q + 1) * (q * q + 1)):
        raise RuntimeError(f"quadric families of sizes {len(r_star)} and {len(s_star)}")
    return r_star, s_star
