"""Projective and affine geometry objects over GF(q).

Provides the subspace families that feed the graph builders: hyperovals
(conic plus nucleus), Denniston maximal arcs via a pencil of conics,
point/hyperplane duality under the standard dot form, and the two
rulings of totally singular 3-spaces on the hyperbolic quadric of F_q^6,
written down through the Klein correspondence with the points of
PG(3, q) and a map sigma that swaps the rulings (no 3-space is enumerated).

Every family is a :class:`dbrg.gfint.SpaceFamily`, defined in the
numpy-free field layer; so is a perp system of :mod:`dbrg.perpsys`.
Points of PG(n-1, q) are 1-dim members, and a point set (an arc, a
hyperoval, a two-intersection set) lists them in lex order of their
normalized vectors; its dual is the family of hyperplanes in the same
order.  Everything here is scalar work on the field layer
:mod:`dbrg.gfint`: this module imports no numpy.  Families and records
are plain classes and NamedTuples: no dataclasses.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .gfint import (FieldContext, SpaceFamily, Subspace, field_for_order, hyperplane_counts,
                    orthogonal_complement, point_vectors, subspace_make)

__all__ = [
    "ArcCheckResult",
    "hyperoval",
    "denniston_arc",
    "arc_check",
    "dualize",
    "point_family",
    "cone_spaces",
]


def point(ctx: FieldContext, v: Sequence[int]) -> Subspace:
    return subspace_make(ctx, len(v), [tuple(v)])


def point_family(ctx: FieldContext, n: int, vectors) -> SpaceFamily:
    """The points spanned by ``vectors`` as 1-dim members in lex order."""
    return SpaceFamily(ctx, n, tuple(sorted((point(ctx, v) for v in vectors),
                                            key=lambda s: s.basis)))


def hyperoval(q: int) -> SpaceFamily:
    """The q+2 points of a regular hyperoval in PG(2, q), q even.

    Conic {(1, t, t^2)} with its point at infinity (0, 0, 1) and the
    nucleus (0, 1, 0); every line of the plane meets the set in 0 or
    2 points.
    """
    ctx = field_for_order(q)
    if ctx.p != 2:
        raise ValueError(f"no hyperoval exists for odd q={q}")
    conic = [(1, t, ctx.mul(t, t)) for t in ctx.elements()]
    return point_family(ctx, 3, conic + [(0, 0, 1), (0, 1, 0)])


def denniston_arc(q: int, r: int) -> SpaceFamily:
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
    mul, add = ctx.mul, ctx.add
    # the form at every affine point (1, x, y); GF(2^m) elements with
    # encoding < r form an additive subgroup of order r
    arc = point_family(ctx, 3, [(1, x, y) for x in ctx.elements() for y in ctx.elements()
                                if add(add(mul(x, x), mul(x, y)), mul(beta, mul(y, y))) < r])
    if len(arc) != q * r - q + r:
        raise RuntimeError(f"arc of size {len(arc)}, expected {q * r - q + r}")
    return arc


def _trace(ctx: FieldContext, a: int) -> int:
    acc, cur = 0, a
    for _ in range(ctx.t):
        acc = ctx.add(acc, cur)
        cur = ctx.mul(cur, cur)
    return acc


class ArcCheckResult(NamedTuple):
    ok: bool
    degree: int
    violating_line: tuple[int, ...] | None = None
    count: int | None = None


def arc_check(arc: SpaceFamily, r: int) -> ArcCheckResult:
    """Does every line of the plane meet the point set in 0 or r points?

    Each point P adds one to the count of each line w-perp through it
    (:func:`dbrg.gfint.hyperplane_counts`); so it works alike for the
    hyperplanes of PG(n-1, q).  Violations are reported, not raised: the
    first offending line in :func:`dbrg.gfint.point_vectors` order (as a
    normal vector) comes back with its intersection count.  ValueError if
    a member is not a point."""
    if any(pt.dim != 1 for pt in arc.members):
        raise ValueError("arc_check takes a family of points (1-dim members)")
    counts = hyperplane_counts(arc.members)
    for w in point_vectors(arc.ctx, arc.n):
        if counts[w] not in (0, r):
            return ArcCheckResult(False, r, w, counts[w])
    return ArcCheckResult(True, r)


def dualize(family: SpaceFamily) -> SpaceFamily:
    """Duality under the standard dot form; applying it twice is identity.

    The family of the members' orthogonal complements, in the members'
    order (so a point set in lex order gives its hyperplanes in that
    order, and back).
    """
    return SpaceFamily(family.ctx, family.n, tuple(map(orthogonal_complement, family.members)))


def cone_spaces(q: int) -> tuple[SpaceFamily, SpaceFamily]:
    """Totally singular 3-spaces of the quadric X1X2 - X3X4 + X5X6 on F_q^6.

    Returns (all of them, the ruling through M0 = <e1, e3, e5>): sizes
    2(q+1)(q^2+1) and (q+1)(q^2+1), each sorted into echelon order.  No
    3-space is enumerated.  The quadric is the Klein quadric of PG(3, q)
    in the Plucker coordinates (X1, ..., X6) = (p01, p23, p02, p13, p03,
    p12) (Hirschfeld, *Finite Projective Spaces of Three Dimensions*,
    1985, ch. 15).  The ruling through M0, the lines through (1, 0, 0, 0),
    is one generator <P ^ e_j : j = 0..3> per point P of PG(3, q), from
    :func:`dbrg.gfint.point_vectors`; the other ruling is its image under
    sigma: (X1, ..., X6) -> (X2, X1, -X4, -X3, X6, X5), which keeps the
    quadric.  Generators of one ruling meet in odd dimension.
    """
    ctx, star, other = field_for_order(q), [], []
    plucker = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))  # X1..X6 as p_ab
    for p in point_vectors(ctx, 4):
        rows = [[p[a] if b == j else ctx.neg(p[b]) if a == j else 0 for a, b in plucker]
                for j in range(4)]
        star.append(subspace_make(ctx, 6, rows))
        other.append(subspace_make(ctx, 6, [[r[1], r[0], ctx.neg(r[3]), ctx.neg(r[2]), r[5], r[4]]
                                            for r in rows]))
    return tuple(SpaceFamily(ctx, 6, tuple(sorted(fam, key=lambda m: (m.pivots, m.basis))))
                 for fam in (star + other, star))
