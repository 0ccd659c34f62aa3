"""Projective and affine geometry objects over GF(q).

Provides the subspace families that feed the graph builders: hyperovals
(conic plus nucleus), Denniston maximal arcs via a pencil of conics,
point/hyperplane duality under the standard dot form, and the two
rulings of totally singular 3-spaces on the hyperbolic quadric of F_q^6.

Every family is a :class:`SpaceFamily`; so is a perp system of
:mod:`dbrg.perpsys`.  Points of PG(n-1, q) are 1-dim members, and a
point set (an arc, a hyperoval, a two-intersection set) lists them in
lex order of their normalized vectors; its dual is the family of
hyperplanes in the same order.  Families reach the :mod:`dbrg.gfcore`
kernels as ``SpaceFamily.bases`` and come back through ``subspaces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gfcore import (
    FieldContext,
    Subspace,
    dot,
    echelon_bases,
    field,
    hyperplane_counts,
    orthogonal_complement,
    projective_points,
    subspace_make,
    subspace_vector_ids,
    subspaces,
    vector_bitsets,
)

__all__ = [
    "SpaceFamily",
    "ArcCheckResult",
    "hyperoval",
    "denniston_arc",
    "arc_check",
    "dualize",
    "point_family",
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
class SpaceFamily:
    """A duplicate-free family of equal-dimensional subspaces of one F_q^n."""

    ctx: FieldContext
    n: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        if self.members:
            d = self.members[0].dim
            if any(m.dim != d or m.n != self.n or m.ctx != self.ctx for m in self.members):
                raise ValueError("SpaceFamily members must share field, space and dimension")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members in SpaceFamily")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def bases(self) -> np.ndarray:
        """The members' echelon bases for the kernels: int64, shape (K, m, n), also if m = 0."""
        m = self.members[0].dim if self.members else 0
        return np.array([mb.basis for mb in self.members], np.int64).reshape(len(self), m, self.n)


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
    # the form at every affine point (1, x, y); GF(2^m) elements with
    # encoding < r form an additive subgroup of order r
    x, y = np.indices((q, q)).reshape(2, -1)
    val = dot(ctx, np.stack([x, x, y], 1), np.stack([x, y, dot(ctx, y[:, None], [beta])], 1))
    arc = point_family(ctx, 3, np.stack([np.ones_like(x), x, y], 1)[val < r].tolist())
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


def arc_check(arc: SpaceFamily, r: int) -> ArcCheckResult:
    """Does every line of the plane meet the point set in 0 or r points?

    The counts come from :func:`dbrg.gfcore.hyperplane_counts`.
    Violations are reported, not raised: the first offending line (as a
    normal vector, lex order) comes back with its intersection count.
    ValueError if a member is not a point."""
    if any(pt.dim != 1 for pt in arc.members):
        raise ValueError("arc_check takes a family of points (1-dim members)")
    counts = hyperplane_counts(arc.ctx, arc.bases)
    bad = np.flatnonzero((counts != 0) & (counts != r))
    if bad.size:
        line = projective_points(arc.ctx, arc.n)[bad[0]]
        return ArcCheckResult(False, r, tuple(line.tolist()), int(counts[bad[0]]))
    return ArcCheckResult(True, r)


def dualize(obj):
    """Duality under the standard dot form; applying it twice is identity.

    Subspace -> orthogonal complement; SpaceFamily -> the family of the
    members' complements, in the members' order (so a point set in lex
    order gives its hyperplanes in that order, and back).
    """
    if isinstance(obj, Subspace):
        return orthogonal_complement(obj)
    if isinstance(obj, SpaceFamily):
        return SpaceFamily(obj.ctx, obj.n, tuple(map(orthogonal_complement, obj.members)))
    raise TypeError(f"cannot dualize {type(obj).__name__}")


def cone_spaces(q: int) -> tuple[SpaceFamily, SpaceFamily]:
    """Totally singular 3-spaces of the quadric X1X2 - X3X4 + X5X6 on F_q^6.

    Returns (all of them, the ruling through M0 = <e1, e3, e5>): sizes
    2(q+1)(q^2+1) and (q+1)(q^2+1), in enumeration order.  The quadric
    (as X1X2 + X5X6 = X3X4) on each basis row and its polar form on each
    pair of rows are tested on all echelon bases at once, as dot products.
    The ruling is the one with dim(M meet M0) odd, read from the number of
    vector ids M shares with M0.  RuntimeError if either family has
    another size (a broken construction).
    """
    ctx = field_for_order(q)
    singular = []
    for rows in echelon_bases(ctx, 6, 3):
        u, v = rows[:, [0, 0, 1]], rows[:, [1, 2, 2]]  # the three pairs of rows
        ok = ((dot(ctx, rows[..., [0, 4]], rows[..., [1, 5]])
               == dot(ctx, rows[..., [2]], rows[..., [3]])).all(axis=1)
              & (dot(ctx, u[..., [0, 1, 4, 5]], v[..., [1, 0, 5, 4]])
                 == dot(ctx, u[..., [2, 3]], v[..., [3, 2]])).all(axis=1))
        singular.append(rows[ok])
    singular = np.concatenate(singular)
    m0 = vector_bitsets(subspace_vector_ids(ctx, np.eye(6, dtype=np.int8)[None, ::2]), q**6)
    shared = np.bitwise_count(vector_bitsets(subspace_vector_ids(ctx, singular), q**6) & m0)
    odd = np.isin(shared.sum(axis=1), (q - 1, q**3 - 1))
    r_star = SpaceFamily(ctx, 6, tuple(subspaces(ctx, singular)))
    s_star = SpaceFamily(ctx, 6, tuple(subspaces(ctx, singular[odd])))
    if (len(r_star), len(s_star)) != (2 * (q + 1) * (q * q + 1), (q + 1) * (q * q + 1)):
        raise RuntimeError(f"quadric families of sizes {len(r_star)} and {len(s_star)}")
    return r_star, s_star
