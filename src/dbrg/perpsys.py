"""Perp systems: constant-covering families of codimension-k subspaces.

A perp system in F_q^n is a family of s >= 2 subspaces of codimension k
(k <= n/2) such that every nonzero vector lies in exactly 0 or d of the
members (d >= 2, both cases occurring) and any two distinct members meet
in dimension exactly n - 2k.  The member count is then forced:

    s = (d - 1) (q^(n-k) - 1) / (q^(n-2k) - 1) + 1,

d must be a power of the characteristic dividing q^(n-2k), and the
points covered d times form a projective two-intersection set whose
associated graph is strongly regular.

``perp_search`` is a deterministic exact-cover search with
multiplicities (Knuth's Algorithm M): it branches on the partially
covered vector with the fewest candidates left.  It works on the
candidates' vector ids and uint64 bitsets of :mod:`dbrg.gfcore`, and
finds the candidates holding a vector by testing its bit.

The records, the exhaustive check ``perp_verify`` and the file format
are the numpy-free :mod:`dbrg.perpfile`, re-exported here, so that
``perp verify``, the perp ``roundtrip`` and the file read of
``construct gen-delorme`` run without numpy.  A :class:`PerpSystem` is a
:class:`dbrg.gfint.SpaceFamily` plus k, d and s, always in the primal
formulation that :func:`perp_verify` checked; the coset graph, the
two-intersection set and the file format read it.  ``perp_dualize``
checks the dual formulation (k-dimensional members meeting trivially,
every hyperplane holding 0 or d of them), with the meet routine of
``perp_verify``, and returns it as a plain
:class:`dbrg.gfint.SpaceFamily`; the way back is
``perp_verify(ctx, n, k, dualize(family).members)``.  The member count
and the admissibility rules are :func:`dbrg.params.perp_params`.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .gfcore import (
    bitset_contains,
    echelon_bases,
    hyperplane_counts,
    projective_points,
    stack_bases,
    subspace_vector_ids,
    subspaces,
    vector_bitsets,
    vector_ids,
)
from .gfint import FieldContext, SpaceFamily, id_bitset, qbinom, span_ids
from .geometry import dualize, field_for_order, point_family
from .params import perp_params
from .perpfile import (
    PerpSystem,
    PerpViolation,
    meeting_pair,
    parse_perp,
    perp_verify,
    serialize_perp,
)

__all__ = [
    "PerpSystem",
    "PerpViolation",
    "TwoIntersectionSet",
    "SearchOutcome",
    "perp_verify",
    "two_intersection_set",
    "perp_dualize",
    "perp_search",
    "serialize_perp",
    "parse_perp",
]


# ---------------------------------------------------------------------------
# Two-intersection sets
# ---------------------------------------------------------------------------

class TwoIntersectionSet(NamedTuple):
    points: SpaceFamily
    N: int
    K: int
    h1: int
    h2: int
    hyperplanes_h1: int
    hyperplanes_h2: int


def two_intersection_set(system: PerpSystem) -> TwoIntersectionSet:
    """The d-times-covered points, with the hyperplane sizes verified.

    Exhaustively intersects every hyperplane with the point set and
    checks that exactly the two predicted sizes occur, by
    :func:`dbrg.gfcore.hyperplane_counts`.  ValueError means
    ``system`` is not a perp system (a predicted size is not an integer,
    or the measured point set differs); RuntimeError means the double
    count of point-hyperplane incidences failed, which holds by
    construction.
    """
    ctx, n, k, d, s = system.ctx, system.n, system.k, system.d, system.s
    q = ctx.q
    points = projective_points(ctx, n)
    ids = subspace_vector_ids(ctx, stack_bases(system))
    mults = np.bincount(ids.ravel(), minlength=q**n)
    reps = points[mults[vector_ids(ctx, points)] == d]
    big_n = Fraction(s, d) * qbinom(n - k, 1, q)
    h1 = Fraction(qbinom(n - k, 1, q) + (s - 1) * qbinom(n - k - 1, 1, q), d)
    h2 = Fraction(s * qbinom(n - k - 1, 1, q), d)
    if big_n.denominator != 1 or h1.denominator != 1 or h2.denominator != 1:
        raise ValueError(f"non-integral point count or hyperplane size: N={big_n}, "
                         f"h1={h1}, h2={h2}")
    big_n, h1, h2 = int(big_n), int(h1), int(h2)
    if len(reps) != big_n:
        raise ValueError(f"covered-point count {len(reps)} != predicted {big_n}")
    counts = hyperplane_counts(ctx, reps[:, None])
    bad = np.flatnonzero((counts != h1) & (counts != h2))
    if bad.size:
        w, cnt = tuple(points[bad[0]].tolist()), int(counts[bad[0]])
        raise ValueError(f"hyperplane {w} meets the point set in {cnt}, expected {h1} or {h2}")
    n1 = int((counts == h1).sum())
    n2 = len(counts) - n1
    if h1 != h2 and (n1 == 0 or n2 == 0):
        raise ValueError("one of the two hyperplane sizes does not occur")
    if big_n * qbinom(n - 1, 1, q) != n1 * h1 + n2 * h2:
        raise RuntimeError("point-hyperplane incidences do not double count")
    return TwoIntersectionSet(point_family(ctx, n, reps.tolist()), big_n, n, h1, h2, n1, n2)


# ---------------------------------------------------------------------------
# Dual formulation
# ---------------------------------------------------------------------------

def perp_dualize(system: PerpSystem) -> SpaceFamily:
    """The dual formulation: the members' orthogonal complements, sorted
    by basis.

    They are k-dimensional, meet pairwise trivially, and every hyperplane
    contains 0 or d of them (checked exhaustively); ValueError means
    ``system`` fails one of these checks.  The way back is
    ``perp_verify(ctx, n, k, dualize(family).members)``.
    """
    ctx, n, d = system.ctx, system.n, system.d
    dual = SpaceFamily(ctx, n, tuple(sorted(dualize(system).members, key=lambda m: m.basis)))
    pair = meeting_pair([id_bitset(span_ids(ctx, m.basis)) for m in dual.members], 0)
    if pair is not None:
        raise ValueError(f"dual members {pair[0]},{pair[1]} do not meet trivially")
    counts = hyperplane_counts(ctx, stack_bases(dual))
    bad = np.flatnonzero((counts != 0) & (counts != d))
    if bad.size:
        w, cnt = tuple(projective_points(ctx, n)[bad[0]].tolist()), int(counts[bad[0]])
        raise ValueError(f"hyperplane {w} contains {cnt} dual members, expected 0 or {d}")
    if not ((counts == 0).any() and (counts == d).any()):
        raise ValueError("hyperplane covering must take both values 0 and d")
    return dual


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

class SearchOutcome(NamedTuple):
    status: str  # found | exhausted | budget
    system: PerpSystem | None
    nodes: int
    elapsed: float  # wall seconds from entry, set-up included
    # count_all runs: the systems through candidate 0; all systems number
    # solutions * K / s (GL(n, q) is transitive on the K candidates)
    solutions: int = 0
    complete: bool = False  # whole space explored (exhausted, or found with count_all)
    # wall seconds to tabulate the candidates: int8 bases, int32 vector ids
    # and uint64 bitsets
    setup_seconds: float = 0.0


class _Node(NamedTuple):
    """A partial family in :func:`perp_search`."""

    members: tuple[int, ...]  # candidate indices
    cover: np.ndarray  # per vector id: members containing it
    live: np.ndarray  # per candidate: may still join
    avail: np.ndarray  # per vector id: live candidates containing it


class _Budget(Exception):
    pass


class _Found(Exception):
    pass


_CHUNK = 512  # candidates tabulated, tested or dropped per step: the temporaries stay small


def _candidate_tables(ctx: FieldContext, n: int, k: int,
                      out_of_time: Callable[[], bool]) -> tuple[np.ndarray, ...]:
    """The tables of :func:`perp_search` over the codimension-k subspaces:
    (bases, ids, bits), filled ``_CHUNK`` candidates at a time.  Raises
    _Budget when ``out_of_time()`` holds before a part; RuntimeError if
    the candidates are not [n, n-k]_q, or some nonzero vector does not lie
    in exactly [n-1, n-k-1]_q of them (GL(n, q) is transitive on nonzero
    vectors)."""
    q, size = ctx.q, ctx.q**n
    count, per_vector = qbinom(n, n - k, q), qbinom(n - 1, n - k - 1, q)
    bases = ids = bits = None
    fill = np.zeros(size, np.int64)  # candidates holding each vector so far
    start = 0
    for block in echelon_bases(ctx, n, n - k):
        for part in np.split(block, range(_CHUNK, len(block), _CHUNK)):
            if out_of_time():
                raise _Budget
            part_ids = subspace_vector_ids(ctx, part)
            if bases is None:  # in the dtypes of the parts: int8 bases, int32 ids
                bases = np.empty((count,) + part.shape[1:], part.dtype)
                ids = np.empty((count, part_ids.shape[1]), part_ids.dtype)
                bits = np.empty((count, -(-size // 64)), np.uint64)
            stop = start + len(part)
            bases[start:stop], ids[start:stop] = part, part_ids
            bits[start:stop] = vector_bitsets(part_ids, size)
            fill += np.bincount(part_ids.ravel(), minlength=size)
            start = stop
    if start != count or (fill[1:] != per_vector).any():
        raise RuntimeError(f"{start} candidates, each vector in {fill[1:].min()} to "
                           f"{fill[1:].max()} of them; expected {count} and {per_vector}")
    return bases, ids, bits


def perp_search(
    n: int,
    k: int,
    q: int,
    d: int,
    *,
    budget_nodes: int | None = None,
    budget_seconds: float | None = None,
    count_all: bool = False,
) -> SearchOutcome:
    """Deterministic exact-cover search for a perp system.

    Candidates are the codimension-k subspaces in enumeration order, and
    the first member is pinned to candidate 0 (the conditions are
    GL-invariant, so this loses no system up to GL(n, q)).  This is Algorithm X with
    multiplicities (Knuth, *Dancing Links*; TAOCP 7.2.2.1 Algorithm M):
    every nonzero vector must end up in 0 or d members.  After each
    inclusion the candidates that meet the new member in the wrong size
    or contain a vector now covered d times are killed.  The search
    branches on the partially covered vector with the fewest live
    candidates; sibling i excludes siblings 0..i-1, so ``count_all``
    counts each system through candidate 0 once.  GL(n, q) is transitive
    on the K candidates, so each lies in equally many systems, and the
    number of all systems is ``solutions * K / s``.  A node with no partially covered vector
    has no live candidate: as n > 2k, every candidate shares a vector
    with member 0, and that vector is then covered d times.  A node is
    pruned when some partially covered vector has fewer live candidates
    than it still needs, or needs more than the members left.  The
    search is deterministic.

    Set-up tabulates the K = [n, n-k]_q candidates in three tables:
    echelon bases (int8 while q < 128), their sorted nonzero vector ids
    (int32 while q^n < 2^31) and their uint64 bitsets.  The tables are
    allocated once and filled ``_CHUNK`` candidates at a time, so no step
    holds a temporary larger than a few arrays the size of one part;
    RuntimeError if some vector does not lie in exactly R = [n-1, n-k-1]_q
    candidates.  The search reads the candidates holding a vector, and
    those holding a vector now covered d times, from the bitsets, in
    increasing order; it tests the live candidates against a new member,
    and counts killed candidates out of the live counts, ``_CHUNK`` at a
    time, so the search temporaries stay as small.

    A node is one inclusion tried.  ``budget_seconds`` bounds the wall
    time from entry, set-up included (it is checked before each part).
    Returns status ``found`` with a system checked by :func:`perp_verify`,
    ``exhausted`` when the whole space was explored (with ``solutions``
    counted if ``count_all``), or ``budget`` when a cap was hit first.
    ValueError if ``budget_nodes`` is negative or ``budget_seconds`` is
    negative, infinite or NaN.
    """
    t0 = time.monotonic()
    if budget_nodes is not None and budget_nodes < 0:
        raise ValueError(f"budget_nodes must be non-negative, got {budget_nodes}")
    if budget_seconds is not None and not 0 <= budget_seconds < math.inf:
        raise ValueError(f"budget_seconds must be finite and non-negative, got {budget_seconds}")
    s_target = perp_params(n, k, q, d).forced_s()
    ctx = field_for_order(q)
    size = q**n
    want = q ** (n - 2 * k) - 1

    def out_of_time() -> bool:
        return budget_seconds is not None and time.monotonic() - t0 > budget_seconds

    try:
        bases, ids, bits = _candidate_tables(ctx, n, k, out_of_time)
    except _Budget:
        spent = time.monotonic() - t0
        return SearchOutcome("budget", None, 0, spent, setup_seconds=spent)
    setup_seconds = time.monotonic() - t0

    def drop(node: _Node, dead) -> None:
        node.live[dead] = False
        for i in range(0, len(dead), _CHUNK):
            node.avail[:] -= np.bincount(ids[dead[i:i + _CHUNK]].ravel(), minlength=size)

    def join(node: _Node, c: int) -> _Node:
        cover = node.cover.copy()
        cover[ids[c]] += 1
        full = ids[c][cover[ids[c]] == d]  # vectors now covered d times
        live = np.flatnonzero(node.live)
        dead = np.empty(len(live), bool)
        for i in range(0, len(live), _CHUNK):
            held = bits[live[i:i + _CHUNK]]
            dead[i:i + _CHUNK] = bitset_contains(held, full).any(axis=1)
            held &= bits[c]  # in place: the meets with c, c itself included
            dead[i:i + _CHUNK] |= np.bitwise_count(held).sum(axis=1) != want
        child = _Node(node.members + (c,), cover, node.live.copy(), node.avail.copy())
        drop(child, live[dead])
        return child

    def feasible(node: _Node) -> bool:
        part = (node.cover > 0) & (node.cover < d)
        need = d - node.cover[part]
        left = s_target - len(node.members)
        return not need.size or (need.max() <= left and (node.avail[part] >= need).all())

    nodes = solutions = 0
    first: PerpSystem | None = None

    def visit(node: _Node) -> None:
        nonlocal nodes, solutions, first
        if len(node.members) == s_target:
            # feasible, so every vector is covered 0 or d times
            if (node.cover[1:] == 0).any():
                res = perp_verify(ctx, n, k, subspaces(ctx, bases[list(node.members)]))
                if not isinstance(res, PerpSystem):
                    raise RuntimeError(f"search produced a family that fails perp_verify: {res}")
                solutions += 1
                if first is None:
                    first = res
                if not count_all:
                    raise _Found
            return
        part = np.flatnonzero((node.cover > 0) & (node.cover < d))
        if not part.size:  # no live candidate is left (see the docstring)
            return
        v = part[np.argmin(node.avail[part])]
        for c in np.flatnonzero(node.live & bitset_contains(bits, v)).tolist():
            nodes += 1
            if (budget_nodes is not None and nodes >= budget_nodes) or out_of_time():
                raise _Budget
            child = join(node, c)
            if feasible(child):
                visit(child)
            drop(node, [c])  # later siblings exclude c
            if not feasible(node):
                return

    avail = np.full(size, qbinom(n - 1, n - k - 1, q))
    avail[0] = 0  # the zero vector is in no candidate's id list
    root = _Node((), np.zeros(size, dtype=np.int64), np.ones(len(ids), dtype=bool), avail)
    start = join(root, 0)
    status, complete = "exhausted", True
    try:
        if feasible(start):
            visit(start)
    except _Found:
        complete = False
    except _Budget:
        status, complete = "budget", False
    if first is not None:
        status = "found"
    return SearchOutcome(status, first, nodes, time.monotonic() - t0, solutions, complete,
                         setup_seconds)
